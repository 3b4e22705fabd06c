package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"fixgo/internal/core"
	"fixgo/internal/objstore"
	"fixgo/internal/obsv"
	"fixgo/internal/proto"
	"fixgo/internal/store"
)

// Offload implements runtime.Delegator: the node's dataflow-aware
// scheduler. Given an Encode about to be forced, it walks the job's
// locally known definition closure, estimates per-candidate data movement
// (bytes of dependencies not already at the candidate, plus the hinted
// output size for non-local placements), and delegates to the cheapest
// node — or declines (handled=false) when this node is already cheapest.
//
// Delegations survive worker death: when the owning peer is evicted
// mid-flight, the job is re-placed on a surviving candidate (peers the
// job already died on are excluded), up to maxReplacements attempts.
// Past the bound — or when no candidate survives — the job falls back to
// local evaluation, except on a ClientOnly node, which cannot execute
// and fails the job with an error wrapping ErrNoWorkers.
func (n *Node) Offload(ctx context.Context, enc core.Handle) (core.Handle, bool, error) {
	if hopsOf(ctx) >= maxHops {
		return core.Handle{}, false, nil
	}
	if !n.anyWorkerPeer() {
		if n.opts.ClientOnly {
			return core.Handle{}, true, ErrNoWorkers
		}
		return core.Handle{}, false, nil
	}
	closure, hint := n.jobDeps(enc)
	if closure == nil {
		return core.Handle{}, false, nil
	}
	defer closure.Release()
	deps := closure.Deps
	t := obsv.FromContext(ctx)
	placeStart := time.Now()
	var tried map[string]bool // peers this job already died on
	replaced := 0
	for {
		if n.isClosed() {
			return core.Handle{}, true, ErrNodeClosed
		}
		live, peerByID := n.candidates()
		if len(tried) > 0 {
			all := live
			live = make([]string, 0, len(all))
			for _, c := range all {
				if !tried[c] {
					live = append(live, c)
				}
			}
		}
		remote := false
		for _, c := range live {
			if c != n.id {
				remote = true
				break
			}
		}
		if !remote {
			// Every surviving worker already failed this job, or none
			// survive at all.
			if n.opts.ClientOnly {
				n.noteNet(func(s *NetStats) { s.ReplaceFailures++ })
				return core.Handle{}, true, fmt.Errorf("cluster: job has no surviving placement after %d attempts: %w", replaced+1, ErrNoWorkers)
			}
			if replaced > 0 {
				n.noteNet(func(s *NetStats) { s.JobsLocalFallback++ })
			}
			return core.Handle{}, false, nil
		}
		target := n.pick(enc, live, deps, hint)
		if target == n.id {
			if replaced > 0 {
				n.noteNet(func(s *NetStats) { s.JobsLocalFallback++ })
			}
			return core.Handle{}, false, nil
		}
		p := peerByID[target]
		// One placement span per attempt: re-placements after a worker
		// death show up as additional placement/delegate span pairs.
		t.AddSpanAt("placement", "", placeStart, time.Since(placeStart))
		res, err := n.delegate(ctx, p, enc, deps)
		placeStart = time.Now()
		if err == nil {
			return res, true, nil
		}
		// Declared past the success return: errors.As makes it escape.
		var lost *PeerLostError
		if !errors.As(err, &lost) {
			// A deterministic remote failure (the job itself errored):
			// re-running elsewhere would fail the same way.
			return res, true, err
		}
		// The worker died under the job. Re-place it on a survivor.
		if tried == nil {
			tried = make(map[string]bool)
		}
		tried[target] = true
		if replaced >= maxReplacements {
			if n.opts.ClientOnly {
				n.noteNet(func(s *NetStats) { s.ReplaceFailures++ })
				return core.Handle{}, true, fmt.Errorf("cluster: job re-placement bound (%d) exhausted: %w", maxReplacements, err)
			}
			n.noteNet(func(s *NetStats) { s.JobsLocalFallback++ })
			return core.Handle{}, false, nil
		}
		replaced++
		n.noteNet(func(s *NetStats) { s.JobsReplaced++ })
	}
}

// anyWorkerPeer reports whether at least one live worker peer exists.
func (n *Node) anyWorkerPeer() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.workers) > 0
}

// noteNet updates the failure-handling counters under the node lock.
func (n *Node) noteNet(f func(*NetStats)) {
	n.mu.Lock()
	f(&n.net)
	n.mu.Unlock()
}

// candidates lists placement targets: worker peers plus this node (unless
// it is client-only), sorted, and the worker peers by ID. Both are the
// snapshot rebuildRingLocked keeps: shared by every caller, never to be
// modified.
func (n *Node) candidates() ([]string, map[string]*peer) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.targets, n.workers
}

// jobDeps walks the locally resident definition closure of an Encode's
// Thunk (store.Closure) and reads the output-size hint from its limits
// entry. It returns nil when the definition itself is not local (the job
// cannot be priced, so it runs here and fetching sorts it out). The caller
// releases the closure once done with its Deps.
func (n *Node) jobDeps(enc core.Handle) (c *store.Closure, hint uint64) {
	c = n.st.Closure(enc)
	if c == nil {
		return nil, 0
	}
	// The limits entry hints the output size (section 4.2.2). Encoded
	// limits are always a literal, read in place.
	if entries, err := n.st.Tree(enc.StorageKey()); err == nil && len(entries) > 0 {
		if lim, err := core.DecodeLimits(entries[0].LiteralView()); err == nil {
			hint = lim.OutputSizeHint
		}
	}
	return c, hint
}

// pick chooses the placement. With NoLocality it is uniform random
// (the Fig. 8b ablation); otherwise minimal data movement with a
// deterministic pseudo-random tie-break so equal-cost jobs spread.
func (n *Node) pick(enc core.Handle, candidates []string, deps []store.Dep, hint uint64) string {
	if n.opts.NoLocality {
		n.mu.Lock()
		defer n.mu.Unlock()
		return candidates[n.rng.Intn(len(candidates))]
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	// Price every candidate in one pass over deps: each dependency costs
	// one view lookup and one local-residency check, however many
	// candidates there are.
	var buf [pickInline]pricing
	prices := buf[:0]
	if len(candidates) > pickInline {
		prices = make([]pricing, 0, len(candidates))
	}
	withSelf := false
	for _, cand := range candidates {
		p := pricing{self: cand == n.id}
		if !p.self {
			p.id = n.view.ID(cand)
		}
		withSelf = withSelf || p.self
		prices = append(prices, p)
	}
	for _, d := range deps {
		held := n.view.Holders(d.Handle)
		local := withSelf && n.st.Contains(d.Handle)
		for i := range prices {
			p := &prices[i]
			has := local
			if !p.self {
				has = held.Has(p.id)
			}
			if !has {
				p.cost += d.Size
			}
		}
	}
	best := ""
	var bestCost, bestTie uint64
	for i, cand := range candidates {
		cost := prices[i].cost
		if !prices[i].self {
			cost += hint
		}
		// Load term: parallel dependees of the same downstream job
		// (section 4.2.2) spread across nodes instead of piling onto
		// one equal-cost winner. Self load is the engine's in-flight
		// count: invocations running or about to claim a slot, not
		// parents only waiting on their children. Peer load is our
		// outstanding delegations to that peer.
		var load uint64
		if prices[i].self {
			load = uint64(n.eng.InFlight())
		} else {
			load = uint64(n.pending[cand])
		}
		cost += load * loadPenaltyBytes
		tie := tieBreak(enc, cand)
		if best == "" || cost < bestCost || (cost == bestCost && tie < bestTie) {
			best, bestCost, bestTie = cand, cost, tie
		}
	}
	return best
}

// pricing is one candidate's identity — this node, or a peer's interned
// view ID — and the dependency bytes it lacks.
type pricing struct {
	self bool
	id   objstore.OwnerID
	cost uint64
}

// pickInline is how many candidates pick prices without allocating.
const pickInline = 16

// loadPenaltyBytes prices one in-flight job in data-movement bytes: small
// enough that real locality (chunk-sized differences) still dominates,
// large enough to break ties among equal-cost candidates.
const loadPenaltyBytes = 8 << 10

// tieBreak is FNV-1a over the handle bytes followed by the candidate's
// own FNV-1a hash as eight little-endian bytes.
func tieBreak(enc core.Handle, cand string) uint64 {
	h := uint64(fnvOffset64)
	for _, b := range enc {
		h = (h ^ uint64(b)) * fnvPrime64
	}
	c := fnvHash(cand)
	for i := 0; i < 64; i += 8 {
		h = (h ^ uint64(byte(c>>i))) * fnvPrime64
	}
	return h
}

// delegate ships the job to the chosen peer: the Encode handle plus the
// cheap part of its definition closure (Trees, and Blobs up to pushLimit,
// that the peer is not known to have), then waits for the Result. A send
// failure or the peer's eviction mid-wait surfaces as PeerLostError so
// Offload can re-place the job.
func (n *Node) delegate(ctx context.Context, p *peer, enc core.Handle, deps []store.Dep) (core.Handle, error) {
	w := waiterPool.Get().(*jobWaiter)
	w.peerID = p.id
	n.mu.Lock()
	if n.closed {
		// Close has already failed every registered waiter; one
		// registered now would wait for a delivery that never comes.
		n.mu.Unlock()
		waiterPool.Put(w)
		return core.Handle{}, ErrNodeClosed
	}
	if n.peers[p.id] != p {
		// Evicted or replaced since the candidates were read: its
		// eviction stripped the waiters it could, and one registered
		// now would wait for a Result its closed link cannot carry.
		n.mu.Unlock()
		waiterPool.Put(w)
		return core.Handle{}, &PeerLostError{Peer: p.id, Cause: errPeerGone}
	}
	n.jobW[enc] = w
	n.pending[p.id]++
	n.net.JobsDelegated++
	n.mu.Unlock()
	defer n.pendingDec(p.id)
	pushed := pushPool.Get().(*[]proto.PushedObject)
	*pushed = n.pushSet(p.id, deps, (*pushed)[:0])

	t := obsv.FromContext(ctx)
	var traceID string
	if t != nil {
		traceID = t.ID
	}
	sp := t.StartSpan("delegate", p.id)
	err := p.send(&proto.Message{
		Type:   proto.TypeJob,
		From:   n.id,
		Handle: enc,
		Hops:   uint8(hopsOf(ctx) + 1),
		Trace:  traceID,
		Pushed: *pushed,
	})
	clear(*pushed) // the pool must not pin object bytes
	*pushed = (*pushed)[:0]
	pushPool.Put(pushed)
	if err != nil {
		n.dropJobWaiter(enc, w)
		return core.Handle{}, &PeerLostError{Peer: p.id, Cause: err}
	}
	select {
	case res := <-w.ch:
		waiterPool.Put(w)
		sp.End()
		if res.evalNS > 0 {
			// The worker reports its eval wall time in the Result header;
			// attribute it so the delegate span decomposes into transit
			// plus remote compute.
			t.AddSpanDur("remote_eval", p.id, time.Duration(res.evalNS))
		}
		if res.err == nil && !res.result.IsLiteral() {
			n.mu.Lock()
			n.viewAddLocked(res.result, p.id)
			n.mu.Unlock()
		}
		return res.result, res.err
	case <-ctx.Done():
		n.dropJobWaiter(enc, w)
		return core.Handle{}, ctx.Err()
	}
}

// pendingDec drops one in-flight count for id, tolerating the entry
// having been purged by an eviction in the meantime.
func (n *Node) pendingDec(id string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if v, ok := n.pending[id]; ok {
		if v <= 1 {
			delete(n.pending, id)
		} else {
			n.pending[id] = v - 1
		}
	}
}

// dropJobWaiter takes w out of jobW, if a delivery has not already.
func (n *Node) dropJobWaiter(enc core.Handle, w *jobWaiter) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.jobW[enc] == w {
		delete(n.jobW, enc)
	}
}

// pushSet gathers the definition closure objects worth shipping with a
// job: Trees (the invocation descriptions themselves) and small Blobs the
// target is not known to hold, appended to out. Shipping dependency
// information with the job is what lets Fixpoint avoid scheduler round
// trips (section 4.2.1).
func (n *Node) pushSet(target string, deps []store.Dep, out []proto.PushedObject) []proto.PushedObject {
	const (
		maxObjects = 8192
		maxBytes   = 8 << 20
	)
	var total int
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, d := range deps {
		if len(out) >= maxObjects || total >= maxBytes {
			break
		}
		if n.view.Holds(d.Handle, target) {
			continue
		}
		isTree := d.Handle.Kind() == core.KindTree
		if !isTree && d.Size > pushLimit {
			continue
		}
		data, err := n.st.ObjectBytes(d.Handle)
		if err != nil {
			continue
		}
		out = append(out, proto.PushedObject{Handle: d.Handle, Data: data})
		total += len(data)
		n.viewAddLocked(d.Handle, target) // optimistic: it will have it
	}
	return out
}

// pushPool recycles pushSet's slices. It holds pointers: putting a slice
// value would box its header on every call.
var pushPool = sync.Pool{New: func() any { return new([]proto.PushedObject) }}
