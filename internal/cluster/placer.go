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

// dep is one object a job's execution would need resident.
type dep struct {
	h    core.Handle
	size uint64
}

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
	if rec, ok := receivedOf(ctx); ok && rec == enc {
		return core.Handle{}, false, nil
	}
	if !n.anyWorkerPeer() {
		if n.opts.ClientOnly {
			return core.Handle{}, true, ErrNoWorkers
		}
		return core.Handle{}, false, nil
	}
	w, hint, ok := n.jobDeps(enc)
	if !ok {
		return core.Handle{}, false, nil
	}
	defer w.release()
	deps := w.deps
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
		var lost *PeerLostError
		if err == nil || !errors.As(err, &lost) {
			// Success, or a deterministic remote failure (the job itself
			// errored): re-running elsewhere would fail the same way.
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
// Thunk and collects the data objects its execution will need in w.deps.
// It returns ok=false when the definition itself is not local (the job
// cannot be priced, so it runs here and fetching sorts it out). The walk
// comes from a reuse pool: the caller releases it once done with w.deps.
func (n *Node) jobDeps(enc core.Handle) (w *depWalk, hint uint64, ok bool) {
	thunk, err := core.EncodedThunk(enc)
	if err != nil {
		return nil, 0, false
	}
	def, err := core.ThunkDefinition(thunk)
	if err != nil {
		return nil, 0, false
	}
	if !def.IsLiteral() && !n.st.Contains(def) {
		return nil, 0, false
	}
	w = acquireWalk(n.st)
	w.walk(def)

	// The limits entry hints the output size (section 4.2.2). Encoded
	// limits are always a literal, read in place.
	if entries, err := n.st.Tree(def); err == nil && len(entries) > 0 {
		if lim, err := core.DecodeLimits(entries[0].LiteralView()); err == nil {
			hint = lim.OutputSizeHint
		}
	}
	return w, hint, true
}

// depWalk is jobDeps's traversal state. deps doubles as the visited set
// while the closure is small (the common case: an invocation tree, a
// function and a few arguments); seen takes over once scanning deps would
// cost more than a map.
type depWalk struct {
	st   *store.Store
	deps []dep
	seen map[core.Handle]struct{}
}

// depScanMax is the closure size up to which depWalk scans deps.
const depScanMax = 16

// Bounds of the walk pool: how many idle walks it keeps, and the largest
// closure whose deps slice it keeps for reuse.
const (
	maxIdleWalks  = 64
	maxPooledDeps = 4096
)

// walks is the pool of idle depWalks, last-in first-out like runtime.Go's
// parked workers. A sync.Pool would do, except that it drops Puts at
// random under the race detector, and then pricing allocates there.
var walks struct {
	sync.Mutex
	idle []*depWalk
}

func acquireWalk(st *store.Store) *depWalk {
	walks.Lock()
	var w *depWalk
	if k := len(walks.idle); k > 0 {
		w = walks.idle[k-1]
		walks.idle = walks.idle[:k-1]
	}
	walks.Unlock()
	if w == nil {
		w = &depWalk{deps: make([]dep, 0, 8)}
	}
	w.st = st
	return w
}

// release returns w to the pool. Neither w nor its deps may be used after.
func (w *depWalk) release() {
	if cap(w.deps) > maxPooledDeps {
		return
	}
	w.st = nil // an idle walk must not pin a store
	w.deps = w.deps[:0]
	clear(w.seen)
	walks.Lock()
	if len(walks.idle) < maxIdleWalks {
		walks.idle = append(walks.idle, w)
	}
	walks.Unlock()
}

func (w *depWalk) walk(h core.Handle) {
	switch h.RefKind() {
	case core.RefThunk, core.RefEncode:
		// The deferred computation's definition is itself a
		// dependency of running the job here or anywhere.
		var inner core.Handle
		if h.RefKind() == core.RefEncode {
			t, _ := core.EncodedThunk(h)
			inner, _ = core.ThunkDefinition(t)
		} else {
			inner, _ = core.ThunkDefinition(h)
		}
		w.walk(inner)
	case core.RefObject:
		k := h.AsObject()
		if k.IsLiteral() || !w.firstVisit(k) {
			return
		}
		size := k.Size()
		if k.Kind() == core.KindTree {
			size *= core.HandleSize
		}
		w.deps = append(w.deps, dep{h: k, size: size})
		if k.Kind() == core.KindTree && w.st.Contains(k) {
			children, err := w.st.Tree(k)
			if err == nil {
				for _, c := range children {
					w.walk(c)
				}
			}
		}
	default:
		// Refs are shallow dependencies: not needed to run.
	}
}

// firstVisit reports whether k has not been collected yet. The caller
// appends k to deps when it has not.
func (w *depWalk) firstVisit(k core.Handle) bool {
	// An empty seen means the map has not taken over in this walk; a
	// pooled walk keeps the cleared map of an earlier one.
	if len(w.seen) == 0 && len(w.deps) < depScanMax {
		for i := range w.deps {
			if w.deps[i].h == k {
				return false
			}
		}
		return true
	}
	if len(w.seen) == 0 {
		if w.seen == nil {
			w.seen = make(map[core.Handle]struct{}, 4*depScanMax)
		}
		for i := range w.deps {
			w.seen[w.deps[i].h] = struct{}{}
		}
	}
	if _, ok := w.seen[k]; ok {
		return false
	}
	w.seen[k] = struct{}{}
	return true
}

// pick chooses the placement. With NoLocality it is uniform random
// (the Fig. 8b ablation); otherwise minimal data movement with a
// deterministic pseudo-random tie-break so equal-cost jobs spread.
func (n *Node) pick(enc core.Handle, candidates []string, deps []dep, hint uint64) string {
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
		held := n.view.Holders(keyOf(d.h))
		local := withSelf && n.st.Contains(d.h)
		for i := range prices {
			p := &prices[i]
			has := local
			if !p.self {
				has = held.Has(p.id)
			}
			if !has {
				p.cost += d.size
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
func (n *Node) delegate(ctx context.Context, p *peer, enc core.Handle, deps []dep) (core.Handle, error) {
	pushed := n.pushSet(p.id, enc, deps)
	w := &jobWaiter{ch: make(chan jobResult, 1), peerID: p.id}
	n.mu.Lock()
	n.jobW[enc] = append(n.jobW[enc], w)
	n.pending[p.id]++
	n.net.JobsDelegated++
	n.mu.Unlock()
	defer n.pendingDec(p.id)

	t := obsv.FromContext(ctx)
	var traceID string
	if t != nil {
		traceID = t.ID
	}
	sp := t.StartSpan("delegate", p.id)
	msg := &proto.Message{
		Type:   proto.TypeJob,
		From:   n.id,
		Handle: enc,
		Hops:   uint8(hopsOf(ctx) + 1),
		Trace:  traceID,
		Pushed: pushed,
	}
	if err := p.send(msg); err != nil {
		n.dropJobWaiter(enc, w)
		return core.Handle{}, &PeerLostError{Peer: p.id, Cause: err}
	}
	select {
	case res := <-w.ch:
		sp.End()
		if res.evalNS > 0 {
			// The worker reports its eval wall time in the Result header;
			// attribute it so the delegate span decomposes into transit
			// plus remote compute.
			t.AddSpanDur("remote_eval", p.id, time.Duration(res.evalNS))
		}
		if res.err == nil && !keyOf(res.result).IsLiteral() {
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

func (n *Node) dropJobWaiter(enc core.Handle, w *jobWaiter) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ws := n.jobW[enc]
	for i, cand := range ws {
		if cand == w {
			n.jobW[enc] = append(ws[:i], ws[i+1:]...)
			break
		}
	}
	if len(n.jobW[enc]) == 0 {
		delete(n.jobW, enc)
	}
}

// pushSet gathers the definition closure objects worth shipping with a
// job: Trees (the invocation descriptions themselves) and small Blobs the
// target is not known to hold. Shipping dependency information with the
// job is what lets Fixpoint avoid scheduler round trips (section 4.2.1).
func (n *Node) pushSet(target string, enc core.Handle, deps []dep) []proto.PushedObject {
	const (
		maxObjects = 8192
		maxBytes   = 8 << 20
	)
	var out []proto.PushedObject
	var total int
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, d := range deps {
		if len(out) >= maxObjects || total >= maxBytes {
			break
		}
		if n.view.Holds(keyOf(d.h), target) {
			continue
		}
		isTree := d.h.Kind() == core.KindTree
		if !isTree && d.size > pushLimit {
			continue
		}
		data, err := n.st.ObjectBytes(d.h)
		if err != nil {
			continue
		}
		if out == nil {
			out = make([]proto.PushedObject, 0, min(len(deps), maxObjects))
		}
		out = append(out, proto.PushedObject{Handle: d.h, Data: data})
		total += len(data)
		n.viewAddLocked(d.h, target) // optimistic: it will have it
	}
	return out
}
