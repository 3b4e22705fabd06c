package cluster

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"fixgo/internal/core"
	"fixgo/internal/storage"
)

// This file wires the tiered-storage spill path into the node. With a
// tier attached by SetTier, the node gains a cold tier under its hot
// in-memory store: an anti-entropy demotion pass uploads cold objects to
// the tier and evicts the hot copy once the tier's remote side confirms
// it, and the fetcher's miss path (fetcher.go) ends with a tier lookup so
// a demoted object — or one whose every hot holder died — is always
// recoverable. A tier fetch re-inserts the object into the hot store and
// refreshes its access time: that is the promotion half of the lifecycle.

// tierState is the node's spill tier with its demotion bookkeeping:
// last-access times for resident objects and the spill counters merged
// into StorageStats.
type tierState struct {
	store storage.Storage // nil: no tiering; set once, by SetTier

	mu        sync.Mutex
	lastTouch map[core.Handle]time.Time

	demoted      atomic.Uint64
	demotePasses atomic.Uint64
	fetches      atomic.Uint64
	fetchMisses  atomic.Uint64
}

// touch records an access to h so the demotion pass sees it as hot. It is
// called on every write, ingest, serve, and fetch of an object; objects
// the node produced internally (eval outputs) are first-sight-stamped by
// the next demotion pass instead, which gives them a full idle window
// too.
func (n *Node) touch(h core.Handle) {
	if n.tier.store == nil {
		return
	}
	k := h.AsObject()
	if k.IsLiteral() {
		return
	}
	n.tier.mu.Lock()
	n.tier.lastTouch[k] = time.Now()
	n.tier.mu.Unlock()
}

// SetTier attaches the node's cold storage tier (internal/storage): the
// demotion pass spills cold objects into it and the fetcher's miss path
// ends with a tier lookup. The caller owns the tier's lifecycle; Close
// does not close it. Attaching after construction is what the boot
// paths need: in hybrid mode the tier's local side is the durable
// store, which attaches to the node's runtime store only after NewNode
// returns. It must be called at most once, before the node starts
// serving peers or jobs — tier reads are unsynchronized against it.
// When demoteAfter is positive, one demotion loop starts here: every
// demoteAfter/2 it demotes the objects idle for demoteAfter. With zero,
// the tier only serves fetch misses and DemotePass runs when called.
func (n *Node) SetTier(tier storage.Storage, demoteAfter time.Duration) {
	if tier == nil {
		return
	}
	n.tier.store = tier
	if demoteAfter > 0 {
		go n.demoteLoop(demoteAfter)
	}
}

// demoteLoop runs a demotion pass every demoteAfter/2 until Close.
func (n *Node) demoteLoop(demoteAfter time.Duration) {
	t := time.NewTicker(demoteAfter / 2)
	defer t.Stop()
	for {
		select {
		case <-n.done:
			return
		case now := <-t.C:
			n.DemotePass(context.Background(), now.Add(-demoteAfter))
		}
	}
}

// DemotePass runs one anti-entropy demotion sweep: every resident object
// not accessed since cutoff is uploaded to the tier, buffered tier
// writes are flushed, and the hot copy is evicted only after the tier's
// remote side confirms it holds the object. With replication on, objects
// this node cannot account R copies of are skipped — the repair pass gets
// to re-establish replicas before demotion thins holders. Pinned objects
// survive (store.Evict refuses them). It returns the number of hot copies
// evicted. An object the pass sees for the first time is stamped as
// accessed now. The loop calls it on a ticker; tests and operators may
// call it directly.
func (n *Node) DemotePass(ctx context.Context, cutoff time.Time) int {
	tier := n.tier.store
	if tier == nil || n.isClosed() {
		return 0
	}
	now := time.Now()
	resident := make(map[core.Handle]struct{})
	var all []core.Handle
	n.st.ForEach(func(h core.Handle, size uint64) {
		resident[h] = struct{}{}
		all = append(all, h)
	})

	var cold []core.Handle
	n.tier.mu.Lock()
	// Prune bookkeeping for objects that left the store by other means.
	for h := range n.tier.lastTouch {
		if _, ok := resident[h]; !ok {
			delete(n.tier.lastTouch, h)
		}
	}
	for _, h := range all {
		t, ok := n.tier.lastTouch[h]
		if !ok {
			// First sight: stamp it and give it a full window.
			n.tier.lastTouch[h] = now
			continue
		}
		if t.Before(cutoff) {
			cold = append(cold, h)
		}
	}
	n.tier.mu.Unlock()

	// Upload every cold object first, then flush once, then confirm and
	// evict — one queue drain covers the whole batch.
	uploaded := cold[:0]
	for _, k := range cold {
		if ctx.Err() != nil {
			break
		}
		if n.opts.Replicas > 1 && n.ReplicaCount(k) < n.opts.Replicas {
			continue
		}
		data, err := n.st.ObjectBytes(k)
		if err != nil {
			continue
		}
		if err := tier.Put(ctx, k, data); err != nil {
			continue
		}
		uploaded = append(uploaded, k)
	}
	if f, ok := tier.(storage.Flusher); ok && len(uploaded) > 0 {
		if err := f.Flush(ctx); err != nil {
			n.tier.demotePasses.Add(1)
			return 0
		}
	}
	demoted := 0
	for _, k := range uploaded {
		ok, err := tierRemoteHas(ctx, tier, k)
		if err != nil || !ok {
			continue
		}
		if n.st.Evict(k) {
			demoted++
			n.tier.mu.Lock()
			delete(n.tier.lastTouch, k)
			n.tier.mu.Unlock()
		}
	}
	n.tier.demoted.Add(uint64(demoted))
	n.tier.demotePasses.Add(1)
	return demoted
}

// tierRemoteHas confirms the durable (remote) side of the tier holds k:
// composite tiers answer through RemoteConfirmer, simple tiers through
// Has.
func tierRemoteHas(ctx context.Context, tier storage.Storage, k core.Handle) (bool, error) {
	if rc, ok := tier.(storage.RemoteConfirmer); ok {
		return rc.RemoteHas(ctx, k)
	}
	return tier.Has(ctx, k)
}

// StorageStats snapshots the node's tier counters merged with the tier's
// own (LFC, remote, upload queue), or nil when the node has no tier.
// The gateway surfaces it at /v1/stats and as the fixgate_storage_*
// families; NewNodeMetrics emits the fixpoint_storage_* twins.
func (n *Node) StorageStats() *storage.Stats {
	tier := n.tier.store
	if tier == nil {
		return nil
	}
	var out storage.Stats
	if p, ok := tier.(storage.StatsProvider); ok {
		out = p.StorageStats()
	}
	out.Demoted += n.tier.demoted.Load()
	out.DemotePasses += n.tier.demotePasses.Load()
	out.TierFetches += n.tier.fetches.Load()
	out.TierFetchMisses += n.tier.fetchMisses.Load()
	return &out
}
