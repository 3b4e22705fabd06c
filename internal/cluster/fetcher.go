package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"fixgo/internal/core"
	"fixgo/internal/obsv"
	"fixgo/internal/proto"
)

// clusterFetcher implements runtime.Fetcher over the peer network. The
// owner walk is tiered: with replication on, the consistent-hash ring's
// owner list comes first (replicas are placed there deterministically,
// so any node can locate a copy it was never told about — including one
// re-placed by repair after the advertised holder died); then the peers
// the passive view locates the object on; then every remaining peer (the
// view advances passively and may lag); finally the node's storage
// tier, when SetTier attached one.
type clusterFetcher struct {
	n *Node
}

func (f *clusterFetcher) Fetch(ctx context.Context, h core.Handle) ([]byte, error) {
	n := f.n
	k := h.AsObject()
	defer obsv.FromContext(ctx).StartSpan("object_fetch", "").End()

	// Single-flight: join an in-progress fetch if one exists. The wait
	// carries the fetched bytes: re-reading the hot store here would race
	// with a demotion pass evicting the freshly promoted copy. A leader
	// that gave up on its own context does not fail a joiner whose
	// context is live: the joiner looks again, and leads if nobody does.
	n.mu.Lock()
	for w, ok := n.fetchW[k]; ok; w, ok = n.fetchW[k] {
		n.mu.Unlock()
		select {
		case <-w.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if leaderGaveUp(ctx, w.err) {
			n.mu.Lock()
			continue
		}
		if w.err != nil {
			return nil, w.err
		}
		if w.data != nil {
			return w.data, nil
		}
		return n.st.ObjectBytes(k)
	}
	w := &fetchWait{done: make(chan struct{}), miss: make(chan string, 16)}
	n.fetchW[k] = w
	// Tier 1: the ring's owner list — the canonical replica placement,
	// consulted only with replication on (at R=1 nothing is ring-placed,
	// so asking the primary first would waste a round trip).
	var ringOwners []string
	if n.opts.Replicas > 1 {
		ringOwners = n.ring.Owners(k, n.opts.Replicas)
	}
	// Tier 2: the passive view's believed holders (already sorted).
	viewOwners := n.view.Owners(k)
	peerByID := make(map[string]*peer, len(n.peers))
	for id, p := range n.peers {
		peerByID[id] = p
	}
	n.mu.Unlock()
	// Tier 3: every remaining peer — the view advances passively and may
	// lag objects created after the Hello exchange (e.g. a client
	// uploading a job's inputs).
	rest := make([]string, 0, len(peerByID))
	for id := range peerByID {
		rest = append(rest, id)
	}
	sort.Strings(rest)
	owners := make([]string, 0, len(ringOwners)+len(viewOwners)+len(rest))
	tried := make(map[string]bool, cap(owners))
	for _, tier := range [][]string{ringOwners, viewOwners, rest} {
		for _, id := range tier {
			if id == n.id || tried[id] {
				continue
			}
			tried[id] = true
			owners = append(owners, id)
		}
	}

	data, err := f.run(ctx, k, w, owners, peerByID)
	if err != nil {
		n.completeFetch(k, nil, err)
		return nil, err
	}
	return data, nil
}

// leaderGaveUp reports whether err is a context error that is not the
// caller's own: ctx is still live.
func leaderGaveUp(ctx context.Context, err error) bool {
	return ctx.Err() == nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// run walks the owner tiers and returns the object's bytes. Every success
// path hands the bytes both to the store (promotion) and to the fetch
// wait, so neither this caller nor any joiner re-reads the store after
// completion.
func (f *clusterFetcher) run(ctx context.Context, k core.Handle, w *fetchWait, owners []string, peerByID map[string]*peer) ([]byte, error) {
	n := f.n
	var traceID string
	if t := obsv.FromContext(ctx); t != nil {
		traceID = t.ID
	}
	for _, owner := range owners {
		p := peerByID[owner]
		if p == nil {
			continue
		}
		if err := p.send(&proto.Message{Type: proto.TypeRequest, From: n.id, Handle: k, Trace: traceID}); err != nil {
			continue
		}
		for {
			select {
			case <-w.done:
				return w.data, w.err
			case from := <-w.miss:
				if from == owner {
					// This owner no longer has it; try the next.
				} else {
					continue // stale miss from an earlier owner
				}
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			break
		}
		// Check whether the object arrived through another path (e.g.
		// pushed alongside a job) while we were waiting.
		if data, err := n.st.ObjectBytes(k); err == nil {
			n.completeFetch(k, data, nil)
			return data, nil
		}
	}
	// Final hop: the cold storage tier. A demoted object (or one whose
	// every hot holder died) is recovered from here and promoted back
	// into the hot store.
	if tier := n.tier.store; tier != nil {
		data, err := tier.Get(ctx, k)
		if err == nil {
			if err := n.st.PutObject(k, data); err != nil {
				return nil, err
			}
			n.tier.fetches.Add(1)
			n.touch(k)
			n.completeFetch(k, data, nil)
			return data, nil
		}
		n.tier.fetchMisses.Add(1)
	}
	if err := ctx.Err(); err != nil {
		return nil, err // gave up, which is not a miss
	}
	return nil, fmt.Errorf("cluster: object %v not found on any of %d known owners", k, len(owners))
}
