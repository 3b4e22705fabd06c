package cluster

import (
	"sort"

	"fixgo/internal/core"
	"fixgo/internal/objstore"
	"fixgo/internal/proto"
)

// This file is the node's replicated-placement machinery: the
// consistent-hash ring over the live membership, the asynchronous R-way
// write replication behind PutBlob/PutTree/eval outputs, and the
// anti-entropy repair pass that re-establishes R copies after the
// membership changes. The ring (objstore.Ring) is the single placement
// authority: the same structure orders the fetcher's owner walk
// (fetcher.go), chooses replication targets here, and decides which
// objects a repair pass must re-push.

// rebuildRingLocked recomputes the placement ring, and the placer's
// candidate snapshot, from the current live membership: every worker
// peer, plus this node unless it is client-only. Callers hold n.mu and
// call it wherever the worker membership changes. Ring membership is
// derived independently on every node, so two nodes agree on placement
// exactly when they agree on which workers are alive — after a partition
// heals, repair passes reconverge the replica placement. The snapshot
// (targets, workers) is never mutated once built, so a placement reads
// it without copying.
func (n *Node) rebuildRingLocked() {
	ids := make([]string, 0, len(n.peers)+1)
	workers := make(map[string]*peer, len(n.peers))
	for id, p := range n.peers {
		if p.role == proto.RoleWorker {
			ids = append(ids, id)
			workers[id] = p
		}
	}
	if !n.opts.ClientOnly {
		ids = append(ids, n.id)
	}
	sort.Strings(ids)
	n.targets, n.workers = ids, workers
	n.ring = objstore.NewRing(ids, objstore.DefaultVnodes)
}

// Ring returns the node's current placement ring (rebuilt on every
// membership change; the returned Ring itself is immutable).
func (n *Node) Ring() *objstore.Ring {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ring
}

// RingOwners returns the ordered ring owner list for h at the node's
// replication factor — where the object is canonically placed once
// written and repaired.
func (n *Node) RingOwners(h core.Handle) []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ring.Owners(h.AsObject(), n.opts.Replicas)
}

// ReplicaCount reports how many copies of h this node can account for:
// one if locally resident, plus every peer the passive view believes
// holds it. It is a lower bound (the view is passive), used by tests and
// the replication bench to watch repair convergence.
func (n *Node) ReplicaCount(h core.Handle) int {
	k := h.AsObject()
	count := 0
	if n.st.Contains(k) && !k.IsLiteral() {
		count++
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return count + n.view.Count(k)
}

// replicaTargetsLocked returns the peers a copy of k must be pushed to:
// walk the ring's owner list, budget R−1 slots for owners other than
// this node, and skip owners the view already shows holding a copy
// (their slot is already satisfied — re-pushing would be pure
// overhead). Callers hold n.mu.
func (n *Node) replicaTargetsLocked(k core.Handle) []*peer {
	need := n.opts.Replicas - 1
	if need <= 0 {
		return nil
	}
	var out []*peer
	for _, id := range n.ring.Owners(k, n.opts.Replicas) {
		if need == 0 {
			break
		}
		if id == n.id {
			continue
		}
		need--
		if n.view.Holds(k, id) {
			continue
		}
		if p := n.peers[id]; p != nil {
			out = append(out, p)
		}
	}
	return out
}

// replicate pushes local copies of the given handles to their ring
// successors, asynchronously: targets are chosen and counted under the
// node lock, sends happen on a goroutine so a slow replica link never
// blocks the write path (the writer's synchronous local copy is the
// durability floor; the R−1 pushes converge behind it). repair marks
// sends triggered by an anti-entropy pass for the stats split. traceID,
// when non-empty, stamps each Replicate message with the trace that
// produced the objects (eval outputs), so replica holders can attribute
// the ingest; repair and standalone uploads pass "".
func (n *Node) replicate(handles []core.Handle, repair bool, traceID string) {
	if n.opts.Replicas <= 1 || len(handles) == 0 || n.isClosed() {
		return
	}
	type push struct {
		p    *peer
		k    core.Handle
		data []byte
	}
	var pushes []push
	// The node lock is taken per handle, never across the loop: a repair
	// pass walks the entire local store, and holding n.mu for the whole
	// walk would stall placement, fetch completion, and message handling
	// exactly during the post-eviction window they are needed most.
	// Object bytes are read outside n.mu (the store has its own lock).
	for _, h := range handles {
		k := h.AsObject()
		if k.IsLiteral() {
			continue
		}
		n.mu.Lock()
		targets := n.replicaTargetsLocked(k)
		n.mu.Unlock()
		if len(targets) == 0 {
			continue
		}
		data, err := n.st.ObjectBytes(k)
		if err != nil {
			continue // not locally resident (e.g. a literal-only ref)
		}
		n.mu.Lock()
		for _, p := range targets {
			pushes = append(pushes, push{p: p, k: k, data: data})
			if repair {
				n.net.RepairReplicasSent++
			} else {
				n.net.ReplicasSent++
			}
		}
		n.mu.Unlock()
	}
	if len(pushes) == 0 {
		return
	}
	go func() {
		for _, ps := range pushes {
			// A send error means the target died mid-push; its eviction
			// triggers the next repair pass, which re-covers this key.
			_ = ps.p.send(&proto.Message{Type: proto.TypeReplicate, From: n.id, Handle: ps.k, Trace: traceID, Data: ps.data})
		}
	}()
}

// repairKick schedules an anti-entropy repair pass in response to a
// membership change. No-op with replication off or after Close.
func (n *Node) repairKick() {
	if n.opts.Replicas <= 1 || n.isClosed() {
		return
	}
	go n.repairPass()
}

// repairPass walks every locally resident object and re-pushes copies to
// ring successors not known to hold one. Each node repairs the objects
// it holds: as long as any copy of an object survives a membership
// change, some holder's pass re-establishes R copies on the new ring.
// The pass is idempotent (pushes are content-addressed and targets
// already holding a copy are skipped), so concurrent passes from
// overlapping membership changes only cost duplicate sends, never
// divergence.
func (n *Node) repairPass() {
	var handles []core.Handle
	n.st.ForEach(func(h core.Handle, size uint64) { handles = append(handles, h) })
	n.mu.Lock()
	n.net.RepairPasses++
	n.mu.Unlock()
	n.replicate(handles, true, "")
}
