package objstore

import (
	"slices"

	"fixgo/internal/core"
)

// ReplicaTracker records which remote nodes are believed to hold each
// object — the cluster's passive "view", factored out of the node so the
// placer, fetcher, replicator, and repair pass all consult one replica
// map instead of each keeping private bookkeeping.
//
// Entries advance passively (Hello/Advertise adverts, observed
// Replicate/ReplicateAck traffic, pushed job dependencies) and regress on
// eviction (DropOwner) or an observed miss (Remove). The tracker is
// advisory: a fetch treats its answer as a hint ordering, never as
// ground truth.
//
// ReplicaTracker is not safe for concurrent use; the owning node guards
// it with its own mutex (the same lock that already orders view updates
// against placement decisions).
type ReplicaTracker struct {
	// byKey holds each key's owners as a small sorted slice: a key has a
	// handful of holders at most, so a scan beats a per-key map and a new
	// key costs one small allocation instead of a map.
	byKey map[core.Handle][]string
}

// NewReplicaTracker returns an empty tracker.
func NewReplicaTracker() *ReplicaTracker {
	return &ReplicaTracker{byKey: make(map[core.Handle][]string)}
}

// Add records that owner holds key.
func (t *ReplicaTracker) Add(key core.Handle, owner string) {
	set := t.byKey[key]
	i, found := slices.BinarySearch(set, owner)
	if found {
		return
	}
	if set == nil {
		// Room for a second holder (the delegator and a worker, or a
		// writer and its replica) without growing.
		set = make([]string, 0, 2)
	}
	t.byKey[key] = slices.Insert(set, i, owner)
}

// Remove forgets that owner holds key (e.g. after a Missing reply).
func (t *ReplicaTracker) Remove(key core.Handle, owner string) {
	t.remove(key, t.byKey[key], owner)
}

// remove drops owner from set, key's owners, deleting the key with its
// last owner, and reports whether owner was there.
func (t *ReplicaTracker) remove(key core.Handle, set []string, owner string) bool {
	i, found := slices.BinarySearch(set, owner)
	if !found {
		return false
	}
	if len(set) == 1 {
		delete(t.byKey, key)
	} else {
		t.byKey[key] = slices.Delete(set, i, i+1)
	}
	return true
}

// Holds reports whether owner is believed to hold key.
func (t *ReplicaTracker) Holds(key core.Handle, owner string) bool {
	return slices.Contains(t.byKey[key], owner)
}

// Owners lists the believed holders of key, sorted for deterministic
// iteration. The slice is the caller's.
func (t *ReplicaTracker) Owners(key core.Handle) []string {
	set := t.byKey[key]
	if len(set) == 0 {
		return nil
	}
	return slices.Clone(set)
}

// Count reports how many remote holders of key are known.
func (t *ReplicaTracker) Count(key core.Handle) int {
	return len(t.byKey[key])
}

// DropOwner purges every entry naming owner (the eviction path) and
// reports how many keys lost a replica — the under-replication signal
// that sizes the subsequent repair pass.
func (t *ReplicaTracker) DropOwner(owner string) int {
	dropped := 0
	for key, set := range t.byKey {
		if t.remove(key, set, owner) {
			dropped++
		}
	}
	return dropped
}

// Len reports how many distinct keys have at least one known holder.
func (t *ReplicaTracker) Len() int { return len(t.byKey) }
