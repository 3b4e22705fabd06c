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
// Owners are interned: each name gets a small OwnerID, and a key's holders
// live inline in its map value, so recording a holder allocates nothing
// once the key exists. An ID is recycled only after DropOwner has purged
// it from every key, so a new owner never inherits a dead one's entries.
//
// ReplicaTracker is not safe for concurrent use; the owning node guards
// it with its own mutex (the same lock that already orders view updates
// against placement decisions).
type ReplicaTracker struct {
	byKey map[core.Handle]Holders
	ids   map[string]OwnerID
	names []string  // by OwnerID; names[0] is the unused NoOwner slot
	free  []OwnerID // IDs DropOwner released, reused before new ones
}

// OwnerID is an interned owner name. NoOwner (0) names nobody: it is never
// a holder.
type OwnerID uint32

// NoOwner is the ID of an owner the tracker does not know.
const NoOwner OwnerID = 0

// inlineHolders is how many holders fit in a key's map value before the
// rest spill to a slice: a count, five IDs and the spill header make 48
// bytes. A key has a handful of holders at most (its writer, R−1
// replicas, the workers a job was pushed to).
const inlineHolders = 5

// Holders is one key's holder set, as ReplicaTracker stores it. A copy
// read from the tracker is valid until the tracker's next mutation.
type Holders struct {
	n      uint32
	inline [inlineHolders]OwnerID
	spill  []OwnerID // holders past the inline ones
}

// at returns the i-th holder, i < n.
func (s *Holders) at(i int) OwnerID {
	if i < inlineHolders {
		return s.inline[i]
	}
	return s.spill[i-inlineHolders]
}

// set overwrites the i-th holder, i < n.
func (s *Holders) set(i int, id OwnerID) {
	if i < inlineHolders {
		s.inline[i] = id
	} else {
		s.spill[i-inlineHolders] = id
	}
}

// index returns id's position, or -1.
func (s *Holders) index(id OwnerID) int {
	for i := 0; i < int(s.n); i++ {
		if s.at(i) == id {
			return i
		}
	}
	return -1
}

// Has reports whether id is among the holders. Has(NoOwner) is false.
func (s *Holders) Has(id OwnerID) bool { return id != NoOwner && s.index(id) >= 0 }

// add appends id, which the set must not hold yet.
func (s *Holders) add(id OwnerID) {
	if s.n < inlineHolders {
		s.inline[s.n] = id
	} else {
		s.spill = append(s.spill, id)
	}
	s.n++
}

// remove drops id and reports whether it was there. The last holder takes
// its place.
func (s *Holders) remove(id OwnerID) bool {
	i := s.index(id)
	if i < 0 {
		return false
	}
	last := int(s.n) - 1
	s.set(i, s.at(last))
	if last >= inlineHolders {
		s.spill = s.spill[:len(s.spill)-1]
	} else {
		s.inline[last] = NoOwner
	}
	s.n--
	return true
}

// NewReplicaTracker returns an empty tracker.
func NewReplicaTracker() *ReplicaTracker {
	return &ReplicaTracker{
		byKey: make(map[core.Handle]Holders),
		ids:   make(map[string]OwnerID),
		names: []string{""},
	}
}

// ID returns owner's interned ID, or NoOwner when the tracker has never
// recorded owner (or has dropped it since).
func (t *ReplicaTracker) ID(owner string) OwnerID { return t.ids[owner] }

// intern returns owner's ID, assigning one on first sight.
func (t *ReplicaTracker) intern(owner string) OwnerID {
	if id, ok := t.ids[owner]; ok {
		return id
	}
	var id OwnerID
	if n := len(t.free); n > 0 {
		id, t.free = t.free[n-1], t.free[:n-1]
		t.names[id] = owner
	} else {
		id = OwnerID(len(t.names))
		t.names = append(t.names, owner)
	}
	t.ids[owner] = id
	return id
}

// Holders returns key's holder set in one map lookup: the placer prices a
// dependency against every candidate with it.
func (t *ReplicaTracker) Holders(key core.Handle) Holders { return t.byKey[key] }

// Add records that owner holds key.
func (t *ReplicaTracker) Add(key core.Handle, owner string) {
	id := t.intern(owner)
	set := t.byKey[key]
	if set.Has(id) {
		return
	}
	set.add(id)
	t.byKey[key] = set
}

// Remove forgets that owner holds key (e.g. after a Missing reply).
func (t *ReplicaTracker) Remove(key core.Handle, owner string) {
	if id := t.ID(owner); id != NoOwner {
		t.remove(key, t.byKey[key], id)
	}
}

// remove drops id from set, key's holders, deleting the key with its last
// holder, and reports whether id was there.
func (t *ReplicaTracker) remove(key core.Handle, set Holders, id OwnerID) bool {
	if !set.remove(id) {
		return false
	}
	if set.n == 0 {
		delete(t.byKey, key)
	} else {
		t.byKey[key] = set
	}
	return true
}

// Holds reports whether owner is believed to hold key.
func (t *ReplicaTracker) Holds(key core.Handle, owner string) bool {
	set := t.byKey[key]
	return set.Has(t.ID(owner))
}

// Owners lists the believed holders of key, sorted for deterministic
// iteration. The slice is the caller's.
func (t *ReplicaTracker) Owners(key core.Handle) []string {
	set := t.byKey[key]
	if set.n == 0 {
		return nil
	}
	out := make([]string, set.n)
	for i := range out {
		out[i] = t.names[set.at(i)]
	}
	slices.Sort(out)
	return out
}

// Count reports how many remote holders of key are known.
func (t *ReplicaTracker) Count(key core.Handle) int {
	return int(t.byKey[key].n)
}

// DropOwner purges every entry naming owner (the eviction path) and
// reports how many keys lost a replica — the under-replication signal
// that sizes the subsequent repair pass. The owner's ID is then free for
// reuse: no key names it any more.
func (t *ReplicaTracker) DropOwner(owner string) int {
	id := t.ID(owner)
	if id == NoOwner {
		return 0
	}
	dropped := 0
	for key, set := range t.byKey {
		if t.remove(key, set, id) {
			dropped++
		}
	}
	delete(t.ids, owner)
	t.names[id] = ""
	t.free = append(t.free, id)
	return dropped
}

// Len reports how many distinct keys have at least one known holder.
func (t *ReplicaTracker) Len() int { return len(t.byKey) }
