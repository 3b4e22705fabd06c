package objstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"fixgo/internal/core"
)

// testKeys derives a deterministic spread of handle keys.
func testKeys(n int) []core.Handle {
	out := make([]core.Handle, n)
	for i := range out {
		out[i] = core.BlobHandle([]byte(fmt.Sprintf("ring-test-key-%d-%d", i, i*7)))
	}
	return out
}

// TestRingDeterministic pins the property replication correctness rests
// on: any two nodes with the same membership view compute identical
// owner lists for every key, regardless of the order the members were
// listed in.
func TestRingDeterministic(t *testing.T) {
	ids := []string{"w0", "w1", "w2", "w3", "w4"}
	keys := testKeys(500)
	base := NewRing(ids, 0)
	for trial := 0; trial < 10; trial++ {
		shuffled := append([]string(nil), ids...)
		rng := rand.New(rand.NewSource(int64(trial)))
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		other := NewRing(shuffled, 0)
		for _, k := range keys {
			for r := 1; r <= 3; r++ {
				a, b := base.Owners(k, r), other.Owners(k, r)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("trial %d: Owners(%v, %d) differ across member orderings: %v vs %v", trial, k, r, a, b)
				}
			}
		}
	}
}

// TestRingOwnersDistinct checks the owner-list contract: R distinct
// members (all of them when fewer exist), primary first.
func TestRingOwnersDistinct(t *testing.T) {
	r := NewRing([]string{"a", "b", "c"}, 0)
	for _, k := range testKeys(200) {
		for want := 1; want <= 5; want++ {
			owners := r.Owners(k, want)
			if len(owners) != min(want, 3) {
				t.Fatalf("Owners(%v, %d) = %d entries, want %d", k, want, len(owners), min(want, 3))
			}
			seen := make(map[string]bool)
			for _, id := range owners {
				if seen[id] {
					t.Fatalf("Owners(%v, %d) repeats %s: %v", k, want, id, owners)
				}
				seen[id] = true
			}
			if owners[0] != r.Primary(k) {
				t.Fatalf("Primary(%v) = %s, owner list starts with %s", k, r.Primary(k), owners[0])
			}
		}
	}
}

// TestRingMinimalDisruption pins consistent hashing's reason to exist:
// removing one member only remaps keys whose owner list actually
// contained it. Every other key keeps its exact owner list, so repair
// after an eviction touches only the objects that lost a replica.
func TestRingMinimalDisruption(t *testing.T) {
	ids := []string{"w0", "w1", "w2", "w3", "w4"}
	keys := testKeys(2000)
	const r = 2
	full := NewRing(ids, 0)
	for _, removed := range ids {
		var rest []string
		for _, id := range ids {
			if id != removed {
				rest = append(rest, id)
			}
		}
		shrunk := NewRing(rest, 0)
		remapped := 0
		for _, k := range keys {
			before := full.Owners(k, r)
			after := shrunk.Owners(k, r)
			contained := false
			for _, id := range before {
				if id == removed {
					contained = true
				}
			}
			if !contained {
				if !reflect.DeepEqual(before, after) {
					t.Fatalf("remove %s: key %v did not own it but remapped %v → %v", removed, k, before, after)
				}
				continue
			}
			remapped++
			for _, id := range after {
				if id == removed {
					t.Fatalf("remove %s: still an owner of %v: %v", removed, k, after)
				}
			}
			// The surviving owners keep their slots; only the removed
			// member's slot is re-filled (suffix owners may shift up).
			var survivors []string
			for _, id := range before {
				if id != removed {
					survivors = append(survivors, id)
				}
			}
			for i, id := range survivors {
				if after[i] != id {
					t.Fatalf("remove %s: surviving owner order of %v changed: %v → %v", removed, k, before, after)
				}
			}
		}
		// Sanity: with 5 members and R=2, roughly 2/5 of keys held the
		// removed member somewhere in their list. Allow wide slack.
		if frac := float64(remapped) / float64(len(keys)); frac < 0.2 || frac > 0.6 {
			t.Errorf("remove %s: %.2f of keys remapped, expected ≈0.4", removed, frac)
		}
	}
}

// TestRingSpread checks that virtual nodes spread primary ownership
// within sane bounds — no member starves or dominates.
func TestRingSpread(t *testing.T) {
	ids := []string{"w0", "w1", "w2", "w3"}
	r := NewRing(ids, 0)
	counts := make(map[string]int)
	keys := testKeys(8000)
	for _, k := range keys {
		counts[r.Primary(k)]++
	}
	for _, id := range ids {
		frac := float64(counts[id]) / float64(len(keys))
		if frac < 0.10 || frac > 0.45 {
			t.Errorf("member %s owns %.2f of keys (counts %v), expected ≈0.25", id, frac, counts)
		}
	}
}

// TestRingEdgeCases covers the degenerate shapes the node hits during
// boot and teardown: empty ring, single member, duplicate ids.
func TestRingEdgeCases(t *testing.T) {
	empty := NewRing(nil, 0)
	if got := empty.Owners(testKeys(1)[0], 2); got != nil {
		t.Fatalf("empty ring Owners = %v, want nil", got)
	}
	if empty.Primary(testKeys(1)[0]) != "" {
		t.Fatal("empty ring Primary should be empty")
	}
	solo := NewRing([]string{"only"}, 0)
	if got := solo.Owners(testKeys(1)[0], 3); len(got) != 1 || got[0] != "only" {
		t.Fatalf("solo ring Owners = %v", got)
	}
	dup := NewRing([]string{"a", "a", "b", ""}, 0)
	if dup.Len() != 2 {
		t.Fatalf("dup ring Len = %d, want 2", dup.Len())
	}
}

// TestReplicaTracker exercises the passive-view bookkeeping the cluster
// node delegates here: add/remove/holders, owner purges, and counts.
func TestReplicaTracker(t *testing.T) {
	keys := testKeys(3)
	tr := NewReplicaTracker()
	tr.Add(keys[0], "w0")
	tr.Add(keys[0], "w1")
	tr.Add(keys[1], "w0")
	if !tr.Holds(keys[0], "w1") || tr.Holds(keys[2], "w0") {
		t.Fatal("Holds mismatch")
	}
	if got := tr.Owners(keys[0]); !reflect.DeepEqual(got, []string{"w0", "w1"}) {
		t.Fatalf("Owners = %v", got)
	}
	if tr.Count(keys[0]) != 2 || tr.Count(keys[2]) != 0 {
		t.Fatal("Count mismatch")
	}
	if dropped := tr.DropOwner("w0"); dropped != 2 {
		t.Fatalf("DropOwner dropped %d keys, want 2", dropped)
	}
	if tr.Holds(keys[0], "w0") || tr.Holds(keys[1], "w0") {
		t.Fatal("dropped owner still held")
	}
	if len(tr.byKey) != 1 {
		t.Fatalf("Len = %d, want 1 (key1's only holder dropped)", len(tr.byKey))
	}
	tr.Remove(keys[0], "w1")
	if len(tr.byKey) != 0 {
		t.Fatalf("Len = %d, want 0", len(tr.byKey))
	}
}

// TestReplicaTrackerAddAllocs pins the view update behind every pushed
// object and replica ack (ROADMAP 2 Part D): a second holder of a known
// key, and a holder already recorded, allocate nothing.
func TestReplicaTrackerAddAllocs(t *testing.T) {
	keys := testKeys(256)
	tr := NewReplicaTracker()
	for _, k := range keys {
		tr.Add(k, "w0")
	}
	i := 0
	allocs := testing.AllocsPerRun(len(keys)-1, func() {
		tr.Add(keys[i], "w1")
		tr.Add(keys[i], "w0")
		i++
	})
	if allocs != 0 {
		t.Fatalf("Add of a second owner allocates %v times, want 0", allocs)
	}
	if got := tr.Owners(keys[0]); !reflect.DeepEqual(got, []string{"w0", "w1"}) {
		t.Fatalf("Owners = %v", got)
	}
}

// Primary returns the key's first owner ("" on an empty ring).
func (r *Ring) Primary(key core.Handle) string {
	o := r.Owners(key, 1)
	if len(o) == 0 {
		return ""
	}
	return o[0]
}
