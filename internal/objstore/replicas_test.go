package objstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"fixgo/internal/core"
)

// TestReplicaTrackerManyOwners: a key held by more owners than fit inline
// records, lists and forgets every one of them.
func TestReplicaTrackerManyOwners(t *testing.T) {
	const peers = 72
	keys := testKeys(2)
	tr := NewReplicaTracker()
	var all []string
	for i := 0; i < peers; i++ {
		p := fmt.Sprintf("p%02d", i)
		all = append(all, p)
		tr.Add(keys[0], p)
		tr.Add(keys[0], p) // a repeat changes nothing
		if i%3 == 0 {
			tr.Add(keys[1], p)
		}
	}
	if got := tr.Owners(keys[0]); !reflect.DeepEqual(got, all) || tr.Count(keys[0]) != peers {
		t.Fatalf("Owners = %v (Count %d), want all %d peers in order", got, tr.Count(keys[0]), peers)
	}
	held := tr.Holders(keys[0])
	for _, p := range all {
		if !tr.Holds(keys[0], p) || !held.Has(tr.ID(p)) {
			t.Fatalf("%s not recorded as a holder", p)
		}
	}
	// Forget the even peers one key at a time and the odd ones by eviction.
	for i, p := range all {
		if i%2 == 0 {
			tr.Remove(keys[0], p)
		}
	}
	for i, p := range all {
		if got := tr.Holds(keys[0], p); got != (i%2 == 1) {
			t.Fatalf("after removing the even peers, Holds(%s) = %v", p, got)
		}
	}
	for i, p := range all {
		if i%2 == 1 {
			want := 1
			if i%3 == 0 {
				want = 2
			}
			if dropped := tr.DropOwner(p); dropped != want {
				t.Fatalf("DropOwner(%s) dropped %d keys, want %d", p, dropped, want)
			}
		}
	}
	if tr.Count(keys[0]) != 0 || tr.Count(keys[1]) != peers/6 || len(tr.byKey) != 1 {
		t.Fatalf("Count = %d / %d, Len = %d; want 0 / %d, 1", tr.Count(keys[0]), tr.Count(keys[1]), len(tr.byKey), peers/6)
	}
}

// TestReplicaTrackerReusedIDInheritsNothing: the ID an evicted owner
// frees goes to the next new owner, and nothing the dead owner held
// comes with it.
func TestReplicaTrackerReusedIDInheritsNothing(t *testing.T) {
	keys := testKeys(8)
	tr := NewReplicaTracker()
	for _, k := range keys[:7] {
		tr.Add(k, "dead")
		tr.Add(k, "alive")
	}
	id := tr.ID("dead")
	if dropped := tr.DropOwner("dead"); dropped != 7 {
		t.Fatalf("DropOwner dropped %d keys, want 7", dropped)
	}
	if tr.ID("dead") != NoOwner {
		t.Fatal("a dropped owner keeps its ID")
	}
	tr.Add(keys[7], "newcomer")
	if tr.ID("newcomer") != id {
		t.Fatalf("newcomer got ID %d, want the freed %d", tr.ID("newcomer"), id)
	}
	for _, k := range keys[:7] {
		held := tr.Holders(k)
		if tr.Holds(k, "newcomer") || held.Has(id) {
			t.Fatalf("newcomer inherited %v from the dead owner", k)
		}
		if got := tr.Owners(k); !reflect.DeepEqual(got, []string{"alive"}) {
			t.Fatalf("Owners = %v, want [alive]", got)
		}
	}
	if got := tr.Owners(keys[7]); !reflect.DeepEqual(got, []string{"newcomer"}) {
		t.Fatalf("Owners = %v, want [newcomer]", got)
	}
}

// TestReplicaTrackerMatchesModel drives the tracker and a plain
// map-of-sets through the same seeded Add/Remove/DropOwner sequences,
// over more owners than fit inline, and requires identical answers.
func TestReplicaTrackerMatchesModel(t *testing.T) {
	keys := testKeys(12)
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := NewReplicaTracker()
		model := make(map[core.Handle]map[string]bool)
		owner := func() string { return fmt.Sprintf("w%d", rng.Intn(80)) }
		for step := 0; step < 1000; step++ {
			k, o := keys[rng.Intn(len(keys))], owner()
			switch r := rng.Intn(10); {
			case r < 6:
				tr.Add(k, o)
				if model[k] == nil {
					model[k] = make(map[string]bool)
				}
				model[k][o] = true
			case r < 9:
				tr.Remove(k, o)
				delete(model[k], o)
			default:
				want := 0
				for _, set := range model {
					if set[o] {
						want++
						delete(set, o)
					}
				}
				if got := tr.DropOwner(o); got != want {
					t.Fatalf("seed %d step %d: DropOwner(%s) = %d, want %d", seed, step, o, got, want)
				}
			}
			keysHeld := 0
			for _, k := range keys {
				var want []string
				for o := range model[k] {
					want = append(want, o)
				}
				slices.Sort(want)
				if len(want) > 0 {
					keysHeld++
				}
				if got := tr.Owners(k); !reflect.DeepEqual(got, want) || tr.Count(k) != len(want) {
					t.Fatalf("seed %d step %d: Owners = %v, want %v", seed, step, got, want)
				}
			}
			if o := owner(); tr.Holds(k, o) != model[k][o] {
				t.Fatalf("seed %d step %d: Holds(%s) = %v", seed, step, o, !model[k][o])
			}
			if len(tr.byKey) != keysHeld {
				t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, len(tr.byKey), keysHeld)
			}
		}
	}
}

// TestReplicaTrackerPricingAllocs pins the placer's lookups (ROADMAP 2
// Part D): a candidate's ID, a dependency's holder set, and the
// membership test allocate nothing.
func TestReplicaTrackerPricingAllocs(t *testing.T) {
	keys := testKeys(64)
	tr := NewReplicaTracker()
	for i, k := range keys {
		tr.Add(k, "w0")
		if i%2 == 0 {
			tr.Add(k, "w1")
		}
	}
	held := 0
	allocs := testing.AllocsPerRun(100, func() {
		held = 0
		w1 := tr.ID("w1")
		for _, k := range keys {
			set := tr.Holders(k)
			if set.Has(w1) {
				held++
			}
		}
	})
	if held != len(keys)/2 {
		t.Fatalf("w1 holds %d keys, want %d", held, len(keys)/2)
	}
	if allocs != 0 {
		t.Fatalf("pricing lookups allocate %v times, want 0", allocs)
	}
}
