package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"fixgo/internal/core"
	"fixgo/internal/store"
)

// referencePick is pick's cost model as one formula per (candidate,
// dependency) pair: a view lookup for a peer, a residency check for this
// node. pick prices in one pass and must choose exactly what this does.
func referencePick(n *Node, enc core.Handle, candidates []string, deps []store.Dep, hint uint64) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	best := ""
	var bestCost, bestTie uint64
	for _, cand := range candidates {
		var cost uint64
		for _, d := range deps {
			has := n.view.Holds(d.Handle, cand)
			if cand == n.id {
				has = n.st.Contains(d.Handle)
			}
			if !has {
				cost += d.Size
			}
		}
		if cand != n.id {
			cost += hint
		}
		load := uint64(n.pending[cand])
		if cand == n.id {
			load = uint64(n.eng.InFlight())
		}
		cost += load * loadPenaltyBytes
		tie := tieBreak(enc, cand)
		if best == "" || cost < bestCost || (cost == bestCost && tie < bestTie) {
			best, bestCost, bestTie = cand, cost, tie
		}
	}
	return best
}

// TestPickMatchesReferencePricing runs pick against referencePick on
// seeded random placements. Between cases the view churns: holders come
// and go, peers are evicted (their interned IDs freed) and new peers take
// the freed IDs, objects become resident here and leave. Candidates mix
// live peers, evicted peers, peers the view never saw, and this node.
func TestPickMatchesReferencePricing(t *testing.T) {
	const seeds, casesPerSeed = 40, 30
	sizes := []uint64{0, 31, 600, 4096, 8 << 10, 1 << 20}
	cases := 0
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := NewNode("self", NodeOptions{Cores: 1})
		blobs := make([][]byte, 24)
		handles := make([]core.Handle, len(blobs))
		for i := range blobs {
			blobs[i] = bytes.Repeat([]byte{byte(seed), byte(i)}, 20+i)
			handles[i] = core.BlobHandle(blobs[i])
		}
		names := make([]string, 0, 40)
		for i := 0; i < 12; i++ {
			names = append(names, fmt.Sprintf("w%d", i))
		}
		evicted := map[string]bool{}
		for c := 0; c < casesPerSeed; c++ {
			churn(rng, n, blobs, handles, &names, evicted)

			candidates := []string{}
			for _, name := range append([]string{"self", "never-seen"}, names...) {
				if rng.Intn(3) > 0 {
					candidates = append(candidates, name)
				}
			}
			if len(candidates) == 0 {
				candidates = append(candidates, names[rng.Intn(len(names))])
			}
			rng.Shuffle(len(candidates), func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })

			var deps []store.Dep
			for k := rng.Intn(8); k > 0; k-- {
				h := handles[rng.Intn(len(handles))]
				deps = append(deps, store.Dep{Handle: h.AsObject(), Size: sizes[rng.Intn(len(sizes))]})
			}
			n.mu.Lock()
			for _, cand := range candidates {
				if rng.Intn(4) == 0 {
					n.pending[cand] = rng.Intn(3)
				} else {
					delete(n.pending, cand)
				}
			}
			n.mu.Unlock()
			hint := []uint64{0, 64, 4096, 1 << 20}[rng.Intn(4)]
			var enc core.Handle
			rng.Read(enc[:])

			got := n.pick(enc, candidates, deps, hint)
			if want := referencePick(n, enc, candidates, deps, hint); got != want {
				t.Fatalf("seed %d case %d: pick = %s, reference = %s (candidates %v, %d deps, hint %d)",
					seed, c, got, want, candidates, len(deps), hint)
			}
			cases++
		}
		n.Close()
	}
	if cases < 1000 {
		t.Fatalf("only %d cases compared, want ≥ 1000", cases)
	}
}

// churn applies one random round of view and store changes: holders added
// and removed, a peer evicted now and then (its ID freed), a new peer
// joining (taking a freed ID), and objects stored or evicted here.
func churn(rng *rand.Rand, n *Node, blobs [][]byte, handles []core.Handle, names *[]string, evicted map[string]bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	live := func() string {
		for {
			if name := (*names)[rng.Intn(len(*names))]; !evicted[name] {
				return name
			}
		}
	}
	for k := rng.Intn(20); k > 0; k-- {
		h := handles[rng.Intn(len(handles))].AsObject()
		if rng.Intn(4) == 0 {
			n.view.Remove(h, live())
		} else {
			n.view.Add(h, live())
		}
	}
	if rng.Intn(4) == 0 && len(*names)-len(evicted) > 2 {
		name := live()
		n.view.DropOwner(name)
		evicted[name] = true
	}
	if rng.Intn(4) == 0 {
		name := fmt.Sprintf("late%d", len(*names))
		*names = append(*names, name)
		for k := rng.Intn(6); k > 0; k-- {
			n.view.Add(handles[rng.Intn(len(handles))].AsObject(), name)
		}
	}
	for k := rng.Intn(4); k > 0; k-- {
		i := rng.Intn(len(handles))
		if n.st.Contains(handles[i]) {
			n.st.Evict(handles[i])
		} else {
			n.st.PutBlob(blobs[i])
		}
	}
}
