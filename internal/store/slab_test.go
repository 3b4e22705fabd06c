package store

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"fixgo/internal/core"
)

// slabTree returns a tree of n entries tagged by tag and i; trees with
// different tags or indices differ unless n is 0.
func slabTree(tag uint64, i, n int) []core.Handle {
	entries := make([]core.Handle, n)
	for j := range entries {
		entries[j] = core.LiteralU64(tag<<40 | uint64(i)<<16 | uint64(j))
	}
	return entries
}

// stripeTrees returns n four-entry trees that all fall in stripe 0, so
// their slots are carved one after another from the same slabs.
func stripeTrees(n int) [][]core.Handle {
	var out [][]core.Handle
	for i := 0; len(out) < n; i++ {
		entries := slabTree(3, i, 4)
		if stripeOf(core.TreeHandle(entries)) == 0 {
			out = append(out, entries)
		}
	}
	return out
}

func appOf(tree core.Handle) core.Handle {
	th, _ := core.Application(tree)
	return th
}

// checkTree fails unless the Tree h reads back as exactly entries.
func checkTree(t *testing.T, s *Store, h core.Handle, entries []core.Handle) {
	t.Helper()
	got, err := s.Tree(h)
	if err != nil {
		t.Errorf("Tree(%v): %v", h, err)
		return
	}
	if !slices.Equal(got, entries) || cap(got) != len(got) {
		t.Errorf("Tree(%v) = %d entries (cap %d), want its %d", h, len(got), cap(got), len(entries))
	}
}

// checkMemo fails unless the Application over h is memoized as want.
func checkMemo(t *testing.T, s *Store, h, want core.Handle) {
	t.Helper()
	if got, ok := s.ThunkResult(appOf(h)); !ok || got != want {
		t.Errorf("memo of %v = %v, %v; want %v", h, got, ok, want)
	}
}

// putEither stores entries by PutTree or, as received bytes, PutObject.
func putEither(t *testing.T, s *Store, entries []core.Handle, asBytes bool) core.Handle {
	t.Helper()
	if asBytes {
		h := core.TreeHandle(entries)
		if err := s.PutObject(h, core.EncodeTree(entries)); err != nil {
			t.Error(err)
		}
		return h
	}
	h, err := s.PutTree(entries)
	if err != nil {
		t.Error(err)
	}
	return h
}

// TestSlabConcurrent runs PutTree, PutObject, SetThunkResult, Tree and
// Evict from goroutines across every stripe, on trees of every slot size
// up to past carveMax. Each goroutine has trees of its own, which only it
// evicts and memoizes, and all share trees they never evict, whose memo
// every goroutine sets to the same value. Every Tree reads back as exactly
// its entries and every memo as what was last set, during the run and
// after it, evicted or resident.
func TestSlabConcurrent(t *testing.T) {
	const workers, own, shared, rounds = 8, 48, carveMax + 3, 800
	sharedTrees := make([][]core.Handle, shared)
	for i := range sharedTrees {
		sharedTrees[i] = slabTree(1, i, i) // the empty tree too
	}
	sharedMemo := func(i int) core.Handle { return core.LiteralU64(uint64(1000 + i)) }

	s := New()
	ownTrees := make([][][]core.Handle, workers)
	memos := make([]map[int]core.Handle, workers)
	var wg sync.WaitGroup
	for w := range workers {
		ownTrees[w] = make([][]core.Handle, own)
		for i := range own {
			ownTrees[w][i] = slabTree(uint64(2+w), i, 1+i%(carveMax+3))
		}
		memos[w] = map[int]core.Handle{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for round := range rounds {
				if r.Intn(4) == 0 {
					i := r.Intn(shared)
					h := putEither(t, s, sharedTrees[i], r.Intn(2) == 0)
					s.SetThunkResult(appOf(h), sharedMemo(i))
					checkTree(t, s, h, sharedTrees[i])
					checkMemo(t, s, h, sharedMemo(i))
					continue
				}
				i := r.Intn(own)
				entries := ownTrees[w][i]
				h := core.TreeHandle(entries)
				switch r.Intn(4) {
				case 0:
					putEither(t, s, entries, r.Intn(2) == 0)
					checkTree(t, s, h, entries)
				case 1:
					res := core.LiteralU64(uint64(w)<<32 | uint64(round))
					s.SetThunkResult(appOf(h), res)
					memos[w][i] = res
				case 2:
					s.Evict(h)
					if s.Contains(h) {
						t.Errorf("%v resident after its only evicter evicted it", h)
					}
				case 3:
					if s.Contains(h) {
						checkTree(t, s, h, entries)
					}
				}
				if res, ok := memos[w][i]; ok {
					checkMemo(t, s, h, res)
				}
			}
		}()
	}
	wg.Wait()

	for i, entries := range sharedTrees {
		h := core.TreeHandle(entries)
		checkMemo(t, s, h, sharedMemo(i))
		if s.Contains(h) {
			checkTree(t, s, h, entries)
		}
	}
	for w := range workers {
		for i, entries := range ownTrees[w] {
			h := putEither(t, s, entries, i%2 == 0)
			checkTree(t, s, h, entries)
			if res, ok := memos[w][i]; ok {
				checkMemo(t, s, h, res)
			}
		}
	}
}

// TestSlabNeighbourIsolation: trees of one stripe sit side by side in a
// slab, each followed by its spare memo entry. Appending to the entries
// Tree returns, setting a neighbour's memo, and evicting and re-putting a
// neighbour leave every other tree's entries and memo as they were.
func TestSlabNeighbourIsolation(t *testing.T) {
	const n = 24
	s := New()
	trees := stripeTrees(n)
	hs := make([]core.Handle, n)
	memo := make([]core.Handle, n)
	for i, entries := range trees {
		hs[i] = putEither(t, s, entries, i%2 == 1)
		memo[i] = core.LiteralU64(uint64(500 + i))
		s.SetThunkResult(appOf(hs[i]), memo[i])
	}
	// Most neighbours must share a slab, or this test shows nothing.
	adjacent := 0
	for i := 1; i < n; i++ {
		prev, _ := s.Tree(hs[i-1])
		cur, _ := s.Tree(hs[i])
		if unsafe.Add(unsafe.Pointer(unsafe.SliceData(prev)), (len(prev)+1)*core.HandleSize) == unsafe.Pointer(unsafe.SliceData(cur)) {
			adjacent++
		}
	}
	if adjacent < n/2 {
		t.Fatalf("%d of %d neighbouring trees are adjacent in memory, want most", adjacent, n-1)
	}
	checkAll := func(step string) {
		t.Helper()
		for i := range trees {
			checkTree(t, s, hs[i], trees[i])
			checkMemo(t, s, hs[i], memo[i])
		}
		if t.Failed() {
			t.Fatalf("after %s", step)
		}
	}
	checkAll("putting")
	for i := range trees {
		got, _ := s.Tree(hs[i])
		grown := append(got, core.LiteralU64(99), core.LiteralU64(98))
		grown[0] = core.LiteralU64(97)
		checkAll("appending to a tree")

		j := (i + 1) % n
		memo[j] = core.LiteralU64(uint64(700 + i))
		s.SetThunkResult(appOf(hs[j]), memo[j])
		checkAll("setting a neighbour's memo")

		if !s.Evict(hs[j]) {
			t.Fatalf("could not evict %v", hs[j])
		}
		checkMemo(t, s, hs[j], memo[j])
		putEither(t, s, trees[j], i%2 == 0)
		checkAll("evicting and re-putting a neighbour")
	}
}

// TestSlabShapes: the empty tree, a tree whose slot is exactly carveMax,
// and one over it, which gets an allocation of its own and leaves the
// slab as it was. Each reads back exactly, by Tree and ObjectBytes, keeps
// its Application memo when evicted, and finds it again when re-put from
// received bytes.
func TestSlabShapes(t *testing.T) {
	for _, c := range []struct {
		name    string
		entries []core.Handle
		carved  bool
	}{
		{"empty", nil, true},
		{"common", slabTree(4, 0, 4), true},
		{"at the cap", slabTree(4, 1, carveMax-1), true},
		{"over the cap", slabTree(4, 2, carveMax), false},
		{"large", slabTree(4, 3, 3*slabEntries), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := New()
			s.PutTree(slabTree(5, 0, 4)) // a slab to carve from, or not
			h := putEither(t, s, c.entries, false)
			got, _ := s.Tree(h)
			slab := s.stripe(h).slab
			off := uintptr(unsafe.Pointer(unsafe.SliceData(got))) - uintptr(unsafe.Pointer(unsafe.SliceData(slab)))
			if carved := off < uintptr(cap(slab))*core.HandleSize; carved != c.carved {
				t.Errorf("carved from the stripe's slab: %v, want %v", carved, c.carved)
			}
			checkTree(t, s, h, c.entries)
			raw, err := s.ObjectBytes(h)
			if err != nil || raw == nil || string(raw) != string(core.TreeBytes(c.entries)) {
				t.Errorf("ObjectBytes = %x, %v; want the tree's encoding", raw, err)
			}
			res := core.LiteralU64(77)
			s.SetThunkResult(appOf(h), res)
			checkMemo(t, s, h, res)
			if !s.Evict(h) || s.Contains(h) {
				t.Fatal("not evicted")
			}
			checkMemo(t, s, h, res)
			putEither(t, s, c.entries, true)
			checkTree(t, s, h, c.entries)
			checkMemo(t, s, h, res)
			if got := s.TotalBytes(); got != uint64(4+len(c.entries))*core.HandleSize {
				t.Errorf("TotalBytes = %d, want the two trees' entries", got)
			}
		})
	}
}

// TestSlabRetentionBound pins the documented bound: a live Tree keeps at
// most one slab alive. A stripe carves trees across several slabs; once
// the Store is dropped and only one tree's entries are held, every slab
// but that tree's is collected.
func TestSlabRetentionBound(t *testing.T) {
	var freed atomic.Int64
	held, want, slabs := fillSlabs(&freed)
	deadline := time.Now().Add(10 * time.Second)
	for freed.Load() < int64(slabs-1) && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	if got := freed.Load(); got != int64(slabs-1) {
		t.Fatalf("%d of %d slabs collected while one tree is held, want %d", got, slabs, slabs-1)
	}
	if !slices.Equal(held, want) {
		t.Fatal("the held tree's entries changed")
	}
	runtime.KeepAlive(held)
}

// fillSlabs puts trees in stripe 0 of a Store it then drops, until the
// stripe has carved from 6 slabs, each with a finalizer counting in freed.
// It returns the entries of a tree in the third slab, as Tree returns
// them, what they should be, and how many slabs were made.
func fillSlabs(freed *atomic.Int64) (held, want []core.Handle, slabs int) {
	s := New()
	var last *core.Handle
	for _, entries := range stripeTrees(200) {
		h, _ := s.PutTree(entries)
		sp := s.stripes[0].Load()
		if base := unsafe.SliceData(sp.slab); base != last {
			runtime.SetFinalizer(base, func(*core.Handle) { freed.Add(1) })
			last = base
			slabs++
		}
		if slabs == 3 && held == nil {
			held, _ = s.Tree(h)
			want = entries
		}
		if slabs == 6 {
			break
		}
	}
	return held, want, slabs
}
