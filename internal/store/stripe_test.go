package store

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"fixgo/internal/core"
)

// object is a test object the stripe tests put and evict: a blob or a
// tree, with the bytes it occupies while resident.
type object struct {
	h    core.Handle
	put  func(s *Store)
	size uint64
}

func stripeOf(h core.Handle) int { return int(h[0] & (stripeCount - 1)) }

// stripeObjects returns n blobs and n trees. With shared set, every one
// of them falls in stripe 0; otherwise no two fall in the same stripe.
// The two sets have no object in common.
func stripeObjects(shared bool, n int) []object {
	var out []object
	used := map[int]bool{}
	take := func(o object) {
		st := stripeOf(o.h)
		if shared && st != 0 || !shared && used[st] {
			return
		}
		used[st] = true
		out = append(out, o)
	}
	for i := 0; len(out) < n; i++ {
		data := []byte(fmt.Sprintf("stripe test blob %v %d, long enough not to be a literal", shared, i))
		take(object{h: core.BlobHandle(data), put: func(s *Store) { s.PutBlob(data) }, size: uint64(len(data))})
	}
	for i := 0; len(out) < 2*n; i++ {
		entries := []core.Handle{core.LiteralU64(uint64(i)), core.LiteralU64(7)}
		if shared {
			entries = append(entries, core.LiteralU64(8))
		}
		take(object{h: core.TreeHandle(entries), put: func(s *Store) { s.PutTree(entries) }, size: uint64(len(entries) * core.HandleSize)})
	}
	return out
}

// stripeThunks returns n Application thunks, all in stripe 0 when shared.
// The two sets have no thunk in common.
func stripeThunks(shared bool, n int) []core.Handle {
	var out []core.Handle
	for i := 0; len(out) < n; i++ {
		tag := core.LiteralU64(1 << 40)
		if shared {
			tag = core.LiteralU64(1 << 41)
		}
		th, _ := core.Application(core.TreeHandle([]core.Handle{tag, core.LiteralU64(uint64(i))}))
		if !shared || stripeOf(th) == 0 {
			out = append(out, th)
		}
	}
	return out
}

// TestStripeStress runs puts, pins, evictions and memo writes from many
// goroutines on objects that share one stripe (more of them than a
// stripe's inline pin slots) and on objects that share none. A pinned
// resident object is never evicted, the counts afterwards match a serial
// recount, and every memo write is visible to a later read.
func TestStripeStress(t *testing.T) {
	const workers, rounds = 8, 400
	s := New()
	objs := append(stripeObjects(true, 5), stripeObjects(false, 5)...)
	// Memo keys: the Application thunks of the trees above, whose memos
	// live in the trees while they are resident, and thunks over trees
	// never put.
	var keys []core.Handle
	for _, o := range objs {
		if o.h.Kind() == core.KindTree {
			th, _ := core.Application(o.h)
			keys = append(keys, th)
		}
	}
	keys = append(keys, stripeThunks(true, 4*workers)...)
	keys = append(keys, stripeThunks(false, 4*workers)...)

	// memo[w] is what worker w last wrote under each of its own keys:
	// keys[k] belongs to worker k%workers.
	memo := make([]map[core.Handle][2]core.Handle, workers)
	var wg sync.WaitGroup
	for w := range workers {
		memo[w] = map[core.Handle][2]core.Handle{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := range rounds {
				o := objs[r.Intn(len(objs))]
				switch r.Intn(4) {
				case 0:
					o.put(s)
				case 1:
					s.Evict(o.h)
				case 2:
					if s.Pin(o.h) {
						if s.Evict(o.h) {
							t.Errorf("%v evicted while pinned", o.h)
						}
						if !s.Contains(o.h) {
							t.Errorf("%v not resident while pinned", o.h)
						}
					}
					s.Unpin(o.h)
				case 3:
					th := keys[w+workers*r.Intn(len(keys)/workers)]
					enc, _ := core.Strict(th)
					res := [2]core.Handle{core.LiteralU64(uint64(w<<32 | i)), core.LiteralU64(uint64(i))}
					s.SetThunkResult(th, res[0])
					s.SetEncodeResult(enc, res[1])
					memo[w][th] = res
					if got, ok := s.ThunkResult(th); !ok || got != res[0] {
						t.Errorf("ThunkResult right after SetThunkResult = %v, %v; want %v", got, ok, res[0])
					}
					if got, ok := s.EncodeResult(enc); !ok || got != res[1] {
						t.Errorf("EncodeResult right after SetEncodeResult = %v, %v; want %v", got, ok, res[1])
					}
				}
			}
		}()
	}
	wg.Wait()

	n, bytes := 0, uint64(0)
	for _, o := range objs {
		if s.Contains(o.h) {
			n++
			bytes += o.size
		}
	}
	if got := s.Len(); got != n {
		t.Errorf("Len = %d, serial recount %d", got, n)
	}
	if got := s.TotalBytes(); got != bytes {
		t.Errorf("TotalBytes = %d, serial recount %d", got, bytes)
	}
	// Every pin was released: everything evicts, down to nothing.
	for _, o := range objs {
		s.Evict(o.h)
		if s.Contains(o.h) {
			t.Errorf("%v still pinned after every pin was released", o.h)
		}
	}
	if s.Len() != 0 || s.TotalBytes() != 0 {
		t.Errorf("after evicting everything: Len %d, TotalBytes %d", s.Len(), s.TotalBytes())
	}
	for w := range workers {
		for th, res := range memo[w] {
			enc, _ := core.Strict(th)
			if got, ok := s.ThunkResult(th); !ok || got != res[0] {
				t.Errorf("worker %d: ThunkResult(%v) = %v, %v; want %v", w, th, got, ok, res[0])
			}
			if got, ok := s.EncodeResult(enc); !ok || got != res[1] {
				t.Errorf("worker %d: EncodeResult(%v) = %v, %v; want %v", w, enc, got, ok, res[1])
			}
		}
	}
}

// TestStoreNewAllocs keeps set-up cheap by count: stripes and their maps
// are made on first use, so a new Store is one allocation.
func TestStoreNewAllocs(t *testing.T) {
	var s *Store
	allocs := testing.AllocsPerRun(100, func() { s = New() })
	if allocs > 1 {
		t.Fatalf("store.New allocates %v times, want at most 1", allocs)
	}
	if s.Len() != 0 || s.TotalBytes() != 0 {
		t.Fatal("a new Store is not empty")
	}
}

// memoCounter is a Persister that counts thunk memo write-throughs, and
// trees handed to it with room to append into.
type memoCounter struct{ thunks, roomy int }

func (*memoCounter) PersistBlob(core.Handle, []byte) error { return nil }
func (m *memoCounter) PersistTree(_ core.Handle, entries []core.Handle) error {
	if cap(entries) > len(entries) {
		m.roomy++
	}
	return nil
}
func (m *memoCounter) PersistThunkResult(core.Handle, core.Handle) error {
	m.thunks++
	return nil
}
func (*memoCounter) PersistEncodeResult(core.Handle, core.Handle) error { return nil }

// TestApplicationMemoInTree pins the memo of an Application Thunk kept in
// its Tree's spare entry: the entry is invisible to Tree's callers, the
// memo survives its Tree's eviction and re-put, a memo set before the
// Tree arrives is still found, other Thunk styles over the same Tree keep
// their own, and an unchanged memo is persisted once. Neither Tree's
// callers nor the Persister get room to append into the spare entry.
func TestApplicationMemoInTree(t *testing.T) {
	s := New()
	p := &memoCounter{}
	s.SetPersister(p)
	entries := []core.Handle{core.LiteralU64(1), core.LiteralU64(2)}
	tr, _ := s.PutTree(entries)
	app, _ := core.Application(tr)
	id, _ := core.Identification(tr)
	r1, r2, r3 := core.LiteralU64(10), core.LiteralU64(20), core.LiteralU64(30)

	s.SetThunkResult(app, r1)
	s.SetThunkResult(app, r1)
	s.SetThunkResult(id, r3)
	if p.thunks != 2 {
		t.Fatalf("%d thunk memos persisted, want 2 (an unchanged memo is not rewritten)", p.thunks)
	}
	got, err := s.Tree(tr)
	if err != nil || len(got) != 2 || cap(got) != 2 {
		t.Fatalf("Tree = %v (cap %d), %v; want its 2 entries and no room past them", got, cap(got), err)
	}
	_ = append(got, core.LiteralU64(99)) // must not reach the memo
	for _, c := range []struct {
		step string
		do   func()
	}{
		{"set", func() {}},
		{"evicted", func() { s.Evict(tr) }},
		{"put again", func() { s.PutTree(entries) }},
	} {
		c.do()
		if r, ok := s.ThunkResult(app); !ok || r != r1 {
			t.Fatalf("%s: Application memo = %v, %v; want %v", c.step, r, ok, r1)
		}
		if r, ok := s.ThunkResult(id); !ok || r != r3 {
			t.Fatalf("%s: Identification memo = %v, %v; want %v", c.step, r, ok, r3)
		}
	}
	s.SetThunkResult(app, r2)
	if r, ok := s.ThunkResult(app); !ok || r != r2 {
		t.Fatalf("overwritten memo = %v, %v; want %v", r, ok, r2)
	}

	// A memo that arrives before its Tree, which arrives from the wire.
	early := []core.Handle{core.LiteralU64(3)}
	app2, _ := core.Application(core.TreeHandle(early))
	s.SetThunkResult(app2, r3)
	if err := s.PutObject(core.TreeHandle(early), core.EncodeTree(early)); err != nil {
		t.Fatal(err)
	}
	if r, ok := s.ThunkResult(app2); !ok || r != r3 {
		t.Fatalf("memo set before its Tree = %v, %v; want %v", r, ok, r3)
	}
	if p.roomy != 0 {
		t.Fatalf("%d trees persisted with room past their entries", p.roomy)
	}
}
