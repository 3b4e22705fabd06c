package store

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"fixgo/internal/core"
)

func TestBlobPutGet(t *testing.T) {
	s := New()
	data := bytes.Repeat([]byte{7}, 100)
	h := s.PutBlob(data)
	got, err := s.Blob(h)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("blob mismatch")
	}
	if !s.Contains(h) {
		t.Fatal("Contains should be true")
	}
}

func TestLiteralBlobNotPersisted(t *testing.T) {
	s := New()
	h := s.PutBlob([]byte("tiny"))
	if s.Len() != 0 {
		t.Fatalf("literal should not occupy storage; len=%d", s.Len())
	}
	got, err := s.Blob(h)
	if err != nil || string(got) != "tiny" {
		t.Fatalf("literal blob fetch: %q %v", got, err)
	}
	if !s.Contains(h) {
		t.Fatal("literals are always resident")
	}
}

func TestTreePutGet(t *testing.T) {
	s := New()
	a := s.PutBlob([]byte("aaaa aaaa aaaa aaaa aaaa aaaa aaaa"))
	b := core.LiteralU64(9)
	h, err := s.PutTree([]core.Handle{a, b})
	if err != nil {
		t.Fatal(err)
	}
	entries, err := s.Tree(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0] != a || entries[1] != b {
		t.Fatal("tree mismatch")
	}
}

func TestRefAndThunkHandlesResolveToSameObject(t *testing.T) {
	s := New()
	a := s.PutBlob([]byte("payload that is long enough to hash"))
	tr, _ := s.PutTree([]core.Handle{a})
	th, _ := core.Application(tr)
	enc, _ := core.Strict(th)
	for _, h := range []core.Handle{tr, tr.AsRef(), th, enc} {
		entries, err := s.Tree(h)
		if err != nil {
			t.Fatalf("Tree(%v): %v", h, err)
		}
		if len(entries) != 1 || entries[0] != a {
			t.Fatal("entries mismatch")
		}
	}
}

func TestMissingObject(t *testing.T) {
	s := New()
	h := core.BlobHandle(bytes.Repeat([]byte{1}, 50))
	_, err := s.Blob(h)
	var nf *ErrNotFound
	if !errors.As(err, &nf) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if s.Contains(h) {
		t.Fatal("Contains should be false")
	}
}

func TestKindMismatch(t *testing.T) {
	s := New()
	b := s.PutBlob(bytes.Repeat([]byte{2}, 40))
	if _, err := s.Tree(b); err == nil {
		t.Fatal("Tree of a blob handle should fail")
	}
	tr, _ := s.PutTree(nil)
	if _, err := s.Blob(tr); err == nil {
		t.Fatal("Blob of a tree handle should fail")
	}
}

func TestPutObjectValidates(t *testing.T) {
	s := New()
	data := bytes.Repeat([]byte{3}, 64)
	h := core.BlobHandle(data)
	if err := s.PutObject(h, data); err != nil {
		t.Fatal(err)
	}
	if err := s.PutObject(h, data[:63]); err == nil {
		t.Fatal("mismatched bytes should be rejected")
	}
	// Tree ingestion.
	entries := []core.Handle{h, core.LiteralU64(1)}
	th := core.TreeHandle(entries)
	if err := s.PutObject(th, core.EncodeTree(entries)); err != nil {
		t.Fatal(err)
	}
	got, err := s.Tree(th)
	if err != nil || len(got) != 2 {
		t.Fatalf("tree after ingest: %v %v", got, err)
	}
	if err := s.PutObject(th, core.EncodeTree(entries[:1])); err == nil {
		t.Fatal("mismatched tree should be rejected")
	}
}

func TestObjectBytesRoundTrip(t *testing.T) {
	s := New()
	data := bytes.Repeat([]byte{9}, 77)
	h := s.PutBlob(data)
	raw, err := s.ObjectBytes(h)
	if err != nil || !bytes.Equal(raw, data) {
		t.Fatal("blob object bytes mismatch")
	}
	tr, _ := s.PutTree([]core.Handle{h})
	raw, err = s.ObjectBytes(tr)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New()
	if err := s2.PutObject(tr, raw); err != nil {
		t.Fatal(err)
	}
}

// TestAllocsTreeBytes pins the tree paths of a delegation (ROADMAP 2 Part
// D): a resident tree's wire bytes are its stored entries, and putting a
// new tree allocates only the stored copy.
func TestAllocsTreeBytes(t *testing.T) {
	const runs = 200
	s := New()
	trees := make([][]core.Handle, runs+1)
	for i := range trees {
		trees[i] = core.InvocationTree(core.DefaultLimits.Handle(), core.LiteralU64(1), core.LiteralU64(uint64(i)))
	}
	next := 0
	var perr error
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := s.PutTree(trees[next]); err != nil {
			perr = err
		}
		next++
	})
	if perr != nil {
		t.Fatal(perr)
	}
	if allocs > 1 {
		t.Fatalf("PutTree of a new tree allocates %v times, want at most 1", allocs)
	}
	h, _ := s.PutTree(trees[0])
	var raw []byte
	allocs = testing.AllocsPerRun(runs, func() { raw, _ = s.ObjectBytes(h) })
	if allocs != 0 {
		t.Fatalf("ObjectBytes of a resident tree allocates %v times, want 0", allocs)
	}
	if !bytes.Equal(raw, core.EncodeTree(trees[0])) {
		t.Fatal("ObjectBytes is not the tree's encoding")
	}
}

func TestMemoization(t *testing.T) {
	s := New()
	tr, _ := s.PutTree([]core.Handle{core.LiteralU64(5)})
	th, _ := core.Application(tr)
	enc, _ := core.Strict(th)
	res := core.LiteralU64(10)

	if _, ok := s.ThunkResult(th); ok {
		t.Fatal("unexpected memo hit")
	}
	s.SetThunkResult(th, res)
	if r, ok := s.ThunkResult(th); !ok || r != res {
		t.Fatal("thunk memo miss")
	}
	s.SetEncodeResult(enc, res)
	if r, ok := s.EncodeResult(enc); !ok || r != res {
		t.Fatal("encode memo miss")
	}
	// Shallow encode is a distinct memo key.
	sh, _ := core.Shallow(th)
	if _, ok := s.EncodeResult(sh); ok {
		t.Fatal("shallow should not hit strict's memo entry")
	}
}

func TestEvictAndPin(t *testing.T) {
	s := New()
	data := bytes.Repeat([]byte{4}, 128)
	h := s.PutBlob(data)
	s.Pin(h)
	if s.Evict(h) {
		t.Fatal("pinned object must not be evicted")
	}
	s.Unpin(h)
	if !s.Evict(h) {
		t.Fatal("unpinned object should be evictable")
	}
	if s.Contains(h) {
		t.Fatal("object still resident after eviction")
	}
	if s.TotalBytes() != 0 {
		t.Fatalf("TotalBytes = %d after eviction", s.TotalBytes())
	}
	// Re-put recomputes identically (content addressing).
	if got := s.PutBlob(data); got != h {
		t.Fatal("recomputed handle differs")
	}
}

func TestPinNesting(t *testing.T) {
	s := New()
	h := s.PutBlob(bytes.Repeat([]byte{5}, 99))
	s.Pin(h)
	s.Pin(h)
	s.Unpin(h)
	if s.Evict(h) {
		t.Fatal("still pinned once")
	}
	s.Unpin(h)
	if !s.Evict(h) {
		t.Fatal("fully unpinned should evict")
	}
}

func TestTotalBytesAccounting(t *testing.T) {
	s := New()
	s.PutBlob(bytes.Repeat([]byte{1}, 100))
	s.PutBlob(bytes.Repeat([]byte{1}, 100)) // duplicate: no growth
	if s.TotalBytes() != 100 {
		t.Fatalf("TotalBytes = %d, want 100", s.TotalBytes())
	}
	s.PutTree([]core.Handle{core.LiteralU64(1), core.LiteralU64(2)})
	if s.TotalBytes() != 100+2*core.HandleSize {
		t.Fatalf("TotalBytes = %d", s.TotalBytes())
	}
}

func TestForEach(t *testing.T) {
	s := New()
	s.PutBlob(bytes.Repeat([]byte{1}, 40))
	s.PutTree([]core.Handle{core.LiteralU64(1)})
	n := 0
	s.ForEach(func(h core.Handle, size uint64) { n++ })
	if n != 2 {
		t.Fatalf("ForEach visited %d, want 2", n)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				data := []byte(fmt.Sprintf("worker %d item %d — padding padding padding", i, j))
				h := s.PutBlob(data)
				if got, err := s.Blob(h); err != nil || !bytes.Equal(got, data) {
					t.Errorf("concurrent get: %v", err)
					return
				}
				tr, err := s.PutTree([]core.Handle{h})
				if err != nil {
					t.Error(err)
					return
				}
				s.Pin(tr)
				s.Unpin(tr)
			}
		}(i)
	}
	wg.Wait()
}

// Property: put/get round-trips for arbitrary blobs.
func TestPutGetProperty(t *testing.T) {
	s := New()
	f := func(data []byte) bool {
		h := s.PutBlob(data)
		got, err := s.Blob(h)
		if err != nil {
			return false
		}
		if len(data) == 0 && len(got) == 0 {
			return true
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// --- Pin semantics -----------------------------------------------------
// Pins are refcounts on the canonical object key: every eviction/GC path
// must see a pinned object as immovable, via whatever Handle form the pin
// or the eviction arrives.

func TestPinRefcountDeepNesting(t *testing.T) {
	s := New()
	h := s.PutBlob(bytes.Repeat([]byte{6}, 64))
	const depth = 50
	for i := 0; i < depth; i++ {
		s.Pin(h)
	}
	for i := 0; i < depth-1; i++ {
		s.Unpin(h)
		if s.Evict(h) {
			t.Fatalf("evicted with %d pins outstanding", depth-1-i)
		}
	}
	s.Unpin(h)
	if !s.Evict(h) {
		t.Fatal("fully unpinned object should evict")
	}
}

func TestUnpinBeyondZeroIsHarmless(t *testing.T) {
	s := New()
	h := s.PutBlob(bytes.Repeat([]byte{8}, 64))
	s.Unpin(h) // never pinned: must not underflow into "pinned forever"
	s.Unpin(h)
	if !s.Evict(h) {
		t.Fatal("never-pinned object should evict after stray Unpins")
	}
	// And a later Pin still protects.
	h2 := s.PutBlob(bytes.Repeat([]byte{9}, 64))
	s.Unpin(h2)
	s.Pin(h2)
	if s.Evict(h2) {
		t.Fatal("pin after stray unpin must still protect")
	}
}

func TestPinCanonicalizesHandleForms(t *testing.T) {
	s := New()
	h := s.PutBlob(bytes.Repeat([]byte{10}, 64))
	// Pin via the Ref form, evict via the Object form: same refcount.
	s.Pin(h.AsRef())
	if s.Evict(h) {
		t.Fatal("pin via Ref must protect the Object")
	}
	s.Unpin(h) // unpin via Object form
	if !s.Evict(h.AsRef()) {
		t.Fatal("evict via Ref form should remove the unpinned object")
	}

	// Pin via a Thunk handle pins the thunk's definition Tree.
	tr, err := s.PutTree([]core.Handle{core.LiteralU64(1)})
	if err != nil {
		t.Fatal(err)
	}
	thunk, err := core.Application(tr)
	if err != nil {
		t.Fatal(err)
	}
	s.Pin(thunk)
	if s.Evict(tr) {
		t.Fatal("pin via Thunk must protect its definition Tree")
	}
	s.Unpin(thunk)
	if !s.Evict(tr) {
		t.Fatal("definition Tree should evict after Unpin via Thunk")
	}
}

func TestPinLiteralIsNoop(t *testing.T) {
	s := New()
	lit := s.PutBlob([]byte("tiny"))
	s.Pin(lit)
	s.Unpin(lit)
	s.Unpin(lit)
	if s.Len() != 0 {
		t.Fatal("literal pins must not create storage entries")
	}
	if s.Evict(lit) {
		t.Fatal("literals are not evictable (their data lives in the Handle)")
	}
}

func TestPinnedSurvivesEvictionSweep(t *testing.T) {
	s := New()
	var all, pinned []core.Handle
	for i := 0; i < 64; i++ {
		h := s.PutBlob(bytes.Repeat([]byte{byte(i)}, 64))
		all = append(all, h)
		if i%4 == 0 {
			s.Pin(h)
			pinned = append(pinned, h)
		}
	}
	tr, err := s.PutTree(all[:4])
	if err != nil {
		t.Fatal(err)
	}
	s.Pin(tr)
	// The GC sweep: try to evict everything.
	evicted := 0
	for _, h := range all {
		if s.Evict(h) {
			evicted++
		}
	}
	s.Evict(tr)
	if evicted != len(all)-len(pinned) {
		t.Fatalf("evicted %d, want %d", evicted, len(all)-len(pinned))
	}
	for _, h := range pinned {
		if !s.Contains(h) {
			t.Fatalf("pinned object %v lost in sweep", h)
		}
		if _, err := s.Blob(h); err != nil {
			t.Fatalf("pinned object %v unreadable: %v", h, err)
		}
	}
	if !s.Contains(tr) {
		t.Fatal("pinned tree lost in sweep")
	}
	// Unpin and re-sweep: now everything goes, and the byte accounting
	// returns to zero.
	for _, h := range pinned {
		s.Unpin(h)
		s.Evict(h)
	}
	s.Unpin(tr)
	s.Evict(tr)
	if s.Len() != 0 || s.TotalBytes() != 0 {
		t.Fatalf("after full sweep: len=%d bytes=%d", s.Len(), s.TotalBytes())
	}
}

func TestConcurrentPinUnpin(t *testing.T) {
	s := New()
	h := s.PutBlob(bytes.Repeat([]byte{3}, 64))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Pin(h)
				if s.Evict(h) {
					t.Error("evicted while pinned")
				}
				s.Unpin(h)
			}
		}()
	}
	wg.Wait()
	if !s.Evict(h) {
		t.Fatal("balanced pin/unpin should leave the object evictable")
	}
}

// TestPutBlobOwned pins the zero-copy ingest path: a pre-hashed blob is
// stored without copying, literals are returned untouched, and a handle
// that does not match the payload falls back to the checked PutBlob.
func TestPutBlobOwned(t *testing.T) {
	s := New()
	data := bytes.Repeat([]byte{9}, 100)
	h := core.BlobHandle(data)
	if got := s.PutBlobOwned(h, data); got != h {
		t.Fatalf("PutBlobOwned returned %v, want %v", got, h)
	}
	got, err := s.Blob(h)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("stored blob differs from input")
	}
	// Ownership transfer, not copy: the store holds the same backing array.
	if &got[0] != &data[0] {
		t.Error("PutBlobOwned copied the payload")
	}

	// Literal: nothing stored, handle echoed.
	lit := core.BlobHandle([]byte("tiny"))
	if got := s.PutBlobOwned(lit, []byte("tiny")); got != lit {
		t.Errorf("literal PutBlobOwned returned %v, want %v", got, lit)
	}

	// Mismatched handle (wrong size) falls back to checked hashing.
	other := bytes.Repeat([]byte{3}, 64)
	wrong := core.BlobHandle(bytes.Repeat([]byte{3}, 65))
	fixed := s.PutBlobOwned(wrong, other)
	if fixed != core.BlobHandle(other) {
		t.Errorf("mismatched handle not re-hashed: got %v", fixed)
	}
	if back, err := s.Blob(fixed); err != nil || !bytes.Equal(back, other) {
		t.Errorf("fallback blob read = (%v, %v)", back, err)
	}

	// Idempotent re-insert keeps accounting sane.
	before := s.TotalBytes()
	s.PutBlobOwned(h, append([]byte(nil), data...))
	if after := s.TotalBytes(); after != before {
		t.Errorf("duplicate PutBlobOwned changed byte accounting: %d -> %d", before, after)
	}
}
