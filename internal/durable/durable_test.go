package durable

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"fixgo/internal/core"
	"fixgo/internal/store"
)

// blobOf makes a non-literal Blob payload (literals never hit disk).
func blobOf(i int) []byte {
	return bytes.Repeat([]byte{byte(i), byte(i >> 8)}, core.MaxLiteral)
}

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	d, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestPersistAndReopen(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, Options{Fsync: FsyncAlways})

	var blobs []core.Handle
	for i := 0; i < 20; i++ {
		data := blobOf(i)
		h := core.BlobHandle(data)
		if err := d.PersistBlob(h, data); err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, h)
	}
	tree := []core.Handle{blobs[0], blobs[1]}
	th := core.TreeHandle(tree)
	if err := d.PersistTree(th, tree); err != nil {
		t.Fatal(err)
	}
	thunk, _ := core.Identification(blobs[2])
	if err := d.PersistThunkResult(thunk, blobs[2]); err != nil {
		t.Fatal(err)
	}
	enc, _ := core.Strict(thunk)
	if err := d.PersistEncodeResult(enc, blobs[2]); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := mustOpen(t, dir, Options{})
	defer d2.Close()
	st := d2.Stats()
	if st.Objects != 21 {
		t.Fatalf("recovered %d objects, want 21", st.Objects)
	}
	if st.MemoEntries != 2 {
		t.Fatalf("recovered %d memo entries, want 2", st.MemoEntries)
	}
	if st.TruncatedTail != 0 {
		t.Fatalf("clean shutdown should not truncate, got %d", st.TruncatedTail)
	}
	for i, h := range blobs {
		got, err := d2.ReadObject(h)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, blobOf(i)) {
			t.Fatalf("blob %d round-trip mismatch", i)
		}
	}

	mem := store.New()
	rs, err := d2.RestoreInto(mem)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Blobs != 20 || rs.Trees != 1 || rs.Thunks != 1 || rs.Encodes != 1 {
		t.Fatalf("restore stats = %+v", rs)
	}
	if !mem.Contains(th) {
		t.Fatal("restored store missing tree")
	}
	if r, ok := mem.EncodeResult(enc); !ok || r != blobs[2] {
		t.Fatal("restored store missing encode memo")
	}
}

func TestWriteThroughFromStore(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, Options{})
	mem := store.New()
	mem.SetPersister(d)

	h := mem.PutBlob(blobOf(1))
	tr, err := mem.PutTree([]core.Handle{h})
	if err != nil {
		t.Fatal(err)
	}
	thunk, _ := core.Identification(h)
	mem.SetThunkResult(thunk, h)
	// Re-puts and re-memoizations must not duplicate records.
	mem.PutBlob(blobOf(1))
	mem.SetThunkResult(thunk, h)

	if got := d.Stats().Appends; got != 2 {
		t.Fatalf("object appends = %d, want 2", got)
	}
	if got := d.Stats().MemoAppends; got != 1 {
		t.Fatalf("memo appends = %d, want 1", got)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := mustOpen(t, dir, Options{})
	defer d2.Close()
	mem2 := store.New()
	if _, err := d2.RestoreInto(mem2); err != nil {
		t.Fatal(err)
	}
	if !mem2.Contains(h) || !mem2.Contains(tr) {
		t.Fatal("write-through objects not recovered")
	}
	if r, ok := mem2.ThunkResult(thunk); !ok || r != h {
		t.Fatal("write-through memo not recovered")
	}
	if mem.PersistErrors() != 0 {
		t.Fatalf("persist errors = %d", mem.PersistErrors())
	}
}

func TestLiteralsNeverPersisted(t *testing.T) {
	d := mustOpen(t, t.TempDir(), Options{})
	defer d.Close()
	lit := core.BlobHandle([]byte("tiny"))
	if err := d.PersistBlob(lit, []byte("tiny")); err != nil {
		t.Fatal(err)
	}
	if d.Stats().Appends != 0 {
		t.Fatal("literal blob reached disk")
	}
}

func TestPackRotation(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, Options{MaxPackBytes: 256})
	for i := 0; i < 16; i++ {
		data := blobOf(i)
		if err := d.PersistBlob(core.BlobHandle(data), data); err != nil {
			t.Fatal(err)
		}
	}
	packs, _ := filepath.Glob(filepath.Join(dir, "packs", "*.pack"))
	if len(packs) < 2 {
		t.Fatalf("expected rotation to produce multiple packs, got %d", len(packs))
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := mustOpen(t, dir, Options{})
	defer d2.Close()
	if got := d2.Stats().Objects; got != 16 {
		t.Fatalf("recovered %d objects across packs, want 16", got)
	}
}

func TestGCDropsUnreferenced(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, Options{})
	defer d.Close()

	// A memoized result Tree referencing one Blob: both must survive.
	keep := blobOf(1)
	keepH := core.BlobHandle(keep)
	if err := d.PersistBlob(keepH, keep); err != nil {
		t.Fatal(err)
	}
	tree := []core.Handle{keepH}
	treeH := core.TreeHandle(tree)
	if err := d.PersistTree(treeH, tree); err != nil {
		t.Fatal(err)
	}
	thunk, _ := core.Identification(keepH)
	if err := d.PersistThunkResult(thunk, treeH); err != nil {
		t.Fatal(err)
	}
	// Pinned-by-caller object: survives via the live predicate.
	pinned := blobOf(2)
	pinnedH := core.BlobHandle(pinned)
	if err := d.PersistBlob(pinnedH, pinned); err != nil {
		t.Fatal(err)
	}
	// Garbage: referenced by nothing.
	var garbage []core.Handle
	for i := 10; i < 20; i++ {
		data := blobOf(i)
		h := core.BlobHandle(data)
		if err := d.PersistBlob(h, data); err != nil {
			t.Fatal(err)
		}
		garbage = append(garbage, h)
	}

	before := d.Stats().PackBytes
	gs, err := d.GC(func(h core.Handle) bool { return h == pinnedH })
	if err != nil {
		t.Fatal(err)
	}
	if gs.Kept != 3 || gs.Dropped != len(garbage) {
		t.Fatalf("gc kept %d dropped %d, want 3/%d", gs.Kept, gs.Dropped, len(garbage))
	}
	if gs.BytesAfter >= before {
		t.Fatalf("gc did not shrink: %d → %d", before, gs.BytesAfter)
	}
	for _, h := range []core.Handle{keepH, treeH, pinnedH} {
		if _, err := d.ReadObject(h); err != nil {
			t.Fatalf("live object %v lost by gc: %v", h, err)
		}
	}
	for _, h := range garbage {
		if d.Contains(h) {
			t.Fatalf("garbage %v survived gc", h)
		}
	}
	// Post-GC appends and recovery still work.
	extra := blobOf(99)
	if err := d.PersistBlob(core.BlobHandle(extra), extra); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := mustOpen(t, dir, Options{})
	defer d2.Close()
	if got := d2.Stats().Objects; got != 4 {
		t.Fatalf("post-gc recovery found %d objects, want 4", got)
	}
	if r, ok := d2.thunks[thunk]; !ok || r != treeH {
		t.Fatal("memo entry lost across gc + reopen")
	}
}

func TestAutoGCStaysNearBudget(t *testing.T) {
	dir := t.TempDir()
	budget := int64(4 << 10)
	d := mustOpen(t, dir, Options{
		GCBudgetBytes: budget,
		MaxPackBytes:  1 << 10,
		Live:          func(core.Handle) bool { return false },
	})
	defer d.Close()
	for i := 0; i < 200; i++ {
		data := blobOf(i)
		if err := d.PersistBlob(core.BlobHandle(data), data); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if st.GCPasses == 0 {
		t.Fatal("auto-GC never ran")
	}
	// Everything is garbage (no memo roots, Live=false), so the
	// footprint must be bounded by budget plus the re-arm slack.
	if st.PackBytes > budget+budget/2 {
		t.Fatalf("pack bytes %d stayed far above %d budget", st.PackBytes, budget)
	}
}

func TestMemoEntriesAndCompaction(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, Options{})
	res := core.BlobHandle([]byte("r"))
	var encs []core.Handle
	for i := 0; i < 5; i++ {
		data := blobOf(i)
		h := core.BlobHandle(data)
		if err := d.PersistBlob(h, data); err != nil {
			t.Fatal(err)
		}
		thunk, _ := core.Identification(h)
		enc, _ := core.Strict(thunk)
		if err := d.PersistEncodeResult(enc, res); err != nil {
			t.Fatal(err)
		}
		encs = append(encs, enc)
	}
	if _, err := d.GC(nil); err != nil {
		t.Fatal(err)
	}
	d.Close()
	d = mustOpen(t, dir, Options{})
	defer d.Close()
	mem := store.New()
	rs, err := d.RestoreInto(mem)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Encodes != len(encs) || rs.Thunks != 0 {
		t.Fatalf("memo entries after compaction = %d encodes, %d thunks; want %d, 0", rs.Encodes, rs.Thunks, len(encs))
	}
	for _, e := range encs {
		if r, ok := mem.EncodeResult(e); !ok || r != res {
			t.Fatalf("entry %v lost in compaction", e)
		}
	}
}

func TestConcurrentWriteThrough(t *testing.T) {
	d := mustOpen(t, t.TempDir(), Options{})
	defer d.Close()
	mem := store.New()
	mem.SetPersister(d)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				data := blobOf(i) // all goroutines race on the same keys
				h := mem.PutBlob(data)
				thunk, _ := core.Identification(h)
				mem.SetThunkResult(thunk, h)
			}
		}(g)
	}
	wg.Wait()
	st := d.Stats()
	if st.Objects != 50 || st.MemoEntries != 50 {
		t.Fatalf("objects=%d memo=%d, want 50/50", st.Objects, st.MemoEntries)
	}
	if mem.PersistErrors() != 0 {
		t.Fatalf("persist errors = %d", mem.PersistErrors())
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for s, want := range map[string]FsyncPolicy{
		"always": FsyncAlways, "interval": FsyncInterval, "never": FsyncNever, "": FsyncInterval,
	} {
		got, err := ParseFsyncPolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("expected error for unknown policy")
	}
}

func TestOpenRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "packs"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "memo.journal"), []byte("NOTMAGIC plus junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("expected bad-magic error")
	}
}

func TestStatsString(t *testing.T) {
	// The flag value round-trips through String for the daemons' startup
	// banner.
	for _, p := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		rt, err := ParseFsyncPolicy(p.String())
		if err != nil || rt != p {
			t.Fatalf("round-trip %v failed", p)
		}
	}
	_ = fmt.Sprintf("%+v", Stats{})
}

func TestDataDirLock(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, Options{})
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("second Open on a held data-dir must fail")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := mustOpen(t, dir, Options{})
	d2.Close()
}
