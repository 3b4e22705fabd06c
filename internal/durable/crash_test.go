package durable

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"fixgo/internal/core"
	"fixgo/internal/store"
)

// The crash matrix: every way a process can die mid-write must reopen to
// a consistent prefix of the pre-crash state — never an error, never a
// corrupted object.

// seedStore writes n blobs and a memo entry per blob, then "crashes"
// (abandons the store without Close, FsyncNever so nothing was forced).
// It returns the dir and the blob handles.
func seedStore(t *testing.T, n int) (string, []core.Handle) {
	t.Helper()
	dir := t.TempDir()
	d := mustOpen(t, dir, Options{Fsync: FsyncNever})
	var hs []core.Handle
	for i := 0; i < n; i++ {
		data := blobOf(i)
		h := core.BlobHandle(data)
		if err := d.PersistBlob(h, data); err != nil {
			t.Fatal(err)
		}
		thunk, _ := core.Identification(h)
		if err := d.PersistThunkResult(thunk, h); err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	d.closeFiles() // crash: release fds without Sync or clean shutdown
	return dir, hs
}

func appendRaw(t *testing.T, path string, raw []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(raw); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

func onlyPack(t *testing.T, dir string) string {
	t.Helper()
	packs, err := filepath.Glob(filepath.Join(dir, "packs", "*.pack"))
	if err != nil || len(packs) != 1 {
		t.Fatalf("want exactly one pack, got %v (%v)", packs, err)
	}
	return packs[0]
}

// TestCrashTornPackRecord kills mid-append: the pack's tail holds only a
// prefix of a record. Recovery truncates the tear and keeps every whole
// record.
func TestCrashTornPackRecord(t *testing.T) {
	for name, cut := range map[string]int{
		"partial-header":  3,                       // less than the 5-byte header
		"partial-payload": recHeaderLen + 10,       // header promises more
		"missing-crc":     recHeaderLen + 2*32 + 2, // payload written, crc torn
	} {
		t.Run(name, func(t *testing.T) {
			dir, hs := seedStore(t, 8)
			data := blobOf(1000)
			bh := core.BlobHandle(data)
			payload := append(append([]byte{}, bh[:]...), data...)
			rec := frame(recBlob, payload)
			appendRaw(t, onlyPack(t, dir), rec[:cut])

			d := mustOpen(t, dir, Options{})
			defer d.Close()
			st := d.Stats()
			if st.TruncatedTail != 1 {
				t.Fatalf("TruncatedTail = %d, want 1", st.TruncatedTail)
			}
			if st.Objects != len(hs) {
				t.Fatalf("recovered %d objects, want %d", st.Objects, len(hs))
			}
			for _, h := range hs {
				if _, err := d.ReadObject(h); err != nil {
					t.Fatalf("whole record lost: %v", err)
				}
			}
			// The store must accept appends again after truncation.
			if err := d.PersistBlob(core.BlobHandle(data), data); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCrashBitFlip: a corrupted (not merely torn) tail record fails its
// CRC and is dropped the same way.
func TestCrashBitFlip(t *testing.T) {
	dir, hs := seedStore(t, 8)
	pack := onlyPack(t, dir)
	raw, err := os.ReadFile(pack)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-7] ^= 0x40 // flip a bit inside the final record
	if err := os.WriteFile(pack, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	d := mustOpen(t, dir, Options{})
	defer d.Close()
	if got := d.Stats().Objects; got != len(hs)-1 {
		t.Fatalf("recovered %d objects, want %d (last dropped)", got, len(hs)-1)
	}
}

// TestCrashTornJournalRecord: the same tear in the memo journal.
func TestCrashTornJournalRecord(t *testing.T) {
	dir, hs := seedStore(t, 8)
	k, _ := core.Identification(hs[0])
	payload := append(append([]byte{}, k[:]...), hs[0][:]...)
	rec := frame(recThunk, payload)
	appendRaw(t, filepath.Join(dir, "memo.journal"), rec[:len(rec)-3])

	d := mustOpen(t, dir, Options{})
	defer d.Close()
	st := d.Stats()
	if st.TruncatedTail != 1 {
		t.Fatalf("TruncatedTail = %d, want 1", st.TruncatedTail)
	}
	if st.MemoEntries != len(hs) {
		t.Fatalf("recovered %d memo entries, want %d", st.MemoEntries, len(hs))
	}
}

// TestCrashBetweenPackAndJournal: the process died after journaling a
// memo entry but with the result object's pack record torn (write-through
// touches two files; there is no cross-file atomicity). Each file
// recovers to its own consistent prefix — and RestoreInto must then drop
// the orphaned memo entry, because restoring it would short-circuit
// recomputation while the result bytes stay unfetchable forever.
func TestCrashBetweenPackAndJournal(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, Options{Fsync: FsyncNever})
	data := blobOf(7)
	h := core.BlobHandle(data)
	if err := d.PersistBlob(h, data); err != nil {
		t.Fatal(err)
	}
	thunk, _ := core.Identification(h)
	if err := d.PersistThunkResult(thunk, h); err != nil {
		t.Fatal(err)
	}
	d.closeFiles()

	// Tear the object record off the pack, keep the journal whole.
	pack := onlyPack(t, dir)
	raw, err := os.ReadFile(pack)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pack, raw[:magicLen+9], 0o644); err != nil {
		t.Fatal(err)
	}

	d2 := mustOpen(t, dir, Options{})
	defer d2.Close()
	st := d2.Stats()
	if st.Objects != 0 || st.MemoEntries != 1 {
		t.Fatalf("objects=%d memo=%d, want 0/1", st.Objects, st.MemoEntries)
	}
	mem := store.New()
	rs, err := d2.RestoreInto(mem)
	if err != nil {
		t.Fatal(err)
	}
	if rs.SkippedMemos != 1 {
		t.Fatalf("SkippedMemos = %d, want 1", rs.SkippedMemos)
	}
	if _, ok := mem.ThunkResult(thunk); ok {
		t.Fatal("orphaned memo entry must not be restored (it would wedge the thunk)")
	}
	if mem.Contains(h) {
		t.Fatal("torn object should not be resident")
	}
	var nf *store.ErrNotFound
	if _, err := mem.Blob(h); !errors.As(err, &nf) {
		t.Fatalf("want ErrNotFound for torn object, got %v", err)
	}
}

// TestCrashFsyncNeverReplay: a store written entirely under fsync=never
// and abandoned without any sync must still replay everything the OS
// kept (on the same machine that is all of it) — the policy weakens the
// durability guarantee, never the recovery invariant.
func TestCrashFsyncNeverReplay(t *testing.T) {
	dir, hs := seedStore(t, 32)
	d := mustOpen(t, dir, Options{Fsync: FsyncNever})
	defer d.Close()
	st := d.Stats()
	if st.Objects != len(hs) || st.MemoEntries != len(hs) {
		t.Fatalf("objects=%d memo=%d, want %d/%d", st.Objects, st.MemoEntries, len(hs), len(hs))
	}
	if st.TruncatedTail != 0 {
		t.Fatalf("unexpected truncation: %d", st.TruncatedTail)
	}
	mem := store.New()
	rs, err := d.RestoreInto(mem)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Blobs != len(hs) {
		t.Fatalf("restored %d blobs, want %d", rs.Blobs, len(hs))
	}
}

// TestCrashDoubleRestart: recover, append more, crash again, recover
// again — truncation and appends compose.
func TestCrashDoubleRestart(t *testing.T) {
	dir, hs := seedStore(t, 4)
	appendRaw(t, onlyPack(t, dir), []byte{1, 2, 3})

	d := mustOpen(t, dir, Options{Fsync: FsyncNever})
	data := blobOf(2000)
	h2 := core.BlobHandle(data)
	if err := d.PersistBlob(h2, data); err != nil {
		t.Fatal(err)
	}
	d.closeFiles()
	appendRaw(t, onlyPack(t, dir), []byte{9, 9, 9, 9, 9, 9})

	d2 := mustOpen(t, dir, Options{})
	defer d2.Close()
	if got := d2.Stats().Objects; got != len(hs)+1 {
		t.Fatalf("recovered %d objects, want %d", got, len(hs)+1)
	}
	if _, err := d2.ReadObject(h2); err != nil {
		t.Fatalf("post-recovery append lost: %v", err)
	}
}

// TestCrashRuntMagic: a crash during file creation can leave a pack or
// journal shorter than its 8-byte magic. Open must re-initialize the
// runt (its consistent prefix is empty), not refuse to boot.
func TestCrashRuntMagic(t *testing.T) {
	dir, hs := seedStore(t, 4)
	// Runt journal: overwrite with a 3-byte prefix of the magic.
	if err := os.WriteFile(filepath.Join(dir, "memo.journal"), []byte(journalMagic[:3]), 0o644); err != nil {
		t.Fatal(err)
	}
	// Runt second pack, as a crash during rotation would leave.
	if err := os.WriteFile(packPath(dir, 99), []byte{packMagic[0]}, 0o644); err != nil {
		t.Fatal(err)
	}
	d := mustOpen(t, dir, Options{Fsync: FsyncNever})
	defer d.Close()
	st := d.Stats()
	if st.Objects != len(hs) {
		t.Fatalf("recovered %d objects, want %d", st.Objects, len(hs))
	}
	if st.MemoEntries != 0 {
		t.Fatalf("runt journal should recover empty, got %d entries", st.MemoEntries)
	}
	// Both runts are usable again.
	data := blobOf(77)
	if err := d.PersistBlob(core.BlobHandle(data), data); err != nil {
		t.Fatal(err)
	}
	thunk, _ := core.Identification(hs[0])
	if err := d.PersistThunkResult(thunk, hs[0]); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreIntoWithPersisterAttached: restoring into a store whose
// persister is already this durable store must not deadlock (the
// write-through re-enters durable) and must not duplicate records.
func TestRestoreIntoWithPersisterAttached(t *testing.T) {
	dir, hs := seedStore(t, 8)
	d := mustOpen(t, dir, Options{Fsync: FsyncNever})
	defer d.Close()
	mem := store.New()
	mem.SetPersister(d) // wrong order on purpose
	rs, err := d.RestoreInto(mem)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Blobs != len(hs) {
		t.Fatalf("restored %d blobs, want %d", rs.Blobs, len(hs))
	}
	if got := d.Stats().Appends; got != 0 {
		t.Fatalf("restore wrote %d duplicate records back through", got)
	}
}

// TestCrashTornTreeLeaf: the result Tree's record survives (later pack)
// while one of its leaf Blobs is lost to a tear in an earlier pack. The
// restore must treat the memo as unfetchable — a shallow top-level check
// would serve a Tree whose leaf can never be read.
func TestCrashTornTreeLeaf(t *testing.T) {
	dir := t.TempDir()
	// Tiny packs force every record into its own file.
	d := mustOpen(t, dir, Options{Fsync: FsyncNever, MaxPackBytes: 32})
	leaf := blobOf(1)
	leafH := core.BlobHandle(leaf)
	if err := d.PersistBlob(leafH, leaf); err != nil {
		t.Fatal(err)
	}
	tree := []core.Handle{leafH}
	treeH := core.TreeHandle(tree)
	if err := d.PersistTree(treeH, tree); err != nil {
		t.Fatal(err)
	}
	thunk, _ := core.Identification(treeH)
	if err := d.PersistThunkResult(thunk, treeH); err != nil {
		t.Fatal(err)
	}
	d.closeFiles()

	// Corrupt the leaf's pack (the first rotated pack holding a record).
	packs, _ := filepath.Glob(filepath.Join(dir, "packs", "*.pack"))
	corrupted := false
	for _, p := range packs {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(raw)) > int64(magicLen) {
			raw[magicLen+recHeaderLen+core.HandleSize+3] ^= 0x10
			if err := os.WriteFile(p, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatal("no pack record found to corrupt")
	}

	d2 := mustOpen(t, dir, Options{})
	defer d2.Close()
	mem := store.New()
	rs, err := d2.RestoreInto(mem)
	if err != nil {
		t.Fatal(err)
	}
	if !mem.Contains(treeH) {
		t.Fatal("surviving tree record should be resident (it may be re-derived)")
	}
	if mem.Contains(leafH) {
		t.Fatal("torn leaf should not be resident")
	}
	if rs.SkippedMemos != 1 {
		t.Fatalf("SkippedMemos = %d, want 1 (tree leaf is unfetchable)", rs.SkippedMemos)
	}
	if _, ok := mem.ThunkResult(thunk); ok {
		t.Fatal("memo with unfetchable tree leaf must not be restored")
	}
}
