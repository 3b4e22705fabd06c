package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"fixgo/internal/core"
	"fixgo/internal/store"
)

// TestGoldenMemoJournalReplays: a memo journal written by an earlier
// build replays to the same memo tables through RestoreInto. The writer
// journaled three thunk and three encode memos, a remap of one thunk key
// and an identical re-put (deduplicated), ran a GC pass (compaction),
// then journaled a fourth thunk memo, a Shallow encode with a Ref result,
// and a remap of one encode key. Later records win.
func TestGoldenMemoJournalReplays(t *testing.T) {
	golden, err := os.ReadFile("testdata/golden_memo.journal")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "memo.journal")
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	j, dropped, records := replayAll(t, path, journalMagic)
	j.Close()
	if dropped != 0 || len(records) != 9 {
		t.Fatalf("golden journal: %d records, %d bytes dropped; want 9 and 0", len(records), dropped)
	}

	must := func(h core.Handle, err error) core.Handle {
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	var thunks, encodes []core.Handle
	for i := 0; i < 4; i++ {
		th := must(core.Identification(core.LiteralU64(uint64(i))))
		thunks = append(thunks, th)
		encodes = append(encodes, must(core.Strict(th)))
	}
	shallow := must(core.Shallow(thunks[3]))
	wantThunks := map[core.Handle]core.Handle{
		thunks[0]: core.LiteralU64(110),
		thunks[1]: core.LiteralU64(101),
		thunks[2]: core.LiteralU64(102),
		thunks[3]: core.LiteralU64(103),
	}
	wantEncodes := map[core.Handle]core.Handle{
		encodes[0]: core.LiteralU64(210),
		encodes[1]: core.LiteralU64(201),
		encodes[2]: core.LiteralU64(202),
		shallow:    core.LiteralU64(7).AsRef(),
	}

	// The last record, framed by this build, is the file's tail byte for
	// byte.
	rec := memoRecord(encodes[0], wantEncodes[encodes[0]])
	if last := frame(recEncode, rec[:]); !bytes.HasSuffix(golden, last) {
		t.Fatalf("golden journal does not end with this build's framing of its last record %x", last)
	}

	d := mustOpen(t, dir, Options{Fsync: FsyncNever})
	defer d.Close()
	if st := d.Stats(); st.MemoEntries != 8 || st.TruncatedTail != 0 {
		t.Fatalf("recovered %d memo entries, %d torn tails; want 8 and 0", st.MemoEntries, st.TruncatedTail)
	}
	mem := store.New()
	rs, err := d.RestoreInto(mem)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Thunks != 4 || rs.Encodes != 4 || rs.SkippedMemos != 0 {
		t.Fatalf("restore = %+v, want 4 thunks, 4 encodes, none skipped", rs)
	}
	for k, want := range wantThunks {
		if r, ok := mem.ThunkResult(k); !ok || r != want {
			t.Errorf("thunk %v restored as %v (%v), want %v", k, r, ok, want)
		}
	}
	for k, want := range wantEncodes {
		if r, ok := mem.EncodeResult(k); !ok || r != want {
			t.Errorf("encode %v restored as %v (%v), want %v", k, r, ok, want)
		}
	}
}
