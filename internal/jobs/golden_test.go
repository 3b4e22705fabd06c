package jobs

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"fixgo/internal/core"
	"fixgo/internal/durable"
)

// goldenHandles rebuilds the handles the golden journals were written
// with, from core's constructors alone: a Strict and a Shallow Encode of
// one Application, a Strict Identification of a literal, a Strict
// Selection, and the non-literal Blob one job returned.
func goldenHandles(t *testing.T) (strict, shallow, ident, sel, blob core.Handle) {
	t.Helper()
	must := func(h core.Handle, err error) core.Handle {
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	blob = core.BlobHandle(bytes.Repeat([]byte("golden"), 20))
	fn := core.BlobHandle(bytes.Repeat([]byte{0xfe}, 64))
	tree := core.TreeHandle([]core.Handle{core.LiteralU64(1 << 20), fn, blob, core.LiteralU64(7).AsRef()})
	app := must(core.Application(tree))
	strict = must(core.Strict(app))
	shallow = must(core.Shallow(app))
	ident = must(core.Strict(must(core.Identification(core.LiteralU64(42)))))
	sel = must(core.Strict(must(core.SelectionThunk(core.TreeHandle(core.SelectionEntries(tree, 2))))))
	return strict, shallow, ident, sel, blob
}

// copyGolden copies a testdata journal into a fresh temp path.
func copyGolden(t *testing.T, name string) string {
	t.Helper()
	golden, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "jobs.journal")
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// goldenRecords replays a jobs journal's raw records.
func goldenRecords(t testing.TB, path string) [][]byte {
	t.Helper()
	var out [][]byte
	j, dropped, err := durable.OpenJournal(path, jobsJournalMagic, durable.FsyncNever, func(recType byte, payload []byte) error {
		if recType != recJob {
			t.Errorf("record type %d, want %d", recType, recJob)
		}
		out = append(out, bytes.Clone(payload))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if dropped != 0 {
		t.Fatalf("%s: %d bytes dropped", path, dropped)
	}
	return out
}

// TestGoldenJournalReplays: a jobs journal written by an earlier build
// replays to the same job table, and re-encoding each decoded snapshot
// gives back its record byte for byte. The journal holds one snapshot per
// transition of a job done at once, one done after a failed attempt, one
// dead-lettered and one cancelled while running.
func TestGoldenJournalReplays(t *testing.T) {
	path := copyGolden(t, "golden-v2.journal")
	records := goldenRecords(t, path)
	if len(records) != 16 {
		t.Fatalf("golden journal: %d records, want 16", len(records))
	}
	for _, p := range records {
		v, err := decodeJob(p)
		if err != nil {
			t.Fatal(err)
		}
		if again := appendJob(nil, &v); !bytes.Equal(again, p) {
			t.Errorf("job %s re-encodes as %x, journal holds %x", v.ID, again, p)
		}
	}

	m, err := New(Options{
		JournalPath: path,
		Eval: func(ctx context.Context, h core.Handle) (core.Handle, error) {
			t.Errorf("replay ran job %v: the golden journal holds no pending job", h)
			return core.Handle{}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	strict, shallow, ident, sel, blob := goldenHandles(t)
	type row struct {
		id       string
		state    State
		handle   core.Handle
		result   core.Handle
		attempts int
		err      string
	}
	want := []row{
		{JobID("tenant-a", strict), StateDone, strict, blob, 1, ""},
		{JobID("tenant-a", ident), StateDone, ident, core.LiteralU64(42), 2, ""},
		{JobID("tenant-a", sel), StateDeadLetter, sel, core.Handle{}, 2, "always fails"},
		{JobID("tenant-b", shallow), StateCancelled, shallow, core.Handle{}, 1, ""},
	}
	var got []row
	for _, v := range m.List() {
		got = append(got, row{v.ID, v.State, v.Handle, v.Result, v.Attempts, v.Error})
	}
	sort.Slice(want, func(a, b int) bool { return want[a].id < want[b].id })
	sort.Slice(got, func(a, b int) bool { return got[a].id < got[b].id })
	if len(got) != len(want) {
		t.Fatalf("replayed %d jobs, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("job %d replayed as %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestOldJournalRefused: a FIXJOBS1 journal (JSON records, one per
// transition kind) is not read; New fails with an error naming the file.
func TestOldJournalRefused(t *testing.T) {
	path := copyGolden(t, "golden-v1.journal")
	m, err := New(Options{JournalPath: path, Eval: echoEval(0)})
	if err == nil {
		m.Close()
		t.Fatal("New opened a FIXJOBS1 journal")
	}
	if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "FIXJOBS1") {
		t.Fatalf("New: %v; want an error naming %s and its FIXJOBS1 magic", err, path)
	}
}

// FuzzJobRecord: decodeJob never panics, and on every record it accepts,
// appendJob gives back the same bytes and decoding those gives the same
// snapshot.
func FuzzJobRecord(f *testing.F) {
	for _, p := range goldenRecords(f, filepath.Join("testdata", "golden-v2.journal")) {
		f.Add(p)
	}
	f.Add([]byte{})
	f.Add(make([]byte, jobRecordFixed+8))
	f.Fuzz(func(t *testing.T, p []byte) {
		v, err := decodeJob(p)
		if err != nil {
			return
		}
		again := appendJob(nil, &v)
		if !bytes.Equal(again, p) {
			t.Fatalf("record %x re-encodes as %x", p, again)
		}
		if w, err := decodeJob(again); err != nil || w != v {
			t.Fatalf("re-encoded record decodes as %+v, %v; want %+v", w, err, v)
		}
	})
}
