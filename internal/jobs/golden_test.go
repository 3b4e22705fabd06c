package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"fixgo/internal/core"
	"fixgo/internal/durable"
)

// goldenHandles rebuilds the handles testdata/golden.journal was written
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

// TestGoldenJournalReplays: a jobs journal written by an earlier build
// replays to the same job table, and re-encoding each record's handles in
// core's text form gives back its payload byte for byte. The journal
// holds every record type: a job done at once, one done after a failed
// attempt, one dead-lettered and one cancelled while running.
func TestGoldenJournalReplays(t *testing.T) {
	golden, err := os.ReadFile("testdata/golden.journal")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "jobs.journal")
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}

	records := 0
	j, dropped, err := durable.OpenJournal(path, jobsJournalMagic, durable.FsyncNever, func(recType byte, payload []byte) error {
		records++
		var body any
		var handle *string // the record's handle field, when it has one
		switch recType {
		case recEnqueued:
			b := new(recEnqueuedBody)
			body, handle = b, &b.Handle
		case recStarted:
			body = new(recStartedBody)
		case recCompleted:
			b := new(recCompletedBody)
			body, handle = b, &b.Result
		case recFailed:
			body = new(recFailedBody)
		case recCancelled:
			body = new(recCancelledBody)
		default:
			return fmt.Errorf("record type %d", recType)
		}
		if err := json.Unmarshal(payload, body); err != nil {
			return err
		}
		if handle != nil {
			h, err := core.ParseHandle(*handle)
			if err != nil {
				return err
			}
			*handle = core.FormatHandle(h)
		}
		again, err := json.Marshal(body)
		if err != nil {
			return err
		}
		if !bytes.Equal(again, payload) {
			t.Errorf("record type %d re-encodes as %s, journal holds %s", recType, again, payload)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if dropped != 0 || records != 16 {
		t.Fatalf("golden journal: %d records, %d bytes dropped; want 16 and 0", records, dropped)
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
