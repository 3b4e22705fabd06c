package edgelog

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fixgo/internal/core"
	"fixgo/internal/durable"
)

// copyGolden copies a testdata journal into a fresh temp path.
func copyGolden(t *testing.T, name string) string {
	t.Helper()
	golden, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "edge.journal")
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestGoldenJournalReplays: an edge journal written by an earlier build
// replays to the same table, and re-encoding each replayed entry gives
// back its record byte for byte. The journal holds an accepted entry with
// a two-object payload, and done, cancelled and dead-letter settlements.
func TestGoldenJournalReplays(t *testing.T) {
	path := copyGolden(t, "golden-v2.journal")
	records := 0
	j, dropped, err := durable.OpenJournal(path, edgeJournalMagic, durable.FsyncNever, func(recType byte, payload []byte) error {
		records++
		e, err := decodeRecord(payload)
		if err != nil {
			return err
		}
		if again := appendRecord(nil, &e); !bytes.Equal(again, payload) {
			t.Errorf("entry %s re-encodes as %x, journal holds %x", e.Job, again, payload)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if dropped != 0 || records != 7 {
		t.Fatalf("golden journal: %d records, %d bytes dropped; want 7 and 0", records, dropped)
	}

	r, err := New(Options{ID: "gw-replay", JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	must := func(h core.Handle, err error) core.Handle {
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	big := bytes.Repeat([]byte("golden"), 20)
	blob := core.BlobHandle(big)
	entries := []core.Handle{core.LiteralU64(1 << 20), core.BlobHandle(bytes.Repeat([]byte{0xfe}, 64)), blob, core.LiteralU64(7).AsRef()}
	tree := core.TreeHandle(entries)
	app := must(core.Application(tree))
	strict := must(core.Strict(app))
	shallow := must(core.Shallow(app))
	ident := must(core.Strict(must(core.Identification(core.LiteralU64(42)))))
	sel := must(core.Strict(must(core.SelectionThunk(core.TreeHandle(core.SelectionEntries(tree, 2))))))
	type row struct {
		job, tenant    string
		state          EntryState
		handle, result core.Handle
	}
	// Job IDs are jobs.JobID(tenant, handle), as the gateway wrote them.
	want := map[string]row{
		"4e623ce23de5f0e0a12722870f8eb4ad": {"4e623ce23de5f0e0a12722870f8eb4ad", "tenant-a", EntryAccepted, strict, core.Handle{}},
		"358473865ef047756af6e7ba8184a4fb": {"358473865ef047756af6e7ba8184a4fb", "tenant-a", EntryDone, ident, core.LiteralU64(42)},
		"9031c077211439461076006fbfad04b4": {"9031c077211439461076006fbfad04b4", "tenant-b", EntryCancelled, shallow, core.Handle{}},
		"c49eea5eba027c257777512ce55489dc": {"c49eea5eba027c257777512ce55489dc", "tenant-a", EntryDeadLetter, sel, core.Handle{}},
		"45427c478eda5ab2aee3b0b77e5a3270": {"45427c478eda5ab2aee3b0b77e5a3270", "tenant-c", EntryDone, strict, blob},
	}
	got := r.Entries()
	if len(got) != len(want) {
		t.Fatalf("replayed %d entries, want %d", len(got), len(want))
	}
	for _, e := range got {
		if g := (row{e.Job, e.Tenant, e.State, e.Handle, e.Result}); g != want[e.Job] || e.Origin != "gw-golden" {
			t.Errorf("entry replayed as %+v from %s, want %+v from gw-golden", g, e.Origin, want[e.Job])
		}
		wantObjects := 0
		if e.State == EntryAccepted {
			wantObjects = 2
		}
		if len(e.Objects) != wantObjects {
			t.Errorf("entry %s replayed %d payload objects, want %d", e.Job, len(e.Objects), wantObjects)
			continue
		}
		if wantObjects > 0 && (e.Objects[0].Handle != tree || !bytes.Equal(e.Objects[0].Data, core.TreeBytes(entries)) ||
			e.Objects[1].Handle != blob || !bytes.Equal(e.Objects[1].Data, big)) {
			t.Errorf("accepted entry's payload replayed as %v", e.Objects)
		}
	}
}

// TestOldJournalRefused: a FIXEDGE1 journal (JSON records) is not read;
// New fails with an error naming the file.
func TestOldJournalRefused(t *testing.T) {
	path := copyGolden(t, "golden-v1.journal")
	r, err := New(Options{ID: "gw-replay", JournalPath: path})
	if err == nil {
		r.Close()
		t.Fatal("New opened a FIXEDGE1 journal")
	}
	if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "FIXEDGE1") {
		t.Fatalf("New: %v; want an error naming %s and its FIXEDGE1 magic", err, path)
	}
}
