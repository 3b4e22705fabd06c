package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// frame encodes one record into a buffer of its own.
func frame(recType byte, payload []byte) []byte {
	return appendFrame(nil, recType, nil, payload)
}

type jrec struct {
	typ     byte
	payload string
}

func replayAll(t *testing.T, path, magic string) (*Journal, int64, []jrec) {
	t.Helper()
	var got []jrec
	j, dropped, err := OpenJournal(path, magic, FsyncNever, func(recType byte, payload []byte) error {
		got = append(got, jrec{recType, string(payload)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return j, dropped, got
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.journal")
	j, dropped, got := replayAll(t, path, "TESTJNL1")
	if dropped != 0 || len(got) != 0 {
		t.Fatalf("fresh journal: dropped=%d records=%d", dropped, len(got))
	}
	want := []jrec{{1, "alpha"}, {2, "beta"}, {1, "gamma"}}
	for _, r := range want {
		if err := j.Append(r.typ, []byte(r.payload)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j, dropped, got = replayAll(t, path, "TESTJNL1")
	defer j.Close()
	if dropped != 0 {
		t.Fatalf("clean reopen dropped %d bytes", dropped)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestJournalTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.journal")
	j, _, _ := replayAll(t, path, "TESTJNL1")
	if err := j.Append(1, []byte("kept")); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(1, []byte("torn-away")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the last record's CRC off, as a crash mid-append would.
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-2); err != nil {
		t.Fatal(err)
	}

	j, dropped, got := replayAll(t, path, "TESTJNL1")
	if dropped == 0 {
		t.Error("torn tail not reported")
	}
	if len(got) != 1 || got[0].payload != "kept" {
		t.Fatalf("replayed %v, want just the intact record", got)
	}
	// The journal must be appendable again after truncation.
	if err := j.Append(2, []byte("after")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, dropped, got = replayAll(t, path, "TESTJNL1")
	if dropped != 0 || len(got) != 2 {
		t.Fatalf("post-recovery reopen: dropped=%d records=%d, want 0/2", dropped, len(got))
	}
}

func TestJournalRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.journal")
	j, _, _ := replayAll(t, path, "TESTJNL1")
	for i := 0; i < 100; i++ {
		if err := j.Append(1, []byte(fmt.Sprintf("superseded-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	before := j.Size()
	if err := j.Rewrite(func(emit func(byte, []byte) error) error {
		return emit(2, []byte("folded"))
	}); err != nil {
		t.Fatal(err)
	}
	if j.Size() >= before {
		t.Errorf("rewrite did not shrink the journal: %d -> %d", before, j.Size())
	}
	// The rewritten journal stays appendable and replays the folded state.
	if err := j.Append(1, []byte("tail")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, dropped, got := replayAll(t, path, "TESTJNL1")
	want := []jrec{{2, "folded"}, {1, "tail"}}
	if dropped != 0 || len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("after rewrite: dropped=%d got=%v, want %v", dropped, got, want)
	}
}

func TestJournalBadMagicRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.journal")
	j, _, _ := replayAll(t, path, "TESTJNL1")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenJournal(path, "OTHERMG1", FsyncNever, nil); err == nil {
		t.Fatal("journal with mismatched magic opened without error")
	}
}

// FuzzJournal feeds OpenJournal a valid magic followed by arbitrary
// bytes. Replay must not panic or fail; a second open must drop nothing
// and replay the same records; and a record appended after a truncated
// tail must replay right after the surviving prefix.
func FuzzJournal(f *testing.F) {
	f.Add([]byte{})
	f.Add(frame(1, []byte("alpha")))
	f.Add(append(frame(1, []byte("alpha")), frame(2, []byte("beta"))[:6]...))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Fuzz(func(t *testing.T, tail []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.journal")
		if err := os.WriteFile(path, append([]byte("FUZZJNL1"), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		j, _, first := replayAll(t, path, "FUZZJNL1")
		j.Close()
		j, dropped, again := replayAll(t, path, "FUZZJNL1")
		if dropped != 0 || !reflect.DeepEqual(again, first) {
			t.Fatalf("second open dropped %d bytes and replayed %v, want 0 and %v", dropped, again, first)
		}
		if err := j.Append(7, []byte("after-tear")); err != nil {
			t.Fatal(err)
		}
		j.Close()
		j, dropped, got := replayAll(t, path, "FUZZJNL1")
		j.Close()
		want := append(first, jrec{7, "after-tear"})
		if dropped != 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("after an append: dropped %d, replayed %v; want 0 and %v", dropped, got, want)
		}
	})
}
