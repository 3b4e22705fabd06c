package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"fixgo/internal/core"
)

// heldFsync is the fsync seam swapped for one that holds the first sync
// of a matching file in flight until release, and counts every sync.
type heldFsync struct {
	held     chan struct{} // receives once the first matching sync is held
	gate     chan struct{}
	once     sync.Once
	holding  atomic.Bool
	released atomic.Bool
	calls    atomic.Int64
}

// holdFsync installs a heldFsync for files whose name contains match (""
// matches every file). The held sync runs as os.File.Sync does, inside a
// reference on the descriptor (RawConn.Control), so a Close meanwhile is
// deferred by os.File exactly as it is during a real fsync.
func holdFsync(t *testing.T, match string) *heldFsync {
	t.Helper()
	h := &heldFsync{held: make(chan struct{}, 1), gate: make(chan struct{})}
	prev := fsync
	fsync = func(f *os.File) error {
		h.calls.Add(1)
		if !strings.Contains(f.Name(), match) || !h.holding.CompareAndSwap(false, true) {
			return prev(f)
		}
		rc, err := f.SyscallConn()
		if err != nil {
			return err
		}
		var serr error
		if err := rc.Control(func(fd uintptr) {
			h.held <- struct{}{}
			<-h.gate
			serr = syscall.Fsync(int(fd))
		}); err != nil {
			return err
		}
		return serr
	}
	t.Cleanup(func() {
		h.release()
		fsync = prev
	})
	return h
}

func (h *heldFsync) release() {
	h.once.Do(func() {
		h.released.Store(true)
		close(h.gate)
	})
}

// waitHeld fails the test unless a sync is held within a few seconds.
func (h *heldFsync) waitHeld(t *testing.T) {
	t.Helper()
	select {
	case <-h.held:
	case <-time.After(5 * time.Second):
		t.Fatal("no sync reached the fsync seam")
	}
}

// within runs fn in its own goroutine while the sync is held, and fails
// the test unless fn returns within a few seconds. On failure it
// releases the sync first, so the test's deferred Close can finish.
func (h *heldFsync) within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		h.release()
		<-done
		t.Fatalf("%s waited on a held fsync", what)
	}
}

// TestJournalAppendsDoNotWaitOnSync: while one Sync is held in its
// fsync, 100 Appends from another goroutine complete, and Close returns
// only after the held sync does.
func TestJournalAppendsDoNotWaitOnSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.journal")
	j, _, _ := replayAll(t, path, "TESTJNL1")
	if err := j.Append(1, []byte("first")); err != nil {
		t.Fatal(err)
	}
	h := holdFsync(t, "")
	syncErr := make(chan error, 1)
	go func() { syncErr <- j.Sync() }()
	h.waitHeld(t)

	var appended int
	h.within(t, "Append", func() {
		for i := 0; i < 100; i++ {
			if err := j.Append(2, []byte{byte(i)}); err != nil {
				t.Error(err)
				return
			}
			appended++
		}
	})
	if appended != 100 {
		t.Fatalf("%d of 100 appends completed while a sync was held", appended)
	}

	closed := make(chan bool, 1)
	go func() {
		if err := j.Close(); err != nil {
			t.Error(err)
		}
		closed <- h.released.Load()
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a sync was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	h.release()
	if err := <-syncErr; err != nil {
		t.Fatalf("held Sync: %v", err)
	}
	if !<-closed {
		t.Fatal("Close returned before the held sync")
	}
	j, _, got := replayAll(t, path, "TESTJNL1")
	defer j.Close()
	if len(got) != 101 {
		t.Fatalf("replayed %d records, want 101", len(got))
	}
}

// TestJournalCommitCoveredSkipsFsync: under FsyncAlways, a Commit whose
// records an earlier fsync already covered issues none of its own.
func TestJournalCommitCoveredSkipsFsync(t *testing.T) {
	j, _, err := OpenJournal(filepath.Join(t.TempDir(), "test.journal"), "TESTJNL1", FsyncAlways, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append(1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	h := holdFsync(t, "")
	first := make(chan error, 1)
	go func() { first <- j.Commit() }()
	h.waitHeld(t)
	// Appended before the held fsync started, so it covers this one.
	second := make(chan error, 1)
	go func() { second <- j.Commit() }()
	time.Sleep(10 * time.Millisecond) // let the second Commit queue behind the first
	h.release()
	if err := errors.Join(<-first, <-second); err != nil {
		t.Fatal(err)
	}
	if n := h.calls.Load(); n != 1 {
		t.Fatalf("two Commits of one record issued %d fsyncs, want 1", n)
	}
	if err := errors.Join(j.Append(1, []byte("b")), j.Commit()); err != nil {
		t.Fatal(err)
	}
	if n := h.calls.Load(); n != 2 {
		t.Fatalf("a Commit of a new record: %d fsyncs in all, want 2", n)
	}
}

// TestJournalFailedSyncStaysDirty: a sync whose fsync fails covers
// nothing, so the next Sync retries it.
func TestJournalFailedSyncStaysDirty(t *testing.T) {
	j, _, err := OpenJournal(filepath.Join(t.TempDir(), "test.journal"), "TESTJNL1", FsyncNever, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := errors.Join(j.Append(1, []byte("a")), j.Sync()); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(1, []byte("b")); err != nil {
		t.Fatal(err)
	}
	prev := fsync
	defer func() { fsync = prev }()
	var calls int
	failure := errors.New("injected fsync failure")
	fsync = func(f *os.File) error {
		if calls++; calls == 1 {
			return failure
		}
		return prev(f)
	}
	if err := j.Sync(); !errors.Is(err, failure) {
		t.Fatalf("first Sync = %v, want the injected failure", err)
	}
	if err := j.Sync(); err != nil || calls != 2 {
		t.Fatalf("retry Sync = %v after %d fsyncs, want nil after 2", err, calls)
	}
	if err := j.Sync(); err != nil || calls != 2 {
		t.Fatalf("clean Sync = %v after %d fsyncs, want nil and no new fsync", err, calls)
	}
}

// TestStorePersistsDoNotWaitOnSync: while the packs' sync is held in its
// fsync, persists, memo appends and reads all complete.
func TestStorePersistsDoNotWaitOnSync(t *testing.T) {
	d := mustOpen(t, t.TempDir(), Options{Fsync: FsyncNever})
	defer d.Close()
	seed := core.BlobHandle(blobOf(0))
	if err := d.PersistBlob(seed, blobOf(0)); err != nil {
		t.Fatal(err)
	}
	h := holdFsync(t, ".pack")
	syncErr := make(chan error, 1)
	go func() { syncErr <- d.Sync() }()
	h.waitHeld(t)
	var done int
	h.within(t, "a persist", func() {
		for i := 1; i <= 100; i++ {
			b := core.BlobHandle(blobOf(i))
			tree := []core.Handle{b}
			th, _ := core.Identification(b)
			err := errors.Join(
				d.PersistBlob(b, blobOf(i)),
				d.PersistTree(core.TreeHandle(tree), tree),
				d.PersistThunkResult(th, b),
			)
			if _, rerr := d.ReadObject(seed); err != nil || rerr != nil {
				t.Error(err, rerr)
				return
			}
			done++
		}
	})
	if done != 100 {
		t.Fatalf("%d of 100 persist rounds completed while a sync was held", done)
	}
	h.release()
	if err := <-syncErr; err != nil {
		t.Fatal(err)
	}
}

// TestGCRetiresPackMidSync: GC closes and removes a pack whose fsync is
// in flight. GC does not wait for the sync; os.File defers the close
// until the fsync returns, so the sync succeeds, and every object it
// keeps survives a reopen. The pass drops one record, so it has a sweep
// to run. Run under -race, it also pins that the sync's reads of the
// pack race nothing GC writes.
func TestGCRetiresPackMidSync(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, Options{Fsync: FsyncNever})
	var hs []core.Handle
	for i := 0; i < 21; i++ {
		b := core.BlobHandle(blobOf(i))
		if err := d.PersistBlob(b, blobOf(i)); err != nil {
			t.Fatal(err)
		}
		hs = append(hs, b)
	}
	garbage := hs[20]
	hs = hs[:20]
	old := packPath(dir, d.active)
	h := holdFsync(t, old)
	syncErr := make(chan error, 1)
	go func() { syncErr <- d.Sync() }()
	h.waitHeld(t)
	h.within(t, "GC", func() {
		if _, err := d.GC(func(h core.Handle) bool { return h != garbage }); err != nil {
			t.Error(err)
		}
	})
	if _, err := os.Stat(old); !os.IsNotExist(err) {
		t.Fatalf("GC left its retired pack %s: %v", old, err)
	}
	h.release()
	if err := <-syncErr; err != nil {
		t.Fatalf("sync of a pack GC retired mid-sync: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d = mustOpen(t, dir, Options{Fsync: FsyncNever})
	defer d.Close()
	for i, b := range hs {
		got, err := d.ReadObject(b)
		if err != nil || !bytes.Equal(got, blobOf(i)) {
			t.Fatalf("object %d after reopen: %v", i, err)
		}
	}
}

// countFsyncs swaps the fsync seam for one that counts the syncs of each
// file by base name.
func countFsyncs(t testing.TB) func(name string) int {
	var mu sync.Mutex
	counts := map[string]int{}
	prev := fsync
	fsync = func(f *os.File) error {
		mu.Lock()
		counts[filepath.Base(f.Name())]++
		mu.Unlock()
		return prev(f)
	}
	t.Cleanup(func() { fsync = prev })
	return func(name string) int {
		mu.Lock()
		defer mu.Unlock()
		return counts[name]
	}
}

// goroutinesSettle fails the test unless the goroutine count falls back to
// at most base within a second.
func goroutinesSettle(t *testing.T, base int, when string) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, want at most %d", when, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestIntervalSyncsByTimer: under FsyncInterval an open file costs no
// goroutine. One append syncs its file exactly once within the interval,
// a later append arms the timer again, an untouched file is never synced,
// and after Close no timer fires.
func TestIntervalSyncsByTimer(t *testing.T) {
	count := countFsyncs(t)
	dir := t.TempDir()
	base := runtime.NumGoroutine()
	const n = 4
	var js [n]*Journal
	for i := range js {
		j, _, err := OpenJournal(filepath.Join(dir, fmt.Sprintf("j%d.journal", i)), "TESTJNL1", FsyncInterval, nil)
		if err != nil {
			t.Fatal(err)
		}
		js[i] = j
	}
	d := mustOpen(t, filepath.Join(dir, "store"), Options{Fsync: FsyncInterval})
	goroutinesSettle(t, base, "after opening 4 journals and a store")

	for _, j := range js[:n-1] {
		if err := j.Append(1, []byte("a")); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.PersistBlob(core.BlobHandle(blobOf(1)), blobOf(1)); err != nil {
		t.Fatal(err)
	}
	pack := filepath.Base(packPath(dir, d.active))
	time.Sleep(3 * fsyncEvery)
	want := map[string]int{"j0.journal": 1, "j1.journal": 1, "j2.journal": 1, "j3.journal": 0, pack: 1, "memo.journal": 0}
	for name, w := range want {
		if got := count(name); got != w {
			t.Errorf("%s: %d fsyncs after one interval, want %d", name, got, w)
		}
	}

	if err := js[0].Append(1, []byte("b")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * fsyncEvery)
	want["j0.journal"] = 2
	for name, w := range want {
		if got := count(name); got != w {
			t.Errorf("%s: %d fsyncs after a second append to j0, want %d", name, got, w)
		}
	}

	for _, j := range js {
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	for name := range want {
		want[name] = count(name) // Close syncs the untouched files' magic
	}
	time.Sleep(3 * fsyncEvery)
	for name, w := range want {
		if got := count(name); got != w {
			t.Errorf("%s: %d fsyncs after Close, want none", name, got-w)
		}
	}
	goroutinesSettle(t, base, "after Close")
}

// BenchmarkPersistAlways: PersistBlob under FsyncAlways from 1, 4 and 16
// concurrent writers, with the fsyncs each persist costs counted through
// the seam — fewer than one per persist means one fsync covered several
// writers' records.
func BenchmarkPersistAlways(b *testing.B) {
	for _, writers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			d, err := Open(b.TempDir(), Options{Fsync: FsyncAlways})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			count := countFsyncs(b)
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for range writers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := next.Add(1); i <= int64(b.N); i = next.Add(1) {
						blob := binary.LittleEndian.AppendUint64(make([]byte, 0, 64), uint64(i))[:64]
						if err := d.PersistBlob(core.BlobHandle(blob), blob); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(count(filepath.Base(packPath(d.dir, d.active))))/float64(b.N), "fsyncs/op")
		})
	}
}

// Sync forces all buffered appends to stable storage, whatever the
// fsync policy. Only tests need that; the Store syncs by its policy.
func (d *Store) Sync() error {
	d.mu.Lock()
	packs := make([]*Journal, 0, len(d.packs))
	for _, p := range d.packs {
		packs = append(packs, p)
	}
	d.mu.Unlock()
	err := d.journal.Sync()
	for _, p := range packs {
		// A pack closed meanwhile was retired by GC, which synced the
		// records' new home.
		if perr := p.Sync(); err == nil && !errors.Is(perr, errJournalClosed) {
			err = perr
		}
	}
	return err
}
