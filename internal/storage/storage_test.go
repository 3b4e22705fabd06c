package storage

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fixgo/internal/core"
	"fixgo/internal/durable"
	"fixgo/internal/store"
)

func blob(i int) (core.Handle, []byte) {
	data := bytes.Repeat([]byte{byte(i), byte(i >> 8)}, 64)
	data = append(data, []byte(fmt.Sprintf("object-%d", i))...)
	return core.BlobHandle(data), data
}

// roundTrip drives the common Storage contract: Put, Has, Get,
// Delete semantics, and typed misses.
func roundTrip(t *testing.T, st Storage, deletable bool) {
	t.Helper()
	ctx := context.Background()
	h, data := blob(1)
	if ok, err := st.Has(ctx, h); err != nil || ok {
		t.Fatalf("Has before Put = %v, %v", ok, err)
	}
	if _, err := st.Get(ctx, h); !IsNotFound(err) {
		t.Fatalf("Get before Put: err = %v, want not-found", err)
	}
	if err := st.Put(ctx, h, data); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(ctx, h, data); err != nil {
		t.Fatalf("idempotent Put: %v", err)
	}
	if ok, err := st.Has(ctx, h); err != nil || !ok {
		t.Fatalf("Has after Put = %v, %v", ok, err)
	}
	got, err := st.Get(ctx, h)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if err := st.Delete(ctx, h); err != nil {
		t.Fatal(err)
	}
	if deletable {
		if ok, _ := st.Has(ctx, h); ok {
			t.Fatal("object survives Delete")
		}
		if err := st.Delete(ctx, h); err != nil {
			t.Fatalf("Delete of absent object: %v", err)
		}
	}
}

func TestDirRoundTrip(t *testing.T) {
	d, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, d, true)
	st := d.StorageStats()
	if st.RemotePuts == 0 || st.RemoteGets == 0 || st.RemoteDeletes == 0 {
		t.Fatalf("counters not advancing: %+v", st)
	}
}

func TestLocalRoundTrip(t *testing.T) {
	mem := store.New()
	dur, _, err := durable.Attach(t.TempDir(), durable.Options{}, mem)
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	// Local has no per-object delete (pack GC owns reclamation).
	roundTrip(t, NewLocal(dur), false)
}

func TestLocalTreePut(t *testing.T) {
	mem := store.New()
	dur, _, err := durable.Attach(t.TempDir(), durable.Options{}, mem)
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	l := NewLocal(dur)
	ctx := context.Background()
	h1, d1 := blob(10)
	h2, d2 := blob(11)
	if err := l.Put(ctx, h1, d1); err != nil {
		t.Fatal(err)
	}
	if err := l.Put(ctx, h2, d2); err != nil {
		t.Fatal(err)
	}
	entries := []core.Handle{h1, h2}
	th := core.TreeHandle(entries)
	enc := core.EncodeTree(entries)
	if err := l.Put(ctx, th, enc); err != nil {
		t.Fatal(err)
	}
	got, err := l.Get(ctx, th)
	if err != nil || !bytes.Equal(got, enc) {
		t.Fatalf("tree Get = %x, %v, want %x", got, err, enc)
	}
}

func TestLFCRoundTrip(t *testing.T) {
	d, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewLFC(t.TempDir(), 1<<20, d)
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, c, true)
}

func TestHybridRoundTrip(t *testing.T) {
	mem := store.New()
	dur, _, err := durable.Attach(t.TempDir(), durable.Options{}, mem)
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	remote, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hy := NewHybrid(NewLocal(dur), remote)
	defer hy.Close()
	// Local side has no delete, so post-delete state is tier-dependent.
	roundTrip(t, hy, false)
	if err := hy.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestHybridFallbackMatrix pins the tentpole's read-fallback chain:
// local hit, LFC hit, remote hit, and a miss at every tier.
func TestHybridFallbackMatrix(t *testing.T) {
	ctx := context.Background()
	mem := store.New()
	dur, _, err := durable.Attach(t.TempDir(), durable.Options{}, mem)
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	local := NewLocal(dur)
	remote, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	lfc, err := NewLFC(t.TempDir(), 1<<20, remote)
	if err != nil {
		t.Fatal(err)
	}
	hy := NewHybrid(local, lfc)
	defer hy.Close()

	// Case 1: local hit — written through Put, never read from remote.
	h1, d1 := blob(1)
	if err := hy.Put(ctx, h1, d1); err != nil {
		t.Fatal(err)
	}
	if got, err := hy.Get(ctx, h1); err != nil || !bytes.Equal(got, d1) {
		t.Fatalf("local hit: %v", err)
	}

	// Case 2: LFC hit — present only in the remote chain, first read
	// fills the cache, second read must hit it.
	h2, d2 := blob(2)
	if err := remote.Put(ctx, h2, d2); err != nil {
		t.Fatal(err)
	}
	if _, err := hy.Get(ctx, h2); err != nil {
		t.Fatalf("remote hit (fill): %v", err)
	}
	before := lfc.StorageStats().LFCHits
	if got, err := hy.Get(ctx, h2); err != nil || !bytes.Equal(got, d2) {
		t.Fatalf("lfc hit: %v", err)
	}
	if after := lfc.StorageStats().LFCHits; after != before+1 {
		t.Fatalf("second read did not hit the LFC: hits %d → %d", before, after)
	}

	// Case 3: remote hit with a cold cache — drop the cache entry, the
	// read must still come back from the remote tier.
	h3, d3 := blob(3)
	if err := remote.Put(ctx, h3, d3); err != nil {
		t.Fatal(err)
	}
	gets := remote.StorageStats().RemoteGets
	if got, err := hy.Get(ctx, h3); err != nil || !bytes.Equal(got, d3) {
		t.Fatalf("remote hit: %v", err)
	}
	if after := remote.StorageStats().RemoteGets; after != gets+1 {
		t.Fatalf("read did not reach the remote tier: gets %d → %d", gets, after)
	}

	// Case 4: miss everywhere.
	h4, _ := blob(4)
	if _, err := hy.Get(ctx, h4); !IsNotFound(err) {
		t.Fatalf("full miss: err = %v, want not-found", err)
	}

	// The async upload of case 1 must reach the remote side: flush, then
	// confirm through the demotion-confirmation facet.
	if err := hy.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if ok, err := hy.RemoteHas(ctx, h1); err != nil || !ok {
		t.Fatalf("RemoteHas after flush = %v, %v", ok, err)
	}
}

func TestLFCEvictionByBudget(t *testing.T) {
	ctx := context.Background()
	remote, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Each test blob is 128+len(suffix) bytes; budget fits ~3 of them.
	c, err := NewLFC(t.TempDir(), 420, remote)
	if err != nil {
		t.Fatal(err)
	}
	var hs []core.Handle
	for i := 0; i < 6; i++ {
		h, d := blob(i)
		if err := c.Put(ctx, h, d); err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	st := c.StorageStats()
	if st.LFCBytes > 420 {
		t.Fatalf("resident bytes %d exceed budget", st.LFCBytes)
	}
	if st.LFCEvictions == 0 {
		t.Fatal("no evictions despite exceeding the budget")
	}
	// Every object must still be readable through the cache (from remote).
	for _, h := range hs {
		if _, err := c.Get(ctx, h); err != nil {
			t.Fatalf("object lost after eviction: %v", err)
		}
	}
}

// TestLFCWarmReopen pins the warm-restart property: a new LFC over the
// same directory adopts the previous run's files and serves them as hits
// without touching the backing tier.
func TestLFCWarmReopen(t *testing.T) {
	ctx := context.Background()
	remoteDir, cacheDir := t.TempDir(), t.TempDir()
	remote, err := NewDir(remoteDir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewLFC(cacheDir, 1<<20, remote)
	if err != nil {
		t.Fatal(err)
	}
	h, d := blob(7)
	if err := c.Put(ctx, h, d); err != nil {
		t.Fatal(err)
	}

	// Warm reopen: same cache dir, fresh index.
	remote2, err := NewDir(remoteDir)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := NewLFC(cacheDir, 1<<20, remote2)
	if err != nil {
		t.Fatal(err)
	}
	if got := warm.StorageStats().LFCEntries; got != 1 {
		t.Fatalf("warm reopen adopted %d entries, want 1", got)
	}
	gets := remote2.StorageStats().RemoteGets
	if got, err := warm.Get(ctx, h); err != nil || !bytes.Equal(got, d) {
		t.Fatalf("warm Get = %v", err)
	}
	if remote2.StorageStats().RemoteGets != gets {
		t.Fatal("warm read went to the remote tier")
	}
	if warm.StorageStats().LFCHits != 1 {
		t.Fatal("warm read not counted as a cache hit")
	}

	// Cold reopen: fresh cache dir, the same read must miss.
	cold, err := NewLFC(t.TempDir(), 1<<20, remote2)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := cold.Get(ctx, h); err != nil || !bytes.Equal(got, d) {
		t.Fatalf("cold Get = %v", err)
	}
	if cold.StorageStats().LFCMisses != 1 {
		t.Fatal("cold read not counted as a cache miss")
	}
}

// TestLFCBootScanRemovesInvalidNames: the warm scan adopts only names that
// parse as valid handles. A 64-hex name with the reserved flag bit set, an
// uppercase name and a temp file are debris: removed, and counted in
// neither LFCEntries nor LFCBytes.
func TestLFCBootScanRemovesInvalidNames(t *testing.T) {
	dir := t.TempDir()
	h, d := blob(3)
	reserved := h
	reserved[core.HandleSize-1] |= 0x80
	debris := []string{core.FormatHandle(reserved), strings.ToUpper(core.FormatHandle(h)), tmpPrefix + "123"}
	for _, name := range append(debris, core.FormatHandle(h)) {
		if err := os.WriteFile(filepath.Join(dir, name), d, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	remote, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewLFC(dir, 1<<20, remote)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range debris {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("boot scan left %q in place (stat err %v)", name, err)
		}
	}
	if st := c.StorageStats(); st.LFCEntries != 1 || st.LFCBytes != uint64(len(d)) {
		t.Fatalf("boot scan adopted %d entries / %d bytes, want 1 / %d", st.LFCEntries, st.LFCBytes, len(d))
	}
}

// TestLFCHitsGrowWithBudget replays one seeded, skewed read list (a cold
// sweep of the universe, then 80% of reads on its hottest fifth) through
// a cache holding a quarter of the universe and one holding all of it.
// The full-budget cache must earn strictly more hits, and must pay the
// remote tier exactly once per object.
func TestLFCHitsGrowWithBudget(t *testing.T) {
	ctx := context.Background()
	const objects, reads = 40, 240
	remoteDir := t.TempDir()
	seedTier, err := NewDir(remoteDir)
	if err != nil {
		t.Fatal(err)
	}
	handles := make([]core.Handle, objects)
	var universe int64
	for i := range handles {
		h, d := blob(i)
		if err := seedTier.Put(ctx, h, d); err != nil {
			t.Fatal(err)
		}
		handles[i] = h
		universe += int64(len(d))
	}
	rng := rand.New(rand.NewSource(18))
	pattern := rng.Perm(objects)
	for len(pattern) < reads {
		if rng.Intn(10) < 8 {
			pattern = append(pattern, rng.Intn(objects/5))
		} else {
			pattern = append(pattern, rng.Intn(objects))
		}
	}

	replay := func(budget int64) Stats {
		t.Helper()
		remote, err := NewDir(remoteDir) // fresh counters per arm
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewLFC(t.TempDir(), budget, remote)
		if err != nil {
			t.Fatal(err)
		}
		for _, idx := range pattern {
			if _, err := c.Get(ctx, handles[idx]); err != nil {
				t.Fatalf("budget %d: read %d: %v", budget, idx, err)
			}
		}
		return c.StorageStats()
	}
	quarter, full := replay(universe/4), replay(universe)
	if full.LFCHits <= quarter.LFCHits {
		t.Errorf("hits at full budget %d, at a quarter %d: want strictly more", full.LFCHits, quarter.LFCHits)
	}
	if quarter.LFCHits == 0 {
		t.Error("quarter-budget cache never hit on a skewed stream")
	}
	if full.RemoteGets != objects {
		t.Errorf("full-budget cache paid %d remote reads for %d objects", full.RemoteGets, objects)
	}
}

// TestLFCZeroBudgetPassThrough: a zero budget disables caching without
// breaking the read path.
func TestLFCZeroBudgetPassThrough(t *testing.T) {
	ctx := context.Background()
	remote, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewLFC(filepath.Join(t.TempDir(), "unused"), 0, remote)
	if err != nil {
		t.Fatal(err)
	}
	h, d := blob(9)
	if err := c.Put(ctx, h, d); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Get(ctx, h); err != nil || !bytes.Equal(got, d) {
		t.Fatalf("pass-through Get = %v", err)
	}
	if st := c.StorageStats(); st.LFCFills != 0 || st.LFCEntries != 0 {
		t.Fatalf("zero-budget cache filled anyway: %+v", st)
	}
}

// TestLFCConcurrentFillRace hammers concurrent Gets of the same and
// different handles against budget-driven eviction; run under -race by
// the chaos job.
func TestLFCConcurrentFillRace(t *testing.T) {
	ctx := context.Background()
	remote, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var hs []core.Handle
	for i := 0; i < 16; i++ {
		h, d := blob(i)
		if err := remote.Put(ctx, h, d); err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	c, err := NewLFC(t.TempDir(), 600, remote) // holds ~4 objects
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 64; i++ {
				h := hs[(g+i)%len(hs)]
				if _, err := c.Get(ctx, h); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if st := c.StorageStats(); st.LFCBytes > 600 {
		t.Fatalf("budget violated after churn: %+v", st)
	}
}

func TestStatsMerge(t *testing.T) {
	a := Stats{LFCHits: 1, RemoteGets: 2, UploadsDone: 3}
	b := Stats{LFCHits: 10, RemoteGets: 20, Demoted: 5}
	a.Add(b)
	if a.LFCHits != 11 || a.RemoteGets != 22 || a.UploadsDone != 3 || a.Demoted != 5 {
		t.Fatalf("merge wrong: %+v", a)
	}
}
