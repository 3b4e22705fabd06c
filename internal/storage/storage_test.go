package storage

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"fixgo/internal/core"
)

func blob(i int) (core.Handle, []byte) {
	data := bytes.Repeat([]byte{byte(i), byte(i >> 8)}, 64)
	data = append(data, []byte(fmt.Sprintf("object-%d", i))...)
	return core.BlobHandle(data), data
}

// isNotFound reports whether err is a typed tier miss.
func isNotFound(err error) bool {
	var nf *NotFoundError
	return errors.As(err, &nf)
}

// lfcEntries counts the objects c holds.
func lfcEntries(c *LFC) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// roundTrip drives the common Storage contract: typed misses, Put,
// idempotent Put, and Get.
func roundTrip(t *testing.T, st Storage) {
	t.Helper()
	ctx := context.Background()
	h, data := blob(1)
	if _, err := st.Get(ctx, h); !isNotFound(err) {
		t.Fatalf("Get before Put: err = %v, want not-found", err)
	}
	if err := st.Put(ctx, h, data); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(ctx, h, data); err != nil {
		t.Fatalf("idempotent Put: %v", err)
	}
	got, err := st.Get(ctx, h)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get = %q, %v", got, err)
	}
}

func TestDirRoundTrip(t *testing.T) {
	d, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, d)
	if st := d.StorageStats(); st.RemoteGets != 1 {
		t.Fatalf("counters: %+v, want 1 get", st)
	}
	// A Put of a present object leaves its file untouched: no rename
	// replaces it.
	h, data := blob(1)
	before, err := os.Stat(d.path(h))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put(context.Background(), h, data); err != nil {
		t.Fatal(err)
	}
	if after, err := os.Stat(d.path(h)); err != nil || !os.SameFile(before, after) {
		t.Fatalf("repeated Put replaced the object file (err %v)", err)
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
	roundTrip(t, c)
}

// TestTierFallbackMatrix pins the read chain a daemon assembles, LFC →
// remote Dir: an LFC hit, a remote hit that fills the cache, a remote hit
// with a cold cache, and a miss at both. Assembling it starts no
// goroutine, and once Put returns the remote serves the object.
func TestTierFallbackMatrix(t *testing.T) {
	ctx := context.Background()
	remoteDir := t.TempDir()
	base := runtime.NumGoroutine()
	backing, err := NewDir(remoteDir)
	if err != nil {
		t.Fatal(err)
	}
	tier, err := NewLFC(t.TempDir(), 1<<20, backing)
	if err != nil {
		t.Fatal(err)
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("goroutines %d → %d after assembling the tier", base, got)
	}
	remote, err := NewDir(remoteDir)
	if err != nil {
		t.Fatal(err)
	}
	hits := func() uint64 { return tier.StorageStats().LFCHits }

	// Case 1: LFC hit — written through Put, read back from the cache.
	h1, d1 := blob(1)
	if err := tier.Put(ctx, h1, d1); err != nil {
		t.Fatal(err)
	}
	if got, err := tier.Get(ctx, h1); err != nil || !bytes.Equal(got, d1) || hits() != 1 {
		t.Fatalf("lfc hit: %v, %d hits", err, hits())
	}

	// Case 2: present only in the remote: the first read fills the
	// cache, the second hits it.
	h2, d2 := blob(2)
	if err := remote.Put(ctx, h2, d2); err != nil {
		t.Fatal(err)
	}
	if got, err := tier.Get(ctx, h2); err != nil || !bytes.Equal(got, d2) || hits() != 1 {
		t.Fatalf("remote hit (fill): %v, %d hits", err, hits())
	}
	if got, err := tier.Get(ctx, h2); err != nil || !bytes.Equal(got, d2) || hits() != 2 {
		t.Fatalf("lfc hit after fill: %v, %d hits", err, hits())
	}

	// Case 3: remote hit with a cold cache: a second LFC over an empty
	// cache directory reads the remote once.
	cold, err := NewLFC(t.TempDir(), 1<<20, remote)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := cold.Get(ctx, h1); err != nil || !bytes.Equal(got, d1) {
		t.Fatalf("remote hit: %v", err)
	}
	if st := cold.StorageStats(); st.LFCHits != 0 || st.RemoteGets != 1 {
		t.Fatalf("cold read: %+v, want 0 hits and 1 remote get", st)
	}

	// Case 4: miss everywhere.
	h4, _ := blob(4)
	if _, err := tier.Get(ctx, h4); !isNotFound(err) {
		t.Fatalf("full miss: err = %v, want not-found", err)
	}

	// Case 1's Put returned, so the remote Dir already serves it.
	if !remote.Holds(h1) || remote.Holds(h4) {
		t.Fatalf("remote Holds = %v, %v; want true for the written object, false for the missing one", remote.Holds(h1), remote.Holds(h4))
	}
}

// TestLFCCorruptFileFallsThrough: a cache file whose bytes no longer match
// its handle is not served. The read drops the entry and its file and
// answers from the remote, and the next read hits the refilled cache.
func TestLFCCorruptFileFallsThrough(t *testing.T) {
	ctx := context.Background()
	remoteDir, cacheDir := t.TempDir(), t.TempDir()
	data := bytes.Repeat([]byte{0x6B}, 4096)
	h := core.BlobHandle(data)
	tree := []core.Handle{h, h}
	th := core.TreeHandle(tree)
	remote, err := NewDir(remoteDir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewLFC(cacheDir, 1<<20, remote)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(ctx, h, data); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(ctx, th, core.EncodeTree(tree)); err != nil {
		t.Fatal(err)
	}
	for _, k := range []core.Handle{h, th} {
		path := filepath.Join(cacheDir, core.FormatHandle(k))
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0x01
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if got, err := c.Get(ctx, h); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("read %d of the corrupted blob: %v", i, err)
		}
		if got, err := c.Get(ctx, th); err != nil || !bytes.Equal(got, core.EncodeTree(tree)) {
			t.Fatalf("read %d of the corrupted tree: %v", i, err)
		}
	}
	if st := c.StorageStats(); st.RemoteGets != 2 || st.LFCHits != 2 || lfcEntries(c) != 2 {
		t.Fatalf("stats %+v, want 2 remote gets (one per corrupted file), then 2 hits on 2 entries", st)
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
	if got := lfcEntries(warm); got != 1 {
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
// neither the cache's entries nor LFCBytes.
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
	if n, st := lfcEntries(c), c.StorageStats(); n != 1 || st.LFCBytes != uint64(len(d)) {
		t.Fatalf("boot scan adopted %d entries / %d bytes, want 1 / %d", n, st.LFCBytes, len(d))
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
	if n, st := lfcEntries(c), c.StorageStats(); n != 0 || st.LFCBytes != 0 {
		t.Fatalf("zero-budget cache filled anyway: %d entries, %+v", n, st)
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
	a := Stats{LFCHits: 1, RemoteGets: 2, RemoteErrors: 3}
	b := Stats{LFCHits: 10, RemoteGets: 20, Demoted: 5}
	a.Add(b)
	if a.LFCHits != 11 || a.RemoteGets != 22 || a.RemoteErrors != 3 || a.Demoted != 5 {
		t.Fatalf("merge wrong: %+v", a)
	}
}
