package gateway

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"fixgo/internal/core"
)

// TestShardRoutingDeterministic pins the sharded cache's two structural
// properties: routing is a pure function of the key (the same handle
// always lands on the same shard), and Get-after-Put always hits —
// regardless of shard count — because the lookup routes to the shard
// the insert went to.
func TestShardRoutingDeterministic(t *testing.T) {
	ctx := context.Background()
	for _, shards := range []int{1, 2, 3, 7, 16, 64} {
		c := newResultCache(4096, shards)
		if got := len(c.shards); got != shards {
			t.Fatalf("shards=%d: built %d shards", shards, got)
		}
		for i := uint64(0); i < 512; i++ {
			k := key(i).AsObject()
			s := c.shardFor(k)
			for j := 0; j < 4; j++ {
				if c.shardFor(k) != s {
					t.Fatalf("shards=%d: routing of key %d is not deterministic", shards, i)
				}
			}
		}
		// Put 512 distinct results, then every lookup must hit without
		// re-evaluating (capacity 4096 across ≤64 shards leaves every
		// shard far from eviction).
		for i := uint64(0); i < 512; i++ {
			v := i
			if _, out, err := c.Do(ctx, key(v), func() (core.Handle, error) {
				return core.LiteralU64(v), nil
			}); err != nil || out != OutcomeMiss {
				t.Fatalf("shards=%d: put %d: out=%v err=%v", shards, v, out, err)
			}
		}
		for i := uint64(0); i < 512; i++ {
			res, out, err := c.Do(ctx, key(i), func() (core.Handle, error) {
				return core.Handle{}, errors.New("get-after-put must not re-evaluate")
			})
			if err != nil || out != OutcomeHit || res != core.LiteralU64(i) {
				t.Fatalf("shards=%d: get %d: res=%v out=%v err=%v, want hit", shards, i, res, out, err)
			}
		}
	}
}

// replayTrace runs an access trace (a sequence of key indices) through a
// cache sequentially and returns the final stats.
func replayTrace(t *testing.T, c *resultCache, trace []uint64) CacheStats {
	t.Helper()
	ctx := context.Background()
	for _, v := range trace {
		v := v
		res, _, err := c.Do(ctx, key(v), func() (core.Handle, error) {
			return core.LiteralU64(v), nil
		})
		if err != nil || res != core.LiteralU64(v) {
			t.Fatalf("trace key %d: res=%v err=%v", v, res, err)
		}
	}
	return c.Stats()
}

// TestShardedCacheParityWithSingleCache replays identical access traces
// against a single-mutex cache (shards=1) and a sharded one and demands
// equal totals. Partitioning the LRU horizon cannot change behavior on a
// trace that never evicts, and on an all-distinct overflow trace the
// aggregate eviction count and residency are also exactly equal.
func TestShardedCacheParityWithSingleCache(t *testing.T) {
	// Trace A: 64 distinct keys, revisited in a deterministic scramble,
	// against capacity 256 — no shard can evict, so hit/miss/entry
	// totals must match the single cache exactly.
	var warm []uint64
	for i := 0; i < 1024; i++ {
		warm = append(warm, uint64(i*i)%64)
	}
	single := replayTrace(t, newResultCache(256, 1), warm)
	sharded := replayTrace(t, newResultCache(256, 16), warm)
	if single.Hits != sharded.Hits || single.Misses != sharded.Misses ||
		single.Entries != sharded.Entries || sharded.Evicted != 0 {
		t.Errorf("no-eviction trace: single=%+v sharded=%+v, want identical hits/misses/entries and 0 evictions",
			single, sharded)
	}

	// Trace B: 10k all-distinct keys against capacity 128 — every access
	// misses, and once every shard has overflowed, residency equals
	// total capacity, so evictions are equal too.
	var flood []uint64
	for i := 0; i < 10000; i++ {
		flood = append(flood, uint64(1000+i))
	}
	single = replayTrace(t, newResultCache(128, 1), flood)
	sharded = replayTrace(t, newResultCache(128, 16), flood)
	if single.Misses != 10000 || sharded.Misses != 10000 {
		t.Errorf("overflow trace: misses single=%d sharded=%d, want 10000", single.Misses, sharded.Misses)
	}
	if single.Entries != 128 || sharded.Entries != 128 {
		t.Errorf("overflow trace: entries single=%d sharded=%d, want full capacity 128", single.Entries, sharded.Entries)
	}
	if single.Evicted != sharded.Evicted || sharded.Evicted != 10000-128 {
		t.Errorf("overflow trace: evictions single=%d sharded=%d, want %d", single.Evicted, sharded.Evicted, 10000-128)
	}
}

// TestShardedCacheStress hammers all shards from concurrent readers,
// writers, warmers, and scrapers (run under -race in CI). The keyspace
// is twice the capacity, so shards evict continuously while being hit.
func TestShardedCacheStress(t *testing.T) {
	c := newResultCache(64, 8)
	ctx := context.Background()
	const G, N = 16, 400
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < N; i++ {
				v := uint64(rng.Intn(128))
				res, _, err := c.Do(ctx, key(v), func() (core.Handle, error) {
					return core.LiteralU64(v), nil
				})
				if err != nil || res != core.LiteralU64(v) {
					t.Errorf("goroutine %d: key %d: res=%v err=%v", g, v, res, err)
					return
				}
				if i%37 == 0 {
					c.Stats() // concurrent scrape
				}
				if i%53 == 0 {
					c.warm(key(v).AsObject(), core.LiteralU64(v))
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	// Every Do resolves as exactly one of hit/miss/collapsed.
	if st.Hits+st.Misses+st.Collapsed != G*N {
		t.Errorf("hits %d + misses %d + collapsed %d != %d ops", st.Hits, st.Misses, st.Collapsed, G*N)
	}
	if st.Entries > 64 {
		t.Errorf("entries %d exceed capacity 64", st.Entries)
	}
	if st.Evicted == 0 {
		t.Errorf("stress over 2x-capacity keyspace should evict")
	}
}
