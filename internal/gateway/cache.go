package gateway

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"fixgo/internal/core"
)

// CacheOutcome classifies how a submission was satisfied.
type CacheOutcome string

const (
	// OutcomeMiss: this submission led the evaluation.
	OutcomeMiss CacheOutcome = "miss"
	// OutcomeHit: the result was already cached.
	OutcomeHit CacheOutcome = "hit"
	// OutcomeCollapsed: the submission joined an identical in-flight
	// evaluation led by another request.
	OutcomeCollapsed CacheOutcome = "collapsed"
	// OutcomeBypass: the cache was disabled for this submission.
	OutcomeBypass CacheOutcome = "bypass"
)

// CacheStats is a snapshot of result-cache counters, rolled up across
// every shard.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Collapsed uint64 `json:"collapsed"`
	Evicted   uint64 `json:"evicted"`
	Errors    uint64 `json:"errors"`
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
}

// resultCache memoizes Handle → evaluated result with LRU eviction and
// single-flight collapsing of concurrent identical evaluations. It is the
// serving-edge mirror of the store's memoization tables: hitting it
// requires no store lock, no engine future, and — for a cluster backend —
// no network.
//
// The cache is hash-sharded: a submission's normalized key routes to one
// of N shards (FNV-1a over the packed Handle), and each shard owns an
// independent mutex, LRU list, and in-flight table. Two submissions of
// different handles therefore never contend on a lock, which is what lets
// a duplicate-heavy workload scale past the single-mutex ceiling. Routing
// is deterministic — the same handle always lands on the same shard — so
// single-flight collapsing and Get-after-Put semantics are identical to a
// single cache; only the LRU horizon is partitioned (each shard evicts
// within its own capacity slice).
type resultCache struct {
	shards   []*cacheShard
	capacity int
	// onInsert, when set, observes every miss-path insert (a completed
	// evaluation entering the cache) outside the shard lock. warm()
	// inserts deliberately bypass it: the replicated edge uses this hook
	// to gossip fresh memoizations, and re-gossiping entries that arrived
	// *as* gossip would echo between gateways.
	// Set before the cache serves traffic.
	onInsert func(k, result core.Handle)
}

// cacheShard is one independently locked slice of the cache.
type cacheShard struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recent
	entries  map[core.Handle]*list.Element
	inflight map[core.Handle]*flight

	hits      uint64
	misses    uint64
	collapsed uint64
	evicted   uint64
	errors    uint64
}

type cacheEntry struct {
	key    core.Handle
	result core.Handle
}

// flight is one in-progress evaluation that later identical submissions
// join.
type flight struct {
	done   chan struct{}
	result core.Handle
	err    error
}

// cacheShards is how many independently locked, hash-routed shards the
// server's result cache is split into (clamped to its capacity).
const cacheShards = 16

// newResultCache builds a cache of the given total capacity split across
// shards hash-routed slices. shards is clamped to [1, capacity] so every
// shard can hold at least one entry.
func newResultCache(capacity, shards int) *resultCache {
	if shards < 1 {
		shards = 1
	}
	if shards > capacity {
		shards = capacity
	}
	c := &resultCache{
		shards:   make([]*cacheShard, shards),
		capacity: capacity,
	}
	// Distribute capacity exactly: the first capacity%shards shards get
	// one extra slot, so the shard capacities always sum to capacity.
	base, rem := capacity/shards, capacity%shards
	for i := range c.shards {
		cap := base
		if i < rem {
			cap++
		}
		c.shards[i] = &cacheShard{
			capacity: cap,
			ll:       list.New(),
			entries:  make(map[core.Handle]*list.Element),
			inflight: make(map[core.Handle]*flight),
		}
	}
	return c
}

// shardFor routes a normalized key to its shard: FNV-1a over the packed
// Handle. Handles are already content hashes, but hashing all 32 bytes
// keeps the routing uniform even for literal Handles, whose leading bytes
// are raw user data.
func (c *resultCache) shardFor(k core.Handle) *cacheShard {
	if len(c.shards) == 1 {
		return c.shards[0]
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range k {
		h ^= uint64(b)
		h *= prime64
	}
	return c.shards[h%uint64(len(c.shards))]
}

// reservation is the outcome of claiming a key: a cached result, an
// existing flight to join, or a newly registered flight this caller must
// lead (run the evaluation and publish).
type reservation struct {
	result  core.Handle
	outcome CacheOutcome
	f       *flight
	leader  bool
}

// reserve claims k on its shard. Exactly one of three shapes returns:
// outcome=hit with the cached result; outcome=collapsed with a flight to
// wait on; or outcome=miss with leader=true and a fresh flight the caller
// must complete via publish (on every path, including panic), or later
// submissions of k block forever.
func (c *resultCache) reserve(k core.Handle) reservation {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if res, ok := s.hitLocked(k); ok {
		return reservation{result: res, outcome: OutcomeHit}
	}
	if f, ok := s.inflight[k]; ok {
		s.collapsed++
		return reservation{outcome: OutcomeCollapsed, f: f}
	}
	f := &flight{done: make(chan struct{})}
	s.inflight[k] = f
	s.misses++
	return reservation{outcome: OutcomeMiss, f: f, leader: true}
}

// hit returns k's cached result, counted as a hit. A miss is not
// counted: the caller goes on to Do, which counts whatever the
// submission turns out to be.
func (c *resultCache) hit(k core.Handle) (core.Handle, bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hitLocked(k)
}

// hitLocked is hit on a locked shard.
func (s *cacheShard) hitLocked(k core.Handle) (core.Handle, bool) {
	el, ok := s.entries[k]
	if !ok {
		return core.Handle{}, false
	}
	s.ll.MoveToFront(el)
	s.hits++
	return el.Value.(*cacheEntry).result, true
}

// publish completes a flight reserve registered: the result is inserted
// (errors are never cached), the flight is torn down, and every waiter is
// released.
func (c *resultCache) publish(k core.Handle, f *flight) {
	s := c.shardFor(k)
	s.mu.Lock()
	delete(s.inflight, k)
	if f.err == nil {
		s.insertLocked(k, f.result)
	} else {
		s.errors++
	}
	s.mu.Unlock()
	close(f.done)
	if f.err == nil && c.onInsert != nil {
		c.onInsert(k, f.result)
	}
}

// Do returns the cached result for h, or joins an in-flight evaluation,
// or — if it is the first to ask — starts eval and waits for its
// outcome. Errors are never cached: every collapsed waiter of a failed
// flight receives the error, and the next submission retries.
//
// The evaluation runs in its own goroutine and always publishes the
// flight, even when the leader abandons the wait (client disconnect,
// async job cancelled): collapsed waiters may be riding on it, and the
// deterministic answer is worth caching regardless. Every caller —
// leader included — is therefore governed only by its own ctx.
func (c *resultCache) Do(ctx context.Context, h core.Handle, eval func() (core.Handle, error)) (core.Handle, CacheOutcome, error) {
	k := h.AsObject()
	rv := c.reserve(k)
	switch {
	case rv.outcome == OutcomeHit:
		return rv.result, OutcomeHit, nil
	case !rv.leader:
		select {
		case <-rv.f.done:
			return rv.f.result, OutcomeCollapsed, rv.f.err
		case <-ctx.Done():
			return core.Handle{}, OutcomeCollapsed, ctx.Err()
		}
	}
	f := rv.f
	go c.runFlight(k, f, eval)
	select {
	case <-f.done:
		return f.result, OutcomeMiss, f.err
	case <-ctx.Done():
		return core.Handle{}, OutcomeMiss, ctx.Err()
	}
}

// runFlight executes a reserved flight's evaluation and publishes it.
// Publication happens in a defer: if eval panics, the flight must still
// be torn down (as a failed flight) or every later submission of this
// handle would block on it forever.
func (c *resultCache) runFlight(k core.Handle, f *flight, eval func() (core.Handle, error)) {
	completed := false
	defer func() {
		if !completed {
			_ = recover()
			f.err = fmt.Errorf("gateway: evaluation of %v panicked", k)
		}
		c.publish(k, f)
	}()
	f.result, f.err = eval()
	completed = true
}

func (s *cacheShard) insertLocked(k core.Handle, result core.Handle) {
	if el, ok := s.entries[k]; ok {
		el.Value.(*cacheEntry).result = result
		s.ll.MoveToFront(el)
		return
	}
	s.entries[k] = s.ll.PushFront(&cacheEntry{key: k, result: result})
	for s.ll.Len() > s.capacity {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.entries, oldest.Value.(*cacheEntry).key)
		s.evicted++
	}
}

// warm inserts a known (key → result) pair without an evaluation: an
// applied edge gossip hint.
func (c *resultCache) warm(k, result core.Handle) {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.insertLocked(k, result)
}

// Stats snapshots the counters, summed across shards.
func (c *resultCache) Stats() CacheStats {
	out := CacheStats{Capacity: c.capacity}
	for _, s := range c.shards {
		s.mu.Lock()
		out.Hits += s.hits
		out.Misses += s.misses
		out.Collapsed += s.collapsed
		out.Evicted += s.evicted
		out.Errors += s.errors
		out.Entries += s.ll.Len()
		s.mu.Unlock()
	}
	return out
}
