package gateway

import (
	"sync"
	"sync/atomic"
)

// TenantStats is the per-tenant accounting slice of the stats report.
type TenantStats struct {
	Jobs     uint64 `json:"jobs"`
	Rejected uint64 `json:"rejected"`
}

// tenantCounters is the live, atomically updated form of one tenant's
// accounting. Handlers bump these without any lock, so the counters a
// /v1/stats scrape reads while traffic is in flight are each individually
// consistent (no torn reads, no lock ordering against the shard mutexes).
type tenantCounters struct {
	jobs     atomic.Uint64
	rejected atomic.Uint64
}

func (t *tenantCounters) snapshot() *TenantStats {
	return &TenantStats{
		Jobs:     t.jobs.Load(),
		Rejected: t.rejected.Load(),
	}
}

// tenantShards fixes the ledger's shard count. Tenant cardinality is
// small next to request volume; 16 shards removes the single map mutex
// from the hot path without meaningfully fragmenting the snapshot walk.
const tenantShards = 16

// tenantLedger is the per-tenant accounting table, hash-sharded by
// tenant name so concurrent requests from different tenants never
// contend. The common case — the tenant already exists — takes only a
// shard RLock to fetch the pointer; counter updates are lock-free.
type tenantLedger struct {
	shards [tenantShards]struct {
		mu sync.RWMutex
		m  map[string]*tenantCounters
	}
}

func newTenantLedger() *tenantLedger {
	l := &tenantLedger{}
	for i := range l.shards {
		l.shards[i].m = make(map[string]*tenantCounters)
	}
	return l
}

// shardFor routes a tenant name: FNV-1a over the name bytes.
func (l *tenantLedger) shardFor(name string) *struct {
	mu sync.RWMutex
	m  map[string]*tenantCounters
} {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return &l.shards[h%tenantShards]
}

// get returns the tenant's counters, creating them on first sight.
func (l *tenantLedger) get(name string) *tenantCounters {
	s := l.shardFor(name)
	s.mu.RLock()
	t := s.m[name]
	s.mu.RUnlock()
	if t != nil {
		return t
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t = s.m[name]; t == nil {
		t = &tenantCounters{}
		s.m[name] = t
	}
	return t
}

// snapshot copies every tenant's counters into the stats report shape.
func (l *tenantLedger) snapshot() map[string]*TenantStats {
	out := make(map[string]*TenantStats)
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.RLock()
		for name, t := range s.m {
			out[name] = t.snapshot()
		}
		s.mu.RUnlock()
	}
	return out
}
