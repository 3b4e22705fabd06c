// Package storage defines the object-storage tier behind the cluster's
// in-memory store and its durable packs: a remote S3-like blob tier (Dir
// is the local-directory fake used in tests and benches) behind an LFC,
// a bounded local file cache. Every write is synchronous: when Put
// returns nil, the remote holds the object. The cluster's anti-entropy
// pass demotes cold, fully-replicated objects into the tier, and the
// fetcher's miss path ends with a tier lookup so a demoted object is
// always recoverable.
package storage

import (
	"context"
	"fmt"

	"fixgo/internal/core"
)

// Storage is a flat keyed blob store addressed by object Handle. Values
// are raw object bytes in the same convention as store.PutObject: Blob
// payloads for Blobs, EncodeTree bytes for Trees. Implementations must be
// safe for concurrent use.
type Storage interface {
	// Get returns the object bytes for h, or a *NotFoundError when the
	// tier does not hold h.
	Get(ctx context.Context, h core.Handle) ([]byte, error)
	// Put stores the object bytes for h. It returns only once the
	// tier's durable side holds them, so a nil error is what the
	// demotion pass evicts a hot copy on. Put is idempotent: storing a
	// handle the tier already holds is a no-op (content-addressing makes
	// the bytes identical).
	Put(ctx context.Context, h core.Handle, data []byte) error
	// StorageStats returns a snapshot of the tier's counters. Composite
	// tiers merge the stats of the tiers they wrap.
	StorageStats() Stats
}

// NotFoundError reports that a tier does not hold the requested handle.
type NotFoundError struct {
	// Handle is the missing object.
	Handle core.Handle
	// Tier names the tier that reported the miss.
	Tier string
}

// Error implements the error interface.
func (e *NotFoundError) Error() string {
	return fmt.Sprintf("storage: %s tier does not hold %v", e.Tier, e.Handle)
}

// Stats is a point-in-time snapshot of tier counters. Composite tiers
// report the sum over the tiers they wrap; fields that do not apply to an
// implementation stay zero. The field set is mirrored one-to-one into the
// fixgate_storage_* / fixpoint_storage_* metric families.
type Stats struct {
	// LFCHits counts reads served from the local file cache.
	LFCHits uint64 `json:"lfc_hits"`
	// LFCMisses counts reads that fell through the cache to its backing
	// tier.
	LFCMisses uint64 `json:"lfc_misses"`
	// LFCFills counts cache files written after a miss or write-through.
	LFCFills uint64 `json:"lfc_fills"`
	// LFCEvictions counts cache files evicted to respect the byte budget.
	LFCEvictions uint64 `json:"lfc_evictions"`
	// LFCBytes is the resident cache volume in bytes.
	LFCBytes uint64 `json:"lfc_bytes"`
	// LFCBudget is the configured cache byte budget.
	LFCBudget uint64 `json:"lfc_budget_bytes"`
	// LFCEntries is the resident cache object count.
	LFCEntries uint64 `json:"lfc_entries"`
	// RemoteGets counts reads served by the remote tier.
	RemoteGets uint64 `json:"remote_gets"`
	// RemotePuts counts objects written to the remote tier.
	RemotePuts uint64 `json:"remote_puts"`
	// RemoteErrors counts remote-tier operations that failed for a reason
	// other than a miss.
	RemoteErrors uint64 `json:"remote_errors"`
	// Demoted counts hot copies evicted after demotion to the tier.
	Demoted uint64 `json:"demoted"`
	// DemotePasses counts completed anti-entropy demotion sweeps.
	DemotePasses uint64 `json:"demote_passes"`
	// TierFetches counts fetcher misses recovered from the tier.
	TierFetches uint64 `json:"tier_fetches"`
	// TierFetchMisses counts fetcher misses the tier could not recover.
	TierFetchMisses uint64 `json:"tier_fetch_misses"`
}

// Add accumulates o into s field by field. Point-in-time gauges
// (LFCBytes, LFCBudget, LFCEntries) add too: a composite tier's resident
// volume is the sum over its parts.
func (s *Stats) Add(o Stats) {
	s.LFCHits += o.LFCHits
	s.LFCMisses += o.LFCMisses
	s.LFCFills += o.LFCFills
	s.LFCEvictions += o.LFCEvictions
	s.LFCBytes += o.LFCBytes
	s.LFCBudget += o.LFCBudget
	s.LFCEntries += o.LFCEntries
	s.RemoteGets += o.RemoteGets
	s.RemotePuts += o.RemotePuts
	s.RemoteErrors += o.RemoteErrors
	s.Demoted += o.Demoted
	s.DemotePasses += o.DemotePasses
	s.TierFetches += o.TierFetches
	s.TierFetchMisses += o.TierFetchMisses
}
