// Package storage defines the pluggable object-storage tiers behind the
// cluster's hot in-memory store: a Local tier over the durable pack files,
// a remote S3-like blob tier (Dir is the local-directory fake used in
// tests and benches), an LFC bounded local file cache fronting the remote
// tier, and a Hybrid composition (write-through local, asynchronous remote
// upload, reads falling back local → LFC → remote). The cluster's
// anti-entropy pass demotes cold, fully-replicated objects into a tier,
// and the fetcher's miss path ends with a tier lookup so a demoted object
// is always recoverable.
package storage

import (
	"context"
	"errors"
	"fmt"

	"fixgo/internal/core"
)

// Storage is a flat keyed blob store addressed by object Handle. Values
// are raw object bytes in the same convention as store.PutObject: Blob
// payloads for Blobs, EncodeTree bytes for Trees. Implementations must be
// safe for concurrent use.
type Storage interface {
	// Get returns the object bytes for h, or an error satisfying
	// IsNotFound when the tier does not hold h.
	Get(ctx context.Context, h core.Handle) ([]byte, error)
	// Put stores the object bytes for h. Put is idempotent: storing a
	// handle the tier already holds is a no-op (content-addressing makes
	// the bytes identical).
	Put(ctx context.Context, h core.Handle, data []byte) error
	// Has reports whether the tier holds h.
	Has(ctx context.Context, h core.Handle) (bool, error)
	// Delete removes h from the tier. Deleting an absent handle is not an
	// error. Tiers whose reclamation is owned elsewhere (Local's pack GC)
	// may treat Delete as a no-op.
	Delete(ctx context.Context, h core.Handle) error
	// Close releases tier resources. Tiers wrapping stores whose
	// lifecycle is owned elsewhere leave the wrapped store open.
	Close() error
}

// Flusher is implemented by tiers that buffer writes (Hybrid's async
// upload queue). Callers that need durability before proceeding — the
// cluster's demotion pass, before it evicts the hot copy — flush first.
type Flusher interface {
	// Flush blocks until every buffered write has been applied, or ctx is
	// done.
	Flush(ctx context.Context) error
}

// RemoteConfirmer is implemented by composite tiers whose Has consults a
// fast local side first (Hybrid). The cluster's demotion pass uses
// RemoteHas to confirm an object reached the durable remote side before
// evicting the hot copy, since the local side may itself be reclaimed.
type RemoteConfirmer interface {
	// RemoteHas reports whether the remote side of the tier holds h.
	RemoteHas(ctx context.Context, h core.Handle) (bool, error)
}

// StatsProvider is implemented by every tier in this package. Composite
// tiers merge the stats of the tiers they wrap.
type StatsProvider interface {
	// StorageStats returns a snapshot of the tier's counters.
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

// IsNotFound reports whether err (or an error it wraps) is a tier miss.
func IsNotFound(err error) bool {
	var nf *NotFoundError
	return errors.As(err, &nf)
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
	// RemoteDeletes counts objects removed from the remote tier.
	RemoteDeletes uint64 `json:"remote_deletes"`
	// RemoteErrors counts remote-tier operations that failed for a reason
	// other than a miss.
	RemoteErrors uint64 `json:"remote_errors"`
	// UploadsPending is the depth of the hybrid tier's async upload queue
	// (queued plus in flight).
	UploadsPending uint64 `json:"uploads_pending"`
	// UploadsDone counts async uploads applied to the remote tier.
	UploadsDone uint64 `json:"uploads_done"`
	// UploadErrors counts async uploads that failed.
	UploadErrors uint64 `json:"upload_errors"`
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
// (LFCBytes, LFCBudget, LFCEntries, UploadsPending) add too: a composite
// tier's resident volume is the sum over its parts.
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
	s.RemoteDeletes += o.RemoteDeletes
	s.RemoteErrors += o.RemoteErrors
	s.UploadsPending += o.UploadsPending
	s.UploadsDone += o.UploadsDone
	s.UploadErrors += o.UploadErrors
	s.Demoted += o.Demoted
	s.DemotePasses += o.DemotePasses
	s.TierFetches += o.TierFetches
	s.TierFetchMisses += o.TierFetchMisses
}

// statsOf merges st's counters into out when st is a StatsProvider.
func statsOf(st Storage, out *Stats) {
	if p, ok := st.(StatsProvider); ok {
		out.Add(p.StorageStats())
	}
}
