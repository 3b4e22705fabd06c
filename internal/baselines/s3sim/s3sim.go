// Package s3sim is the network storage substrate of the paper's
// evaluation: an S3/MinIO analog with a configurable per-request
// response latency (150 ms in Fig. 8a, mimicking Amazon S3 small-object
// fetches) and an aggregate bandwidth cap (MinIO deployed on the cluster
// in Fig. 8b/10). It serves both Fixpoint (as a runtime.Fetcher keyed by
// handle) and the baselines (keyed by name). Only the experiments and
// the baselines use it; no daemon links it.
package s3sim

import (
	"context"
	"fmt"
	"sync"
	"time"

	"fixgo/internal/core"
)

// Config describes a store's service characteristics.
type Config struct {
	// Latency is the per-request response time (time to first byte).
	Latency time.Duration
	// Bandwidth is the aggregate data rate in bytes/second shared by all
	// requests; zero means infinite.
	Bandwidth float64
}

// Store is an in-memory object store with simulated service times.
type Store struct {
	cfg Config

	mu      sync.RWMutex
	objects map[string][]byte

	// busyUntil serializes the shared bandwidth pipe.
	busyMu    sync.Mutex
	busyUntil time.Time
}

// New returns an empty store.
func New(cfg Config) *Store {
	return &Store{cfg: cfg, objects: make(map[string][]byte)}
}

// Put stores an object under key. Writes pay the service latency but not
// the shared read bandwidth (uploads happen at setup time in the paper's
// experiments).
func (s *Store) Put(ctx context.Context, key string, data []byte) error {
	if err := sleepCtx(ctx, s.cfg.Latency); err != nil {
		return err
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	s.mu.Lock()
	s.objects[key] = cp
	s.mu.Unlock()
	return nil
}

// Get retrieves an object, paying the service latency plus the object's
// share of the store's aggregate bandwidth.
func (s *Store) Get(ctx context.Context, key string) ([]byte, error) {
	s.mu.RLock()
	data, ok := s.objects[key]
	s.mu.RUnlock()
	if !ok {
		// Missing keys still cost a round trip.
		if err := sleepCtx(ctx, s.cfg.Latency); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("s3sim: no such object %q", key)
	}
	wait := s.cfg.Latency + s.reserveBandwidth(len(data))
	if err := sleepCtx(ctx, wait); err != nil {
		return nil, err
	}
	return data, nil
}

// reserveBandwidth books n bytes on the shared pipe and returns how long
// this request must wait for its transfer to complete.
func (s *Store) reserveBandwidth(n int) time.Duration {
	if s.cfg.Bandwidth <= 0 {
		return 0
	}
	xfer := time.Duration(float64(n) / s.cfg.Bandwidth * float64(time.Second))
	now := time.Now()
	s.busyMu.Lock()
	start := s.busyUntil
	if now.After(start) {
		start = now
	}
	s.busyUntil = start.Add(xfer)
	wait := s.busyUntil.Sub(now)
	s.busyMu.Unlock()
	return wait
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// handleKey is the storage key for a Fix object's canonical bytes.
func handleKey(h core.Handle) string {
	return "fix/" + core.FormatHandle(h.AsObject())
}

// PutHandle stores a Fix object's canonical bytes under its handle key.
func (s *Store) PutHandle(ctx context.Context, h core.Handle, data []byte) error {
	return s.Put(ctx, handleKey(h), data)
}

// Fetch implements runtime.Fetcher: Fixpoint nodes can treat the store as
// a source of missing objects.
func (s *Store) Fetch(ctx context.Context, h core.Handle) ([]byte, error) {
	return s.Get(ctx, handleKey(h))
}
