package storage

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"fixgo/internal/core"
)

// hybridQueueCap bounds the async upload queue. Puts beyond the bound
// fall back to a synchronous remote write — backpressure instead of
// unbounded memory growth.
const hybridQueueCap = 256

// Hybrid composes a fast local tier with a slower remote tier: writes
// land locally synchronously and are uploaded to the remote tier by a
// background worker; reads fall back local → remote (when the remote is
// LFC-fronted, that is the paper-style local → LFC → remote chain).
// Flush drains the upload queue; the cluster's demotion pass flushes and
// confirms RemoteHas before evicting a hot copy, because the local side
// may itself be reclaimed by pack GC later.
type Hybrid struct {
	local  Storage
	remote Storage

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []hybridUpload
	pending int // queued + in flight
	closed  bool
	wg      sync.WaitGroup

	done   atomic.Uint64
	errors atomic.Uint64
}

type hybridUpload struct {
	h    core.Handle
	data []byte
}

// NewHybrid builds a hybrid tier over local and remote and starts its
// upload worker.
func NewHybrid(local, remote Storage) *Hybrid {
	hy := &Hybrid{local: local, remote: remote}
	hy.cond = sync.NewCond(&hy.mu)
	hy.wg.Add(1)
	go hy.uploadLoop()
	return hy
}

func (hy *Hybrid) uploadLoop() {
	defer hy.wg.Done()
	for {
		hy.mu.Lock()
		for len(hy.queue) == 0 && !hy.closed {
			hy.cond.Wait()
		}
		if len(hy.queue) == 0 && hy.closed {
			hy.mu.Unlock()
			return
		}
		up := hy.queue[0]
		hy.queue = hy.queue[1:]
		hy.mu.Unlock()

		if err := hy.remote.Put(context.Background(), up.h, up.data); err != nil {
			hy.errors.Add(1)
		} else {
			hy.done.Add(1)
		}

		hy.mu.Lock()
		hy.pending--
		hy.cond.Broadcast()
		hy.mu.Unlock()
	}
}

// Get reads from the local tier, falling back to the remote tier on a
// miss.
func (hy *Hybrid) Get(ctx context.Context, h core.Handle) ([]byte, error) {
	data, err := hy.local.Get(ctx, h)
	if err == nil {
		return data, nil
	}
	if !IsNotFound(err) {
		return nil, err
	}
	return hy.remote.Get(ctx, h)
}

// Put writes through to the local tier and enqueues an async remote
// upload. When the queue is full, the remote write happens synchronously
// instead.
func (hy *Hybrid) Put(ctx context.Context, h core.Handle, data []byte) error {
	if h.IsLiteral() {
		return nil
	}
	if err := hy.local.Put(ctx, h, data); err != nil {
		return err
	}
	hy.mu.Lock()
	if hy.closed || len(hy.queue) >= hybridQueueCap {
		hy.mu.Unlock()
		if err := hy.remote.Put(ctx, h, data); err != nil {
			hy.errors.Add(1)
			return err
		}
		hy.done.Add(1)
		return nil
	}
	hy.queue = append(hy.queue, hybridUpload{h: h, data: data})
	hy.pending++
	hy.cond.Broadcast()
	hy.mu.Unlock()
	return nil
}

// Flush blocks until every queued upload has been applied to the remote
// tier, or ctx is done. Implements Flusher.
func (hy *Hybrid) Flush(ctx context.Context) error {
	for {
		hy.mu.Lock()
		n := hy.pending
		hy.mu.Unlock()
		if n == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// Has reports residency on either side.
func (hy *Hybrid) Has(ctx context.Context, h core.Handle) (bool, error) {
	ok, err := hy.local.Has(ctx, h)
	if err != nil || ok {
		return ok, err
	}
	return hy.remote.Has(ctx, h)
}

// RemoteHas reports residency on the remote side only, counting pending
// uploads as not-yet-resident. Implements RemoteConfirmer.
func (hy *Hybrid) RemoteHas(ctx context.Context, h core.Handle) (bool, error) {
	return hy.remote.Has(ctx, h)
}

// Delete removes h from both sides.
func (hy *Hybrid) Delete(ctx context.Context, h core.Handle) error {
	if err := hy.local.Delete(ctx, h); err != nil {
		return err
	}
	return hy.remote.Delete(ctx, h)
}

// Close drains the upload queue, stops the worker, and closes both sides.
func (hy *Hybrid) Close() error {
	hy.mu.Lock()
	if hy.closed {
		hy.mu.Unlock()
		return nil
	}
	hy.closed = true
	hy.cond.Broadcast()
	hy.mu.Unlock()
	hy.wg.Wait()
	err := hy.local.Close()
	if rerr := hy.remote.Close(); err == nil {
		err = rerr
	}
	return err
}

// StorageStats implements StatsProvider, merging both sides' counters
// under the upload-queue gauges.
func (hy *Hybrid) StorageStats() Stats {
	hy.mu.Lock()
	pending := hy.pending
	hy.mu.Unlock()
	st := Stats{
		UploadsPending: uint64(pending),
		UploadsDone:    hy.done.Load(),
		UploadErrors:   hy.errors.Load(),
	}
	statsOf(hy.local, &st)
	statsOf(hy.remote, &st)
	return st
}
