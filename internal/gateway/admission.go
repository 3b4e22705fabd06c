package gateway

import (
	"context"
	"errors"
	"sync/atomic"
)

// ErrOverloaded is returned (and surfaced as HTTP 429) when both the
// in-flight slots and the wait queue are full.
var ErrOverloaded = errors.New("gateway: overloaded: in-flight and queue limits reached")

// AdmissionStats is a snapshot of admission-control counters.
type AdmissionStats struct {
	Waiting int `json:"waiting"`
	// WaitingAsync counts async workers parked in AcquireWait for a
	// backend slot. They are outside the bounded shed queue (Waiting),
	// but an operator reading jobs stats that show running > 0 with no
	// backend progress needs to see where those workers are stalled.
	WaitingAsync int    `json:"waiting_async"`
	Admitted     uint64 `json:"admitted"`
	Rejected     uint64 `json:"rejected"`
}

// admission bounds the number of concurrently evaluating jobs. Up to
// maxInFlight submissions run at once; up to maxQueue more wait for a
// slot; beyond that, Acquire fails fast with ErrOverloaded so a saturated
// gateway sheds load (429) instead of accumulating goroutines.
//
// Only evaluations that actually reach the backend are admitted — cache
// hits and collapsed waiters never pass through here. The ledger is
// all-atomics: the wait-queue bound is enforced with an
// increment-then-check on the waiting counter rather than a mutex, so
// admission never serializes the request hot path, and the /v1/stats
// snapshot reads the same atomics the admitters write.
type admission struct {
	slots    chan struct{}
	maxQueue int

	waiting      atomic.Int64
	admitted     atomic.Uint64
	rejected     atomic.Uint64
	asyncWaiting atomic.Int64
}

func newAdmission(maxInFlight, maxQueue int) *admission {
	return &admission{
		slots:    make(chan struct{}, maxInFlight),
		maxQueue: maxQueue,
	}
}

// Acquire claims an evaluation slot, waiting in the bounded queue if
// necessary. On success the caller must Release.
func (a *admission) Acquire(ctx context.Context) error {
	select {
	case a.slots <- struct{}{}:
		a.admitted.Add(1)
		return nil
	default:
	}
	// The bound is an optimistic increment: claim a queue position, and
	// give it back if that overshot the limit. Transient over-counting by
	// racing acquirers only ever sheds early (never queues deep), which
	// is the safe direction for an overload valve.
	if a.waiting.Add(1) > int64(a.maxQueue) {
		a.waiting.Add(-1)
		a.rejected.Add(1)
		return ErrOverloaded
	}
	defer a.waiting.Add(-1)
	select {
	case a.slots <- struct{}{}:
		a.admitted.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// AcquireWait claims a slot, waiting as long as ctx allows and
// bypassing the bounded shed queue. It serves the async worker pool: an
// async job was already admitted (202, journaled) at submission, so
// under overload it must wait for backend capacity rather than be shed
// and burn its retry budget — the pool size itself bounds how many such
// waiters can exist. On success the caller must Release.
func (a *admission) AcquireWait(ctx context.Context) error {
	a.asyncWaiting.Add(1)
	defer a.asyncWaiting.Add(-1)
	select {
	case a.slots <- struct{}{}:
		a.admitted.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// acquire claims a slot with AcquireWait when wait is set, with Acquire
// otherwise.
func (a *admission) acquire(ctx context.Context, wait bool) error {
	if wait {
		return a.AcquireWait(ctx)
	}
	return a.Acquire(ctx)
}

// Release returns a slot claimed by Acquire or AcquireWait.
func (a *admission) Release() { <-a.slots }

// Stats snapshots the counters.
func (a *admission) Stats() AdmissionStats {
	return AdmissionStats{
		Waiting:      int(a.waiting.Load()),
		WaitingAsync: int(a.asyncWaiting.Load()),
		Admitted:     a.admitted.Load(),
		Rejected:     a.rejected.Load(),
	}
}
