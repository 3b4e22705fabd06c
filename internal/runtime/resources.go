package runtime

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// resources tracks a node's CPU slots and RAM reservations. With
// externalized I/O the engine acquires resources only once an invocation's
// minimum repository is resident, so a waiting job consumes nothing here.
//
// The free counts are atomics: a claim that fits is one compare-and-swap
// on each and takes no lock. Only an acquire that must wait takes mu, and
// a release takes it only when such a waiter exists.
type resources struct {
	cpuFree atomic.Int64
	memFree atomic.Uint64
	waiters atomic.Int32 // acquires registered to wait on cond
	cpuCap  int
	memCap  uint64

	mu   sync.Mutex
	cond sync.Cond
}

func newResources(cpu int, mem uint64) *resources {
	r := &resources{cpuCap: cpu, memCap: mem}
	r.cpuFree.Store(int64(cpu))
	r.memFree.Store(mem)
	r.cond.L = &r.mu
	return r
}

// acquire blocks until cpu slots and mem bytes are available (or ctx is
// done) and claims them. Free resources are claimed at once, even under a
// done ctx; only a caller that must wait registers for cancellation.
func (r *resources) acquire(ctx context.Context, cpu int, mem uint64) error {
	if cpu > r.cpuCap || mem > r.memCap {
		return fmt.Errorf("runtime: request (%d cores, %d bytes) exceeds node capacity (%d cores, %d bytes)", cpu, mem, r.cpuCap, r.memCap)
	}
	ok, undone := r.tryClaim(cpu, mem)
	if ok {
		return nil
	}
	if undone {
		r.wake()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// Registering before the next claim attempt means a release that
	// lands after that attempt sees the waiter and broadcasts, under mu,
	// so after the Wait below.
	r.waiters.Add(1)
	defer r.waiters.Add(-1)
	// The callback takes r.mu on its own goroutine, so registering it
	// under the lock is safe, and its Broadcast cannot fall between a
	// ctx check below and the Wait after it.
	stop := context.AfterFunc(ctx, func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.cond.Broadcast()
	})
	defer stop()
	// Waiters claim only under mu, so a slot this loop takes and gives
	// back was seen taken by no other waiter: nobody needs waking.
	for {
		if ok, _ := r.tryClaim(cpu, mem); ok {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		r.cond.Wait()
	}
}

// tryClaim claims cpu slots and mem bytes if both are free. A failed claim
// holds nothing, but it may have held the slots for a moment while it
// found memory short; undone reports that, and a waiter may then have seen
// the slots taken.
func (r *resources) tryClaim(cpu int, mem uint64) (ok, undone bool) {
	if !take(&r.cpuFree, int64(cpu)) {
		return false, false
	}
	for {
		free := r.memFree.Load()
		if free < mem {
			r.cpuFree.Add(int64(cpu))
			return false, true
		}
		if r.memFree.CompareAndSwap(free, free-mem) {
			return true, false
		}
	}
}

// take subtracts n from v if v holds at least n.
func take(v *atomic.Int64, n int64) bool {
	for {
		free := v.Load()
		if free < n {
			return false
		}
		if v.CompareAndSwap(free, free-n) {
			return true
		}
	}
}

// release returns claimed resources and wakes waiting acquires, if any.
func (r *resources) release(cpu int, mem uint64) {
	for {
		free := r.cpuFree.Load()
		if r.cpuFree.CompareAndSwap(free, min(free+int64(cpu), int64(r.cpuCap))) {
			break
		}
	}
	for {
		free := r.memFree.Load()
		if r.memFree.CompareAndSwap(free, min(free+mem, r.memCap)) {
			break
		}
	}
	r.wake()
}

// wake wakes every waiting acquire, if there is one, to retry its claim.
func (r *resources) wake() {
	if r.waiters.Load() > 0 {
		r.mu.Lock()
		r.cond.Broadcast()
		r.mu.Unlock()
	}
}

// inUse reports currently claimed CPU slots and RAM (for tests and
// monitoring).
func (r *resources) inUse() (cpu int, mem uint64) {
	return r.cpuCap - int(r.cpuFree.Load()), r.memCap - r.memFree.Load()
}
