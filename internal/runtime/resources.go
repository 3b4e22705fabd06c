package runtime

import (
	"context"
	"fmt"
	"sync"
)

// resources tracks a node's CPU slots and RAM reservations. With
// externalized I/O the engine acquires resources only once an invocation's
// minimum repository is resident, so a waiting job consumes nothing here.
type resources struct {
	mu      sync.Mutex
	cond    *sync.Cond
	cpuFree int
	memFree uint64
	cpuCap  int
	memCap  uint64
}

func newResources(cpu int, mem uint64) *resources {
	r := &resources{cpuFree: cpu, memFree: mem, cpuCap: cpu, memCap: mem}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// acquire blocks until cpu slots and mem bytes are available (or ctx is
// done) and claims them. Free resources are claimed at once, even under a
// done ctx; only a caller that must wait registers for cancellation.
func (r *resources) acquire(ctx context.Context, cpu int, mem uint64) error {
	if cpu > r.cpuCap || mem > r.memCap {
		return fmt.Errorf("runtime: request (%d cores, %d bytes) exceeds node capacity (%d cores, %d bytes)", cpu, mem, r.cpuCap, r.memCap)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cpuFree < cpu || r.memFree < mem {
		// The callback takes r.mu on its own goroutine, so registering it
		// under the lock is safe, and its Broadcast cannot fall between a
		// ctx check below and the Wait after it.
		stop := context.AfterFunc(ctx, func() {
			r.mu.Lock()
			defer r.mu.Unlock()
			r.cond.Broadcast()
		})
		defer stop()
		for r.cpuFree < cpu || r.memFree < mem {
			if err := ctx.Err(); err != nil {
				return err
			}
			r.cond.Wait()
		}
	}
	r.cpuFree -= cpu
	r.memFree -= mem
	return nil
}

// release returns claimed resources.
func (r *resources) release(cpu int, mem uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cpuFree += cpu
	r.memFree += mem
	if r.cpuFree > r.cpuCap {
		r.cpuFree = r.cpuCap
	}
	if r.memFree > r.memCap {
		r.memFree = r.memCap
	}
	r.cond.Broadcast()
}

// inUse reports currently claimed CPU slots and RAM (for tests and
// monitoring).
func (r *resources) inUse() (cpu int, mem uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cpuCap - r.cpuFree, r.memCap - r.memFree
}
