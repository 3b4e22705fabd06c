// Package stats implements the CPU-state accounting this reproduction uses
// in place of Linux's /proc/stat counters: per-node accumulation of
// user, system, and I/O-wait core-time, from which the "CPU waiting %"
// columns of the paper's Fig. 8 are derived.
package stats

import (
	"sync/atomic"
	"time"
)

// Collector accumulates core-time by state for a node with a fixed number
// of logical cores. It is safe for concurrent use and takes no lock: each
// counter is an atomic, so a Usage taken while work is being added may
// see one counter of an invocation before another.
type Collector struct {
	cores  int
	user   atomic.Int64 // nanoseconds, as every duration below
	system atomic.Int64
	iowait atomic.Int64
	tasks  atomic.Uint64
}

// NewCollector returns a Collector for a node with the given core count.
func NewCollector(cores int) *Collector {
	if cores <= 0 {
		cores = 1
	}
	return &Collector{cores: cores}
}

// AddUser records core-time spent running user code.
func (c *Collector) AddUser(d time.Duration) { c.user.Add(int64(d)) }

// AddSystem records core-time spent in runtime bookkeeping (dependency
// resolution, scheduling, storage).
func (c *Collector) AddSystem(d time.Duration) { c.system.Add(int64(d)) }

// AddIOWait records core-time during which a claimed CPU slot sat idle
// waiting for I/O — the starvation the paper's design eliminates.
func (c *Collector) AddIOWait(d time.Duration) { c.iowait.Add(int64(d)) }

// AddTask counts a completed task (for throughput reporting).
func (c *Collector) AddTask() { c.tasks.Add(1) }

// Reset zeroes all counters.
func (c *Collector) Reset() {
	c.user.Store(0)
	c.system.Store(0)
	c.iowait.Store(0)
	c.tasks.Store(0)
}

// Usage is a snapshot of accumulated core-time against a wall-clock
// interval, in the shape of the paper's Fig. 8 tables.
type Usage struct {
	Cores  int
	Wall   time.Duration
	User   time.Duration
	System time.Duration
	IOWait time.Duration
	Idle   time.Duration
	Tasks  uint64
}

// Usage computes the Usage for a run that took wall time. Idle is the
// remainder of total core-time not attributed to user/system/iowait.
func (c *Collector) Usage(wall time.Duration) Usage {
	u := Usage{
		Cores:  c.cores,
		Wall:   wall,
		User:   time.Duration(c.user.Load()),
		System: time.Duration(c.system.Load()),
		IOWait: time.Duration(c.iowait.Load()),
		Tasks:  c.tasks.Load(),
	}
	u.Idle = max(wall*time.Duration(c.cores)-u.User-u.System-u.IOWait, 0)
	return u
}

// Merge combines per-node usages into a cluster-wide total (wall time is
// the max across nodes; core-time sums).
func Merge(us ...Usage) Usage {
	var out Usage
	for _, u := range us {
		out.Cores += u.Cores
		if u.Wall > out.Wall {
			out.Wall = u.Wall
		}
		out.User += u.User
		out.System += u.System
		out.IOWait += u.IOWait
		out.Idle += u.Idle
		out.Tasks += u.Tasks
	}
	return out
}

// WaitingPct reports the paper's "CPU waiting %": the share of total
// core-time spent idle or in I/O wait.
func (u Usage) WaitingPct() float64 {
	total := u.User + u.System + u.IOWait + u.Idle
	if total == 0 {
		return 0
	}
	return 100 * float64(u.IOWait+u.Idle) / float64(total)
}
