package runtime

import "sync"

// maxIdleWorkers bounds the parked evaluation goroutines kept for reuse.
const maxIdleWorkers = 64

// idle is the stack of parked workers, each waiting on its own channel.
// It is last-in first-out so that sparse work keeps landing on the worker
// whose stack was grown most recently.
var idle struct {
	sync.Mutex
	workers []chan func()
}

// Go runs f on its own goroutine, the one way the tree starts a
// per-evaluation goroutine. An idle worker takes f onto a stack an
// earlier evaluation already grew; with none idle it is a plain go
// statement. Go never queues f behind running work: evaluations block on
// each other through futures and delegations, so a pool that made f wait
// for a busy worker could deadlock. The pool is process-wide and its
// parked workers reference nothing, so replacing an Engine or closing a
// Node strands no store behind an idle goroutine.
func Go(f func()) {
	idle.Lock()
	n := len(idle.workers)
	if n == 0 {
		idle.Unlock()
		go worker(f)
		return
	}
	w := idle.workers[n-1]
	idle.workers = idle.workers[:n-1]
	idle.Unlock()
	w <- f
}

func worker(f func()) {
	// Capacity 1: whoever pops this worker sends without waiting for it
	// to reach its receive.
	self := make(chan func(), 1)
	for {
		f()
		f = nil // a parked worker must not pin the evaluation it last ran
		idle.Lock()
		if len(idle.workers) == maxIdleWorkers {
			idle.Unlock()
			return
		}
		idle.workers = append(idle.workers, self)
		idle.Unlock()
		f = <-self
	}
}

// fanOut runs branch(0) … branch(n-1) concurrently and returns when all
// have: every branch but the last on a goroutine from Go, the last on the
// caller, whose stack is already grown and would otherwise only wait.
func fanOut(n int, branch func(i int)) {
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for i := 0; i < n-1; i++ {
		Go(func() {
			defer wg.Done()
			branch(i)
		})
	}
	branch(n - 1)
	wg.Wait()
}
