package runtime

import (
	"context"
	"sync"
	"sync/atomic"

	"fixgo/internal/core"
)

// maxIdleWorkers bounds the parked evaluation goroutines kept for reuse.
const maxIdleWorkers = 64

// idle is the stack of parked workers, each waiting on its own channel.
// It is last-in first-out so that sparse work keeps landing on the worker
// whose stack was grown most recently.
var idle struct {
	sync.Mutex
	workers []chan Task
}

// Task is work handed to Go. A pointer whose type has a Run method is
// handed over as it is, so work that already lives in an allocated
// record (a received Job, a fan-out) starts without a closure.
type Task interface{ Run() }

// Func adapts a plain function to a Task.
type Func func()

// Run calls f.
func (f Func) Run() { f() }

// Go runs t on its own goroutine, the one way the tree starts a
// per-evaluation goroutine. An idle worker takes t onto a stack an
// earlier evaluation already grew; with none idle it is a plain go
// statement. Go never queues t behind running work: evaluations block on
// each other through futures and delegations, so a pool that made t wait
// for a busy worker could deadlock. The pool is process-wide and its
// parked workers reference nothing, so replacing an Engine or closing a
// Node strands no store behind an idle goroutine.
func Go(t Task) {
	idle.Lock()
	n := len(idle.workers)
	if n == 0 {
		idle.Unlock()
		go worker(t)
		return
	}
	w := idle.workers[n-1]
	idle.workers = idle.workers[:n-1]
	idle.Unlock()
	w <- t
}

func worker(t Task) {
	// Capacity 1: whoever pops this worker sends without waiting for it
	// to reach its receive.
	self := make(chan Task, 1)
	for {
		t.Run()
		t = nil // a parked worker must not pin the evaluation it last ran
		idle.Lock()
		if len(idle.workers) == maxIdleWorkers {
			idle.Unlock()
			return
		}
		idle.workers = append(idle.workers, self)
		idle.Unlock()
		t = <-self
	}
}

// slabLen is how many records one slab of a Carver holds.
const slabLen = 32

// Carver hands out records of type T, each carved from a slab of slabLen
// and never handed out again: one allocation serves slabLen records. It
// is for a record made per invocation or per received Job, which its
// owner may not take back because someone could still hold it. Slabs
// with a free record wait in a sync.Pool, so each P carves from its own;
// a slab leaves the pool with its last record, and the GC frees it once
// none of its records is reachable.
//
// A record keeps its whole slab alive, and a slab still in the pool is
// reachable. So an owner detaches a record once its use is over: it
// clears every pointer the record holds, or any one record still held
// would pin what its neighbours pointed to (an Engine, a Node, a store).
// The zero Carver is ready to use.
type Carver[T any] struct{ slabs sync.Pool }

type slab[T any] struct {
	next int
	recs [slabLen]T
}

// Carve returns a zeroed record nobody else has been handed.
func (c *Carver[T]) Carve() *T {
	s, _ := c.slabs.Get().(*slab[T])
	if s == nil {
		s = new(slab[T])
	}
	r := &s.recs[s.next]
	s.next++
	if s.next < slabLen {
		c.slabs.Put(s)
	}
	return r
}

// fanInline is how many branches a fan-out record holds without a further
// allocation. It holds the Tree's entries inline too, up to an invocation
// Tree's limits and function entries besides fanInline arguments.
const fanInline = 8

// fanOp is what a fan-out branch does to its entry.
type fanOp uint8

const (
	fanForce     fanOp = iota // force an Encode entry into out
	fanStrictify              // strictify an entry into out
	fanFetch                  // make an entry's data resident
)

// fanOut is one fan-out over a Tree's entries, from the sync.Pool fanOuts:
// the branches' arguments, their WaitGroup, and inline room for their
// indexes, entries and errors. A larger fan-out puts its slices on the
// heap.
//
// run starts every branch but one on a goroutine from Go, passing the
// record itself as the Task, and runs the last on the caller, whose stack
// is already grown and would otherwise only wait. Each Run and the caller
// claim one branch index atomically, so every branch has a goroutine of
// its own and none waits behind another. The record goes back to the pool
// (release) only after run's Wait has returned and its owner has read out
// everything it needs: out is a view into the record.
type fanOut struct {
	wg    sync.WaitGroup
	claim atomic.Int32 // branches claimed so far

	e     *Engine
	ctx   context.Context
	op    fanOp
	depth int           // the depth branches evaluate at
	in    []core.Handle // the Tree's entries
	out   []core.Handle // a copy of in that force and strictify branches overwrite
	idxs  []int         // branch k works on entry idxs[k]
	errs  []error       // branch k's error

	idxBuf [fanInline]int
	outBuf [fanInline + 2]core.Handle
	errBuf [fanInline]error
}

var fanOuts = sync.Pool{New: func() any { return new(fanOut) }}

// newFanOut takes a record from the pool for op over in. Branches are
// added with add; force and strictify branches write into out, which
// starts as a copy of in.
func (e *Engine) newFanOut(ctx context.Context, op fanOp, in []core.Handle, depth int) *fanOut {
	f := fanOuts.Get().(*fanOut)
	f.e, f.ctx, f.op, f.in, f.depth = e, ctx, op, in, depth
	if op != fanFetch {
		f.out = f.outBuf[:0]
		f.out = append(f.out, in...)
	}
	f.idxs = f.idxBuf[:0]
	return f
}

// add makes entry i a branch.
func (f *fanOut) add(i int) { f.idxs = append(f.idxs, i) }

// run runs every branch and returns when all have, leaving branch k's
// error in errs[k].
func (f *fanOut) run() {
	n := len(f.idxs)
	if n <= fanInline {
		f.errs = f.errBuf[:n]
	} else {
		f.errs = make([]error, n)
	}
	f.wg.Add(n - 1)
	for range n - 1 {
		Go(f)
	}
	f.branch()
	f.wg.Wait()
}

// Run runs one branch of a fan-out on a goroutine from Go.
func (f *fanOut) Run() {
	f.branch()
	f.wg.Done()
}

// branch claims the next branch index and runs that branch.
func (f *fanOut) branch() {
	k := int(f.claim.Add(1)) - 1
	i := f.idxs[k]
	switch f.op {
	case fanForce:
		f.out[i], f.errs[k] = f.e.force(f.ctx, f.in[i], f.depth)
	case fanStrictify:
		f.out[i], f.errs[k] = f.e.strictify(f.ctx, f.in[i], f.depth)
	case fanFetch:
		f.errs[k] = f.e.ensureLocal(f.ctx, f.in[i])
	}
}

// firstErr is the error of the first branch, in index order, that failed.
func (f *fanOut) firstErr() error {
	for _, err := range f.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// release clears the record, so that the pool pins no evaluation and a
// read after release sees zero entries, and returns it to the pool.
func (f *fanOut) release() {
	clear(f.outBuf[:])
	clear(f.errBuf[:])
	f.e, f.ctx, f.in, f.out, f.idxs, f.errs = nil, nil, nil, nil, nil, nil
	f.claim.Store(0)
	fanOuts.Put(f)
}
