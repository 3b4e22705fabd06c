// Package raysim is an architectural re-implementation of the Ray
// execution model used as a comparison baseline throughout the paper's
// evaluation (sections 5.1–5.5). It reproduces the mechanisms the paper
// attributes Ray's costs to:
//
//   - ObjectRefs and ray.get: a blocking get holds the calling task's
//     worker slot while data is located and transferred;
//   - driver-owned dependency resolution: every task submission pays a
//     round trip to the driver (free only when the driver is colocated),
//     plus a fixed per-task overhead (serialization, scheduling, IPC);
//   - locality-aware scheduling: tasks are placed on the node holding the
//     most bytes of their ObjectRef arguments;
//   - argument pulling: ref arguments are transferred to the executing
//     node before a worker slot is claimed (but explicit in-task gets
//     block the slot — the contrast the paper draws in Listings 2/3).
//
// Per-invocation overhead constants default to values calibrated against
// the paper's Fig. 7a measurements (ARCHITECTURE.md §Substitutions).
package raysim

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"fixgo/internal/transport"
)

// Calibration defaults (paper Fig. 7a: Ray trivial invocation ≈ 1.29 ms).
const (
	// DefaultTaskOverhead models pickling + scheduling + IPC per task.
	DefaultTaskOverhead = 1100 * time.Microsecond
	// DefaultGetOverhead models a ray.get on already-local data.
	DefaultGetOverhead = 120 * time.Microsecond
)

// Ref names an object in the cluster's distributed object store.
type Ref struct {
	ID uint64
}

// Arg is a task argument: either an ObjectRef or inline bytes.
type Arg struct {
	IsRef bool
	Ref   Ref
	Data  []byte
}

// ByRef wraps a Ref as an argument.
func ByRef(r Ref) Arg { return Arg{IsRef: true, Ref: r} }

// ByValue wraps inline bytes as an argument.
func ByValue(data []byte) Arg { return Arg{Data: data} }

// TaskFunc is the body of a remote function. Ref arguments have been
// pulled to the executing node; tc provides Get/Put/Submit.
type TaskFunc func(tc *TaskCtx, args []Arg) ([]byte, error)

// Options configures a simulated Ray cluster.
type Options struct {
	// Nodes and CoresPerNode size the cluster (default 1 × 1,
	// matching the paper's Fig. 9 setup).
	Nodes        int
	CoresPerNode int
	// DriverLatency is the one-way delay between the driver (client) and
	// the cluster. Zero means colocated.
	DriverLatency time.Duration
	// Link models inter-node object transfers.
	Link transport.LinkConfig
	// TaskOverhead and GetOverhead are the calibrated per-operation
	// costs (defaults above).
	TaskOverhead time.Duration
	GetOverhead  time.Duration
	// Seed makes tie-break placement deterministic.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Nodes <= 0 {
		o.Nodes = 1
	}
	if o.CoresPerNode <= 0 {
		o.CoresPerNode = 1
	}
	if o.TaskOverhead == 0 {
		o.TaskOverhead = DefaultTaskOverhead
	}
	if o.GetOverhead == 0 {
		o.GetOverhead = DefaultGetOverhead
	}
	return o
}

// driverNode is the pseudo-location of the driver process.
const driverNode = -1

type object struct {
	done      chan struct{}
	data      []byte
	err       error
	locations map[int]bool // node index (or driverNode) → present
}

type task struct {
	name   string
	fn     TaskFunc
	args   []Arg
	result *object
	node   int
}

// Cluster is a simulated Ray deployment plus its driver.
type Cluster struct {
	opts Options
	reg  map[string]TaskFunc

	mu     sync.Mutex
	objs   map[uint64]*object
	nextID uint64
	rng    *rand.Rand
	busy   map[[2]int]time.Time // directed link → busy-until (bandwidth serialization)

	queues []chan *task
	wg     sync.WaitGroup
	closed chan struct{}

	tasksRun  []int64 // per node
	statsMu   sync.Mutex
	bytesMove int64
}

// NewCluster starts the worker pools.
func NewCluster(opts Options) *Cluster {
	opts = opts.withDefaults()
	c := &Cluster{
		opts:   opts,
		reg:    make(map[string]TaskFunc),
		objs:   make(map[uint64]*object),
		rng:    rand.New(rand.NewSource(opts.Seed + 1)),
		busy:   make(map[[2]int]time.Time),
		queues: make([]chan *task, opts.Nodes),
		closed: make(chan struct{}),
	}
	c.tasksRun = make([]int64, opts.Nodes)
	for n := 0; n < opts.Nodes; n++ {
		// Ready queue: ref args already pulled; workers are the slots.
		ready := make(chan *task, 4096)
		c.queues[n] = make(chan *task, 4096)
		go c.dispatcher(n, c.queues[n], ready)
		for w := 0; w < opts.CoresPerNode; w++ {
			c.wg.Add(1)
			go c.worker(n, ready)
		}
	}
	return c
}

// Close shuts the cluster down.
func (c *Cluster) Close() {
	close(c.closed)
}

// Register installs a remote function.
func (c *Cluster) Register(name string, fn TaskFunc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reg[name] = fn
}

// Put places an object directly on a node (experiment setup; no service
// time).
func (c *Cluster) Put(node int, data []byte) Ref {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.putLocked(node, data)
}

func (c *Cluster) putLocked(node int, data []byte) Ref {
	c.nextID++
	o := &object{done: make(chan struct{}), data: data, locations: map[int]bool{node: true}}
	close(o.done)
	c.objs[c.nextID] = o
	return Ref{ID: c.nextID}
}

// Submit schedules a task from the driver and returns a future Ref. The
// call costs the per-task overhead plus the driver→cluster hop.
func (c *Cluster) Submit(ctx context.Context, name string, args ...Arg) (Ref, error) {
	if err := sleepCtx(ctx, c.opts.TaskOverhead+c.opts.DriverLatency); err != nil {
		return Ref{}, err
	}
	return c.schedule(ctx, name, args)
}

// Get blocks the driver until the object is ready and transferred to the
// driver.
func (c *Cluster) Get(ctx context.Context, r Ref) ([]byte, error) {
	if err := sleepCtx(ctx, c.opts.GetOverhead); err != nil {
		return nil, err
	}
	o := c.object(r)
	if o == nil {
		return nil, fmt.Errorf("raysim: unknown object %d", r.ID)
	}
	select {
	case <-o.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if o.err != nil {
		return nil, o.err
	}
	if err := c.transfer(ctx, o, driverNode); err != nil {
		return nil, err
	}
	return o.data, nil
}

// Wait blocks until the object is complete without transferring it.
func (c *Cluster) Wait(ctx context.Context, r Ref) error {
	o := c.object(r)
	if o == nil {
		return fmt.Errorf("raysim: unknown object %d", r.ID)
	}
	select {
	case <-o.done:
		return o.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (c *Cluster) object(r Ref) *object {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.objs[r.ID]
}

// schedule places a task with argument locality and enqueues it.
func (c *Cluster) schedule(ctx context.Context, name string, args []Arg) (Ref, error) {
	c.mu.Lock()
	fn, ok := c.reg[name]
	if !ok {
		c.mu.Unlock()
		return Ref{}, fmt.Errorf("raysim: no function %q", name)
	}
	// Locality: node with most ref-argument bytes already local.
	best, bestBytes := -1, int64(-1)
	order := c.rng.Perm(c.opts.Nodes)
	for _, n := range order {
		var local int64
		for _, a := range args {
			if !a.IsRef {
				continue
			}
			if o := c.objs[a.Ref.ID]; o != nil && o.locations[n] {
				local += int64(len(o.data))
			}
		}
		if local > bestBytes {
			best, bestBytes = n, local
		}
	}
	c.nextID++
	result := &object{done: make(chan struct{}), locations: make(map[int]bool)}
	c.objs[c.nextID] = result
	ref := Ref{ID: c.nextID}
	t := &task{name: name, fn: fn, args: args, result: result, node: best}
	q := c.queues[best]
	c.mu.Unlock()

	select {
	case q <- t:
		return ref, nil
	case <-ctx.Done():
		return Ref{}, ctx.Err()
	}
}

// dispatcher pulls ref arguments to the node, then hands tasks to workers.
func (c *Cluster) dispatcher(node int, in chan *task, ready chan *task) {
	for {
		var t *task
		select {
		case t = <-in:
		case <-c.closed:
			return
		}
		go func(t *task) {
			ctx := context.Background()
			for _, a := range t.args {
				if !a.IsRef {
					continue
				}
				o := c.object(a.Ref)
				if o == nil {
					c.finish(t.result, nil, fmt.Errorf("raysim: unknown arg object %d", a.Ref.ID), t.node)
					return
				}
				select {
				case <-o.done:
				case <-c.closed:
					return
				}
				if o.err != nil {
					c.finish(t.result, nil, fmt.Errorf("raysim: upstream task failed: %w", o.err), t.node)
					return
				}
				if err := c.transfer(ctx, o, t.node); err != nil {
					c.finish(t.result, nil, err, t.node)
					return
				}
			}
			select {
			case ready <- t:
			case <-c.closed:
			}
		}(t)
	}
}

func (c *Cluster) worker(node int, ready chan *task) {
	defer c.wg.Done()
	for {
		var t *task
		select {
		case t = <-ready:
		case <-c.closed:
			return
		}
		tc := &TaskCtx{c: c, node: node}
		data, err := t.fn(tc, t.args)
		if err == nil && tc.forward != nil {
			// The task returned a future (Ray's nested-ObjectRef
			// pattern): resolve it asynchronously without holding the
			// worker slot.
			go c.resolveForward(t.result, *tc.forward, node)
		} else {
			c.finish(t.result, data, err, node)
		}
		c.statsMu.Lock()
		c.tasksRun[node]++
		c.statsMu.Unlock()
	}
}

func (c *Cluster) resolveForward(result *object, r Ref, node int) {
	o := c.object(r)
	if o == nil {
		c.finish(result, nil, fmt.Errorf("raysim: forwarded unknown object %d", r.ID), node)
		return
	}
	select {
	case <-o.done:
	case <-c.closed:
		return
	}
	c.finish(result, o.data, o.err, node)
}

func (c *Cluster) finish(o *object, data []byte, err error, node int) {
	c.mu.Lock()
	o.data = data
	o.err = err
	o.locations[node] = true
	c.mu.Unlock()
	close(o.done)
}

// transfer moves an object's bytes to a node over the simulated fabric.
func (c *Cluster) transfer(ctx context.Context, o *object, to int) error {
	c.mu.Lock()
	if o.locations[to] {
		c.mu.Unlock()
		return nil
	}
	// Source: any current location (first found).
	from := to
	for n := range o.locations {
		from = n
		break
	}
	size := len(o.data)
	wait := c.opts.Link.Latency + c.reserveLocked(from, to, size)
	if to == driverNode || from == driverNode {
		wait += c.opts.DriverLatency
	}
	c.mu.Unlock()

	if err := sleepCtx(ctx, wait); err != nil {
		return err
	}
	c.mu.Lock()
	o.locations[to] = true
	c.mu.Unlock()
	c.statsMu.Lock()
	c.bytesMove += int64(size)
	c.statsMu.Unlock()
	return nil
}

// reserveLocked books n bytes on the directed link (bandwidth
// serialization, like the Fixpoint transport pipes).
func (c *Cluster) reserveLocked(from, to, n int) time.Duration {
	if c.opts.Link.Bandwidth <= 0 || from == to {
		return 0
	}
	xfer := time.Duration(float64(n) / c.opts.Link.Bandwidth * float64(time.Second))
	key := [2]int{from, to}
	now := time.Now()
	start := c.busy[key]
	if now.After(start) {
		start = now
	}
	c.busy[key] = start.Add(xfer)
	return c.busy[key].Sub(now)
}

// Stats reports per-node completed task counts and total bytes moved.
func (c *Cluster) Stats() (tasks []int64, bytesMoved int64) {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	out := make([]int64, len(c.tasksRun))
	copy(out, c.tasksRun)
	return out, c.bytesMove
}

// TaskCtx is the in-task API.
type TaskCtx struct {
	c       *Cluster
	node    int
	forward *Ref
}

// Forward makes this task's result resolve to another object's eventual
// value (returning an ObjectRef from a task). The worker slot is released
// immediately; resolution happens asynchronously.
func (tc *TaskCtx) Forward(r Ref) { tc.forward = &r }

// Node reports the executing node index.
func (tc *TaskCtx) Node() int { return tc.node }

// Get is a blocking ray.get: it holds this task's worker slot while the
// object completes and transfers to the local node — the starvation the
// paper's Listing 2 illustrates.
func (tc *TaskCtx) Get(ctx context.Context, r Ref) ([]byte, error) {
	if err := sleepCtx(ctx, tc.c.opts.GetOverhead); err != nil {
		return nil, err
	}
	o := tc.c.object(r)
	if o == nil {
		return nil, fmt.Errorf("raysim: unknown object %d", r.ID)
	}
	select {
	case <-o.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if o.err != nil {
		return nil, o.err
	}
	if err := tc.c.transfer(ctx, o, tc.node); err != nil {
		return nil, err
	}
	return o.data, nil
}

// Put stores a new object on the local node.
func (tc *TaskCtx) Put(data []byte) Ref {
	tc.c.mu.Lock()
	defer tc.c.mu.Unlock()
	return tc.c.putLocked(tc.node, data)
}

// Submit is a continuation-passing-style task launch from inside a task
// (the paper's Listing 3). Dependency resolution is owned by the driver,
// so the submission pays a driver round trip in addition to the per-task
// overhead.
func (tc *TaskCtx) Submit(ctx context.Context, name string, args ...Arg) (Ref, error) {
	if err := sleepCtx(ctx, tc.c.opts.TaskOverhead+2*tc.c.opts.DriverLatency); err != nil {
		return Ref{}, err
	}
	return tc.c.schedule(ctx, name, args)
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
