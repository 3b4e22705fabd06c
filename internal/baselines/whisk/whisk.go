// Package whisk is an architectural re-implementation of the paper's
// "OpenWhisk + MinIO + Kubernetes" baseline: a conventional serverless
// platform with the properties the paper contrasts Fix against:
//
//   - per-invocation controller/invoker path cost and container cold
//     starts (calibrated to Fig. 7a: 30.7 ms per trivial invocation);
//   - locality-blind placement: Kubernetes schedules containers round-
//     robin with no knowledge of where data lives;
//   - internal I/O: a function's container claims a CPU slot first, then
//     fetches its inputs from the object store while the slot idles
//     (accounted as I/O wait, the 92 % "CPU waiting" of Fig. 8b).
package whisk

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fixgo/internal/baselines/s3sim"
	"fixgo/internal/stats"
)

// Calibration defaults (paper Fig. 7a: OpenWhisk ≈ 30.7 ms per warm
// invocation, of which ≈ 5.2 ms is the reported core execution).
const (
	// DefaultInvokeOverhead models the controller → load balancer →
	// invoker → container round trip per activation.
	DefaultInvokeOverhead = 26 * time.Millisecond
	// DefaultColdStart models creating a container for an action that
	// has no warm container on the chosen node.
	DefaultColdStart = 450 * time.Millisecond
)

// Action is a deployed function. It reads inputs and writes outputs
// through the Invocation's object-store accessors (there is no other I/O).
type Action func(ctx context.Context, inv *Invocation) ([]byte, error)

// Options configures a Platform.
type Options struct {
	Nodes          int
	CoresPerNode   int
	InvokeOverhead time.Duration
	ColdStart      time.Duration
	// Store is the MinIO-analog object store actions read and write.
	Store *s3sim.Store
}

func (o Options) withDefaults() Options {
	if o.Nodes <= 0 {
		o.Nodes = 1
	}
	if o.CoresPerNode <= 0 {
		o.CoresPerNode = 1
	}
	if o.InvokeOverhead == 0 {
		o.InvokeOverhead = DefaultInvokeOverhead
	}
	if o.ColdStart == 0 {
		o.ColdStart = DefaultColdStart
	}
	return o
}

type node struct {
	slots chan struct{}
	mu    sync.Mutex
	warm  map[string]int // action → warm containers
	used  map[string]int // action → containers in use
	stats *stats.Collector
}

// Platform is a running OpenWhisk-analog deployment.
type Platform struct {
	opts    Options
	mu      sync.RWMutex
	actions map[string]Action
	nodes   []*node
	rr      atomic.Int64
}

// New deploys a platform.
func New(opts Options) *Platform {
	opts = opts.withDefaults()
	p := &Platform{opts: opts, actions: make(map[string]Action)}
	for i := 0; i < opts.Nodes; i++ {
		p.nodes = append(p.nodes, &node{
			slots: make(chan struct{}, opts.CoresPerNode),
			warm:  make(map[string]int),
			used:  make(map[string]int),
			stats: stats.NewCollector(opts.CoresPerNode),
		})
	}
	return p
}

// Register deploys an action.
func (p *Platform) Register(name string, a Action) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.actions[name] = a
}

// Usage merges per-node CPU accounting over a wall interval.
func (p *Platform) Usage(wall time.Duration) stats.Usage {
	us := make([]stats.Usage, len(p.nodes))
	for i, n := range p.nodes {
		us[i] = n.stats.Usage(wall)
	}
	return stats.Merge(us...)
}

// Invoke runs an action to completion and returns its result bytes.
//
// The activation pays the controller path, is placed round-robin
// (Kubernetes sees no data locality), claims a container slot, cold-starts
// if needed, and only then — holding the slot — performs its I/O.
func (p *Platform) Invoke(ctx context.Context, action string, params map[string]string) ([]byte, error) {
	p.mu.RLock()
	fn, ok := p.actions[action]
	p.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("whisk: no action %q", action)
	}
	if err := sleepCtx(ctx, p.opts.InvokeOverhead); err != nil {
		return nil, err
	}
	n := p.nodes[int(p.rr.Add(1))%len(p.nodes)]

	// Claim the container slot (the "slice of a physical machine").
	select {
	case n.slots <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-n.slots }()

	// Cold start if no warm container for this action is free.
	n.mu.Lock()
	cold := n.used[action] >= n.warm[action]
	if cold {
		n.warm[action]++
	}
	n.used[action]++
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		n.used[action]--
		n.mu.Unlock()
	}()
	if cold {
		if err := sleepCtx(ctx, p.opts.ColdStart); err != nil {
			return nil, err
		}
		n.stats.AddIOWait(p.opts.ColdStart)
	}

	inv := &Invocation{p: p, Params: params}
	start := time.Now()
	out, err := fn(ctx, inv)
	total := time.Since(start)
	io := time.Duration(inv.ioNanos.Load())
	if user := total - io; user > 0 {
		n.stats.AddUser(user)
	}
	n.stats.AddIOWait(io)
	n.stats.AddTask()
	return out, err
}

// Invocation is the per-activation environment.
type Invocation struct {
	p       *Platform
	Params  map[string]string
	ioNanos atomic.Int64
}

// GetObject fetches from the object store. The time is charged as I/O
// wait: the container holds its CPU slot throughout (internal I/O).
func (inv *Invocation) GetObject(ctx context.Context, key string) ([]byte, error) {
	start := time.Now()
	data, err := inv.p.opts.Store.Get(ctx, key)
	inv.ioNanos.Add(int64(time.Since(start)))
	return data, err
}

// PutObject writes to the object store, also charged as I/O wait.
func (inv *Invocation) PutObject(ctx context.Context, key string, data []byte) error {
	start := time.Now()
	err := inv.p.opts.Store.Put(ctx, key, data)
	inv.ioNanos.Add(int64(time.Since(start)))
	return err
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
