// Package pheromone is an architectural re-implementation of the
// Pheromone baseline (NSDI '23): a serverless workflow system that
// colocates function orchestration with intermediate data. It captures
// the two properties the paper's comparison rests on:
//
//   - dependencies are expressed at *function* granularity (invoke B on
//     the output of A; invoke A on data landing in a bucket), so chained
//     workflows trigger inside the cluster with no client round trips —
//     much cheaper than Ray's driver-owned resolution (Fig. 7b);
//   - dependencies on *external durable storage* cannot be expressed
//     per-invocation, so map-phase functions still fetch their inputs
//     internally while holding a worker slot (Fig. 8b, map phase only —
//     the paper could not get Pheromone's reduce phase to run and
//     reports map-phase time, as do we).
package pheromone

import (
	"context"
	"fmt"
	"sync"
	"time"

	"fixgo/internal/baselines/s3sim"
	"fixgo/internal/stats"
)

// DefaultStepOverhead is the calibrated per-invocation orchestration cost
// (paper Fig. 7a: ≈ 1.05 ms per trivial invocation, 27 µs of it function
// logic).
const DefaultStepOverhead = 1 * time.Millisecond

// Func is a deployed function: bytes in, bytes out, with object-store
// access through the Env.
type Func func(ctx context.Context, env *Env, input []byte) ([]byte, error)

// Options configures an Engine.
type Options struct {
	// Workers is the total number of executor slots.
	Workers int
	// StepOverhead is the per-invocation orchestration cost.
	StepOverhead time.Duration
	// ClientLatency is the one-way client ↔ orchestrator delay, paid
	// once per workflow trigger and once for the reply — not per step.
	ClientLatency time.Duration
	// Store is the external object store (MinIO analog).
	Store *s3sim.Store
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.StepOverhead == 0 {
		o.StepOverhead = DefaultStepOverhead
	}
	return o
}

// Engine is a running Pheromone-analog deployment.
type Engine struct {
	opts  Options
	mu    sync.RWMutex
	fns   map[string]Func
	slots chan struct{}
	stats *stats.Collector
}

// New deploys an engine.
func New(opts Options) *Engine {
	opts = opts.withDefaults()
	return &Engine{
		opts:  opts,
		fns:   make(map[string]Func),
		slots: make(chan struct{}, opts.Workers),
		stats: stats.NewCollector(opts.Workers),
	}
}

// Register deploys a function.
func (e *Engine) Register(name string, fn Func) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.fns[name] = fn
}

// RunChain triggers a workflow whose stages are chained by function-level
// dependencies (output of stage i feeds stage i+1). The client pays its
// latency once each way; every step pays only the colocated orchestration
// overhead — the contrast with Ray's 500 round trips in Fig. 7b.
func (e *Engine) RunChain(ctx context.Context, names []string, input []byte) ([]byte, error) {
	if err := sleepCtx(ctx, e.opts.ClientLatency); err != nil {
		return nil, err
	}
	data := input
	for _, name := range names {
		var err error
		data, err = e.invoke(ctx, name, data)
		if err != nil {
			return nil, err
		}
	}
	if err := sleepCtx(ctx, e.opts.ClientLatency); err != nil {
		return nil, err
	}
	return data, nil
}

// RunMap triggers one invocation per input (a bucket-trigger fan-out) and
// collects the outputs. Inputs name external objects, so each function
// fetches its own data while holding a slot (internal I/O).
func (e *Engine) RunMap(ctx context.Context, name string, inputs [][]byte) ([][]byte, error) {
	if err := sleepCtx(ctx, e.opts.ClientLatency); err != nil {
		return nil, err
	}
	out := make([][]byte, len(inputs))
	errs := make([]error, len(inputs))
	var wg sync.WaitGroup
	for i, in := range inputs {
		wg.Add(1)
		go func(i int, in []byte) {
			defer wg.Done()
			out[i], errs[i] = e.invoke(ctx, name, in)
		}(i, in)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := sleepCtx(ctx, e.opts.ClientLatency); err != nil {
		return nil, err
	}
	return out, nil
}

func (e *Engine) invoke(ctx context.Context, name string, input []byte) ([]byte, error) {
	e.mu.RLock()
	fn, ok := e.fns[name]
	e.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("pheromone: no function %q", name)
	}
	if err := sleepCtx(ctx, e.opts.StepOverhead); err != nil {
		return nil, err
	}
	select {
	case e.slots <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-e.slots }()

	env := &Env{store: e.opts.Store}
	start := time.Now()
	out, err := fn(ctx, env, input)
	total := time.Since(start)
	io := env.ioDur
	if user := total - io; user > 0 {
		e.stats.AddUser(user)
	}
	e.stats.AddIOWait(io)
	e.stats.AddTask()
	return out, err
}

// Env is the per-invocation environment.
type Env struct {
	store *s3sim.Store
	ioDur time.Duration
}

// GetObject fetches from external storage while the invocation holds its
// slot (Pheromone cannot declare per-invocation data dependencies on
// durable storage).
func (env *Env) GetObject(ctx context.Context, key string) ([]byte, error) {
	if env.store == nil {
		return nil, fmt.Errorf("pheromone: no object store configured")
	}
	start := time.Now()
	data, err := env.store.Get(ctx, key)
	env.ioDur += time.Since(start)
	return data, err
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
