// Package faasm is an architectural re-implementation of the Faasm
// baseline: a serverless runtime that, like Fixpoint, isolates functions
// with WebAssembly-style software fault isolation in a shared address
// space — but *without* I/O externalization. Its functions see a general
// host interface (filesystem, shared state), which costs a heavier
// per-invocation runtime path: dispatch through the runtime's scheduler
// plus restoring a pre-initialized memory snapshot ("zygote" /
// proto-function restore) for every invocation.
//
// The same FixVM codelets run here as on Fixpoint, making the comparison
// direct: identical user code, different runtime architecture. Overheads
// are calibrated to Fig. 7a (Faasm ≈ 10.6 ms per trivial invocation, of
// which ≈ 2.3 ms is the reported core execution).
package faasm

import (
	"context"
	"fmt"
	"sync"
	"time"

	"fixgo/internal/codelet"
	"fixgo/internal/core"
	"fixgo/internal/store"
)

// Calibration defaults.
const (
	// DefaultDispatchOverhead models the scheduler + host-interface
	// setup path per invocation.
	DefaultDispatchOverhead = 8 * time.Millisecond
	// DefaultSnapshotBytes is the zygote memory image restored (really
	// copied) per invocation.
	DefaultSnapshotBytes = 4 << 20
)

// Options configures a Runtime.
type Options struct {
	DispatchOverhead time.Duration
	SnapshotBytes    int
}

func (o Options) withDefaults() Options {
	if o.DispatchOverhead == 0 {
		o.DispatchOverhead = DefaultDispatchOverhead
	}
	if o.SnapshotBytes == 0 {
		o.SnapshotBytes = DefaultSnapshotBytes
	}
	return o
}

// Runtime is a Faasm-analog deployment over a local store.
type Runtime struct {
	opts Options
	st   *store.Store

	mu      sync.Mutex
	progs   map[string]*codelet.Program
	zygotes map[string][]byte
	scratch []byte
}

// New creates a runtime over st.
func New(st *store.Store, opts Options) *Runtime {
	o := opts.withDefaults()
	return &Runtime{
		opts:    o,
		st:      st,
		progs:   make(map[string]*codelet.Program),
		zygotes: make(map[string][]byte),
	}
}

// Register deploys a codelet under a function name, pre-validating it and
// building its zygote snapshot (done once, like Faasm's proto-functions).
func (r *Runtime) Register(name string, bytecode []byte) error {
	prog, err := codelet.Load(bytecode)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.progs[name] = prog
	zygote := make([]byte, r.opts.SnapshotBytes)
	for i := range zygote {
		zygote[i] = byte(i) // non-trivial image so the restore copy is real work
	}
	r.zygotes[name] = zygote
	return nil
}

// Invoke runs a deployed function against an input handle. Unlike
// Fixpoint, the function gets an unrestricted host interface over the
// whole store (no minimum-repository enforcement) and every invocation
// pays dispatch plus snapshot restore.
func (r *Runtime) Invoke(ctx context.Context, name string, input core.Handle) (core.Handle, error) {
	r.mu.Lock()
	prog := r.progs[name]
	zygote := r.zygotes[name]
	r.mu.Unlock()
	if prog == nil {
		return core.Handle{}, fmt.Errorf("faasm: no function %q", name)
	}
	if err := sleepCtx(ctx, r.opts.DispatchOverhead); err != nil {
		return core.Handle{}, err
	}
	// Restore the zygote: a real copy, the dominant non-dispatch cost.
	restored := make([]byte, len(zygote))
	copy(restored, zygote)
	_ = restored

	return prog.Apply(core.BasicAPI{S: r.st}, input)
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
