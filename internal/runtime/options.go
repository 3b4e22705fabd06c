// Package runtime implements Fixpoint: the multi-node runtime for programs
// expressed in the Fix ABI (section 4 of the paper). An Engine evaluates
// Fix objects with memoization, enforces the minimum-repository discipline
// on running procedures, and — the paper's central mechanism — performs all
// network I/O itself, claiming CPU and RAM for an invocation only after its
// data dependencies are resident ("late binding"). The status-quo resource
// model used by conventional serverless platforms is available as the
// InternalIO ablation, which claims resources before fetching.
package runtime

import (
	"context"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"fixgo/internal/core"
)

// Fetcher retrieves the canonical bytes of objects that are not resident
// locally: from peer Fixpoint nodes, or from a network storage service.
type Fetcher interface {
	Fetch(ctx context.Context, h core.Handle) ([]byte, error)
}

// FetcherFunc adapts a function to the Fetcher interface.
type FetcherFunc func(ctx context.Context, h core.Handle) ([]byte, error)

// Fetch calls f.
func (f FetcherFunc) Fetch(ctx context.Context, h core.Handle) ([]byte, error) {
	return f(ctx, h)
}

// Delegator lets a distributed scheduler intercept the forcing of an
// Encode and run it on a different node. Offload returns handled=false to
// keep the job local.
type Delegator interface {
	Offload(ctx context.Context, encode core.Handle) (result core.Handle, handled bool, err error)
}

// Options configures an Engine.
type Options struct {
	// Cores is the number of CPU slots procedures compete for
	// (default 32, matching the paper's m5.8xlarge nodes).
	Cores int
	// MemoryBytes is the RAM capacity for invocation reservations
	// (default 64 GiB, matching Fig. 8a).
	MemoryBytes uint64
	// InternalIO enables the status-quo ablation: invocations claim CPU
	// and RAM before their dependencies are fetched, and the CPU may be
	// oversubscribed (Fig. 8a/8b "internal I/O").
	InternalIO bool
	// OversubscribeCores is the CPU slot count used when InternalIO is
	// set (the paper oversubscribes 32 cores to 200). Zero means Cores.
	OversubscribeCores int
	// Fetcher supplies missing objects; nil means evaluation fails on a
	// non-resident dependency.
	Fetcher Fetcher
	// Delegator, when set, may run Encode forcing on other nodes.
	Delegator Delegator
	// Registry resolves named native procedures. Nil means only FixVM
	// codelets can run.
	Registry *Registry
}

// maxEvalDepth bounds recursive evaluation nesting and tail-call chain
// length, converting runaway recursion into ErrDepthExceeded instead of
// a hang.
const maxEvalDepth = 100_000

func (o Options) withDefaults() Options {
	if o.Cores <= 0 {
		o.Cores = 32
	}
	if o.MemoryBytes == 0 {
		o.MemoryBytes = 64 << 30
	}
	if o.OversubscribeCores <= 0 {
		o.OversubscribeCores = o.Cores
	}
	return o
}

// Registry maps native procedure names to implementations. It is the
// trusted complement of the FixVM toolchain: entries play the role of
// codelets produced by other trusted toolchains.
//
// Procedures are registered at set-up and looked up on every invocation,
// so lookups read the map without a lock and Register replaces it with a
// copy.
type Registry struct {
	mu    sync.Mutex // serializes Register
	procs atomic.Pointer[map[string]core.Procedure]
}

// NewRegistry returns an empty Registry.
func NewRegistry() *Registry {
	r := &Registry{}
	r.procs.Store(&map[string]core.Procedure{})
	return r
}

// Register installs a procedure under name, replacing any previous entry.
func (r *Registry) Register(name string, p core.Procedure) {
	r.mu.Lock()
	defer r.mu.Unlock()
	next := maps.Clone(*r.procs.Load())
	next[name] = p
	r.procs.Store(&next)
}

// RegisterFunc installs a function as a procedure.
func (r *Registry) RegisterFunc(name string, f func(api core.API, input core.Handle) (core.Handle, error)) {
	r.Register(name, core.ProcedureFunc(f))
}

// Lookup finds a procedure by name.
func (r *Registry) Lookup(name string) (core.Procedure, error) {
	return r.lookup([]byte(name))
}

// lookup finds a procedure by a name still inside its function Blob:
// indexing with string(name) copies nothing.
func (r *Registry) lookup(name []byte) (core.Procedure, error) {
	p, ok := (*r.procs.Load())[string(name)]
	if !ok {
		return nil, fmt.Errorf("runtime: no native procedure %q registered", string(name))
	}
	return p, nil
}

// Names lists registered procedure names (for diagnostics).
func (r *Registry) Names() []string {
	procs := *r.procs.Load()
	out := make([]string, 0, len(procs))
	for n := range procs {
		out = append(out, n)
	}
	return out
}
