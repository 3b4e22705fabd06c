package runtime

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fixgo/internal/codelet"
	"fixgo/internal/core"
	"fixgo/internal/stats"
	"fixgo/internal/store"
)

// ErrNotResident reports a dependency that is neither local nor fetchable.
var ErrNotResident = errors.New("runtime: object not resident and no fetcher configured")

// ErrDepthExceeded reports runaway recursive evaluation.
var ErrDepthExceeded = errors.New("runtime: max evaluation depth exceeded")

// Engine is a single Fixpoint node's execution engine: a memoizing
// evaluator for Fix objects over a runtime store, with CPU/RAM slot
// accounting and optional delegation of Encode forcing to other nodes.
type Engine struct {
	st    *store.Store
	opts  Options
	stats *stats.Collector // CPU-state accounting
	res   *resources

	// stripes hold what concurrent invocations would otherwise all write:
	// the single-flight table and the in-flight count, split like the
	// store by the first byte of the key. A stripe is made on first use.
	stripes [engineStripes]atomic.Pointer[engineStripe]

	// progs caches loaded FixVM programs by function Object Handle. It is
	// read without a lock on every invocation and copied on write, under
	// progMu, once per function.
	progMu sync.Mutex
	progs  atomic.Pointer[map[core.Handle]*codelet.Program]
}

// engineStripes is a power of two, as in the store.
const engineStripes = 32

// engineStripe is one share of the engine's per-key state: the futures
// of its keys, and how many invocations of its Thunks are in flight.
// Padding makes it a 64-byte allocation of its own, so no two stripes
// share a cache line. Its map is made on first claim.
type engineStripe struct {
	mu       sync.Mutex
	futures  map[futKey]*future
	inFlight atomic.Int64
	_        [40]byte
}

type futKey struct {
	kind byte // 'T' = thunk eval, 'E' = encode force, 'S' = strictify
	h    core.Handle
}

type future struct {
	done chan struct{}
	res  core.Handle
	err  error
}

// New returns an Engine over st.
func New(st *store.Store, opts Options) *Engine {
	opts = opts.withDefaults()
	cpu := opts.Cores
	if opts.InternalIO {
		cpu = opts.OversubscribeCores
	}
	return &Engine{
		st:    st,
		opts:  opts,
		stats: stats.NewCollector(opts.Cores),
		res:   newResources(cpu, opts.MemoryBytes),
	}
}

// Store returns the engine's runtime storage.
func (e *Engine) Store() *store.Store { return e.st }

// Stats returns the engine's CPU-state collector.
func (e *Engine) Stats() *stats.Collector { return e.stats }

// InFlight reports the number of Application invocations whose Encode
// entries are resolved and that are now assembling their minimum
// repository or running — a load signal for distributed schedulers. An
// Application still waiting on its children holds no slot and is not
// counted.
func (e *Engine) InFlight() int64 {
	var n int64
	for i := range e.stripes {
		if es := e.stripes[i].Load(); es != nil {
			n += es.inFlight.Load()
		}
	}
	return n
}

// Eval evaluates a Fix object to a data Handle: data evaluates to itself,
// Thunks are evaluated until the result is not a Thunk, and Encodes are
// forced per their style.
func (e *Engine) Eval(ctx context.Context, h core.Handle) (core.Handle, error) {
	return e.eval(ctx, h, 0)
}

// EvalBlob evaluates h and returns the resulting Blob's contents.
func (e *Engine) EvalBlob(ctx context.Context, h core.Handle) ([]byte, error) {
	r, err := e.Eval(ctx, h)
	if err != nil {
		return nil, err
	}
	if err := e.ensureLocal(ctx, r); err != nil {
		return nil, err
	}
	return e.st.Blob(r)
}

// EvalTree evaluates h and returns the resulting Tree's entries.
func (e *Engine) EvalTree(ctx context.Context, h core.Handle) ([]core.Handle, error) {
	r, err := e.Eval(ctx, h)
	if err != nil {
		return nil, err
	}
	if err := e.ensureLocal(ctx, r); err != nil {
		return nil, err
	}
	return e.st.Tree(r)
}

func (e *Engine) eval(ctx context.Context, h core.Handle, depth int) (core.Handle, error) {
	if depth > maxEvalDepth {
		return core.Handle{}, ErrDepthExceeded
	}
	if err := ctx.Err(); err != nil {
		return core.Handle{}, err
	}
	switch h.RefKind() {
	case core.RefObject, core.RefRef:
		return h, nil
	case core.RefThunk:
		return e.evalThunk(ctx, h, depth)
	default:
		return e.force(ctx, h, depth)
	}
}

// claimFuture returns (nil, true) when the caller must compute the value
// and then call completeFuture, or (fut, false) when another goroutine
// already is. The leader's entry is a nil placeholder: the future and its
// channel are made only when the first joiner arrives, so an evaluation
// nobody joins allocates nothing here.
func (e *Engine) claimFuture(k futKey) (*future, bool) {
	es := e.stripe(k.h)
	es.mu.Lock()
	defer es.mu.Unlock()
	f, ok := es.futures[k]
	if !ok {
		if es.futures == nil {
			es.futures = make(map[futKey]*future)
		}
		es.futures[k] = nil
		return nil, true
	}
	if f == nil {
		f = &future{done: make(chan struct{})}
		es.futures[k] = f
	}
	return f, false
}

// stripe returns the stripe of key h, making it on first use.
func (e *Engine) stripe(h core.Handle) *engineStripe {
	p := &e.stripes[h[0]&(engineStripes-1)]
	if es := p.Load(); es != nil {
		return es
	}
	p.CompareAndSwap(nil, new(engineStripe))
	return p.Load()
}

// completeFuture ends the leader's claim on k and wakes its joiners, if
// any arrived. Completed futures are removed; results live in the memo
// tables, so failed computations may be retried by later callers.
func (e *Engine) completeFuture(k futKey, res core.Handle, err error) {
	es := e.stripe(k.h)
	es.mu.Lock()
	f := es.futures[k]
	delete(es.futures, k)
	es.mu.Unlock()
	if f != nil {
		f.res, f.err = res, err
		close(f.done)
	}
}

func (f *future) wait(ctx context.Context) (core.Handle, error) {
	select {
	case <-f.done:
		return f.res, f.err
	case <-ctx.Done():
		return core.Handle{}, ctx.Err()
	}
}

// leaderGaveUp reports whether a joiner's wait ended in a context error
// that is not the joiner's own: ctx is still live, so the leader gave up
// on its context. The joiner then starts over and may lead itself.
func leaderGaveUp(ctx context.Context, err error) bool {
	return ctx.Err() == nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// force evaluates an Encode: the referenced Thunk is evaluated until the
// result is not a Thunk, then delivered as an Object (Strict, deeply
// evaluated) or as a Ref (Shallow).
func (e *Engine) force(ctx context.Context, enc core.Handle, depth int) (core.Handle, error) {
	if r, ok := e.st.EncodeResult(enc); ok {
		return r, nil
	}
	k := futKey{'E', enc}
	f, mine := e.claimFuture(k)
	if !mine {
		res, err := f.wait(ctx)
		if leaderGaveUp(ctx, err) {
			return e.force(ctx, enc, depth)
		}
		return res, err
	}
	res, err := e.forceSlow(ctx, enc, depth)
	if err == nil {
		e.st.SetEncodeResult(enc, res)
	}
	e.completeFuture(k, res, err)
	return res, err
}

func (e *Engine) forceSlow(ctx context.Context, enc core.Handle, depth int) (core.Handle, error) {
	thunk, err := core.EncodedThunk(enc)
	if err != nil {
		return core.Handle{}, err
	}
	// A distributed scheduler may place this force on another node.
	if e.opts.Delegator != nil {
		if res, handled, derr := e.opts.Delegator.Offload(ctx, enc); handled {
			return res, derr
		}
	}
	r, err := e.evalThunk(ctx, thunk, depth+1)
	if err != nil {
		return core.Handle{}, err
	}
	if enc.EncodeStyle() == core.EncodeStrict {
		return e.strictify(ctx, r, depth+1)
	}
	// Shallow: deliver as a Ref; the data need not be resident here.
	return r.AsRef(), nil
}

// evalThunk evaluates a Thunk until the result is not a Thunk, memoizing
// every Thunk along the tail-call chain.
func (e *Engine) evalThunk(ctx context.Context, t core.Handle, depth int) (core.Handle, error) {
	if r, ok := e.st.ThunkResult(t); ok {
		return r, nil
	}
	k := futKey{'T', t}
	f, mine := e.claimFuture(k)
	if !mine {
		res, err := f.wait(ctx)
		if leaderGaveUp(ctx, err) {
			return e.evalThunk(ctx, t, depth)
		}
		return res, err
	}
	res, err := e.evalThunkSlow(ctx, t, depth)
	e.completeFuture(k, res, err)
	return res, err
}

// chainScanMax is the tail-call chain length up to which evalThunkSlow
// looks for a cycle by scanning the chain; a longer chain keeps a set,
// so a runaway chain costs time linear in its length.
const chainScanMax = 16

func (e *Engine) evalThunkSlow(ctx context.Context, t core.Handle, depth int) (core.Handle, error) {
	// Most chains are one Thunk long; only a longer one reaches the heap.
	var buf [4]core.Handle
	chain := buf[:0]
	var seen map[core.Handle]struct{} // the chain's Thunks, past chainScanMax
	r := t
	for r.RefKind() == core.RefThunk {
		if m, ok := e.st.ThunkResult(r); ok {
			r = m
			continue
		}
		if depth+len(chain) > maxEvalDepth {
			return core.Handle{}, ErrDepthExceeded
		}
		if seen == nil && len(chain) >= chainScanMax {
			seen = make(map[core.Handle]struct{}, 2*chainScanMax)
			for _, s := range chain {
				seen[s] = struct{}{}
			}
		}
		var cycle bool
		if seen == nil {
			cycle = slices.Contains(chain, r)
		} else {
			_, cycle = seen[r]
			seen[r] = struct{}{}
		}
		if cycle {
			return core.Handle{}, fmt.Errorf("runtime: evaluation cycle through %v", r)
		}
		chain = append(chain, r)
		next, err := e.step(ctx, r, depth+len(chain))
		if err != nil {
			return core.Handle{}, err
		}
		r = next
		// A procedure may return an Encode; forcing it continues the
		// chain with its result.
		if r.RefKind() == core.RefEncode {
			forced, err := e.force(ctx, r, depth+len(chain))
			if err != nil {
				return core.Handle{}, err
			}
			r = forced
		}
	}
	for _, s := range chain {
		e.st.SetThunkResult(s, r)
	}
	return r, nil
}

// step performs one evaluation step of a Thunk.
func (e *Engine) step(ctx context.Context, t core.Handle, depth int) (core.Handle, error) {
	switch t.ThunkStyle() {
	case core.ThunkIdentification:
		def, err := core.ThunkDefinition(t)
		if err != nil {
			return core.Handle{}, err
		}
		return def.AsObject(), nil
	case core.ThunkSelection:
		return e.select_(ctx, t, depth)
	default:
		return e.apply(ctx, t, depth)
	}
}

// select_ evaluates a Selection Thunk: a "pinpoint" data dependency. The
// runtime — not user code — performs whatever I/O is needed to extract the
// requested child or subrange, so large containers never enter any
// procedure's minimum repository.
func (e *Engine) select_(ctx context.Context, t core.Handle, depth int) (core.Handle, error) {
	def, err := core.ThunkDefinition(t)
	if err != nil {
		return core.Handle{}, err
	}
	if err := e.ensureLocal(ctx, def); err != nil {
		return core.Handle{}, err
	}
	entries, err := e.st.Tree(def)
	if err != nil {
		return core.Handle{}, err
	}
	if len(entries) != 2 && len(entries) != 3 {
		return core.Handle{}, fmt.Errorf("runtime: selection tree has %d entries, want 2 or 3", len(entries))
	}
	target, err := e.eval(ctx, entries[0], depth+1)
	if err != nil {
		return core.Handle{}, err
	}
	idx := make([]uint64, len(entries)-1)
	for i, ent := range entries[1:] {
		data, err := e.st.Blob(ent)
		if err != nil {
			return core.Handle{}, fmt.Errorf("runtime: selection index: %w", err)
		}
		if idx[i], err = core.DecodeU64(data); err != nil {
			return core.Handle{}, fmt.Errorf("runtime: selection index: %w", err)
		}
	}
	if err := e.ensureLocal(ctx, target); err != nil {
		return core.Handle{}, err
	}
	if target.Kind() == core.KindTree {
		children, err := e.st.Tree(target)
		if err != nil {
			return core.Handle{}, err
		}
		if len(idx) == 1 {
			if idx[0] >= uint64(len(children)) {
				return core.Handle{}, fmt.Errorf("runtime: selection index %d out of range (%d children)", idx[0], len(children))
			}
			return children[idx[0]], nil
		}
		lo, hi := idx[0], idx[1]
		if lo > hi || hi > uint64(len(children)) {
			return core.Handle{}, fmt.Errorf("runtime: selection range [%d,%d) out of range (%d children)", lo, hi, len(children))
		}
		return e.st.PutTree(children[lo:hi])
	}
	data, err := e.st.Blob(target)
	if err != nil {
		return core.Handle{}, err
	}
	var lo, hi uint64
	if len(idx) == 1 {
		lo, hi = idx[0], idx[0]+1
	} else {
		lo, hi = idx[0], idx[1]
	}
	if lo > hi || hi > uint64(len(data)) {
		return core.Handle{}, fmt.Errorf("runtime: selection range [%d,%d) out of range (%d bytes)", lo, hi, len(data))
	}
	return e.st.PutBlob(data[lo:hi]), nil
}

// apply evaluates an Application Thunk: resolve the definition Tree
// (forcing Encodes, in parallel), assemble the minimum repository, claim
// CPU and RAM, and run the procedure. With external I/O (the default),
// resources are claimed only after every dependency is resident; the
// InternalIO ablation claims them first and charges the fetch as I/O wait.
func (e *Engine) apply(ctx context.Context, t core.Handle, depth int) (core.Handle, error) {
	sysStart := time.Now()
	def, err := core.ThunkDefinition(t)
	if err != nil {
		return core.Handle{}, err
	}
	if err := e.ensureLocal(ctx, def); err != nil {
		return core.Handle{}, err
	}
	entries, err := e.st.Tree(def)
	if err != nil {
		return core.Handle{}, err
	}
	if len(entries) < 2 {
		return core.Handle{}, fmt.Errorf("runtime: invocation tree has %d entries, want ≥ 2", len(entries))
	}

	resolved, forced, err := e.resolveEntries(ctx, entries, depth)
	if err != nil {
		return core.Handle{}, err
	}
	// Only now is the invocation load: while its children ran it held no
	// slot and only waited.
	inFlight := &e.stripe(t).inFlight
	inFlight.Add(1)
	defer inFlight.Add(-1)
	// With nothing forced the definition is the input Tree: same entries,
	// same handle, already resident. Re-putting it would only re-hash it.
	input := def
	if forced {
		if input, err = e.st.PutTree(resolved); err != nil {
			return core.Handle{}, err
		}
	}

	limits, err := e.invocationLimits(ctx, resolved[0])
	if err != nil {
		return core.Handle{}, err
	}
	if limits.MemoryBytes > e.opts.MemoryBytes {
		return core.Handle{}, fmt.Errorf("runtime: invocation wants %d bytes of RAM; node has %d", limits.MemoryBytes, e.opts.MemoryBytes)
	}

	// The procedure itself is part of the minimum repository.
	proc, err := e.loadProcedure(ctx, resolved[1])
	if err != nil {
		return core.Handle{}, err
	}

	// The minimum-repository walk lives in this frame: a repository of up
	// to eight objects is walked, pinned and unpinned without garbage.
	var pinBuf [8]core.Handle
	pins, missing, err := minimumRepository(e.st, make(map[core.Handle]struct{}), pinBuf[:0], nil, input)
	defer func() {
		for _, p := range pins {
			e.st.Unpin(p)
		}
	}()
	if err != nil {
		return core.Handle{}, err
	}

	var runDur, fetchDur time.Duration

	if e.opts.InternalIO {
		// Status quo: claim the slice first, then do I/O while it idles.
		if err := e.res.acquire(ctx, 1, limits.MemoryBytes); err != nil {
			return core.Handle{}, err
		}
		fetchStart := time.Now()
		err = e.fetchAll(ctx, missing)
		fetchDur = time.Since(fetchStart)
		e.stats.AddIOWait(fetchDur)
		if err != nil {
			e.res.release(1, limits.MemoryBytes)
			return core.Handle{}, err
		}
	} else {
		// Externalized I/O: fetch first; bind resources late.
		fetchStart := time.Now()
		if err := e.fetchAll(ctx, missing); err != nil {
			return core.Handle{}, err
		}
		fetchDur = time.Since(fetchStart)
		if err := e.res.acquire(ctx, 1, limits.MemoryBytes); err != nil {
			return core.Handle{}, err
		}
	}

	runStart := time.Now()
	out, err := e.runProcedure(proc, input, limits)
	runDur = time.Since(runStart)
	e.res.release(1, limits.MemoryBytes)

	e.stats.AddUser(runDur)
	e.stats.AddSystem(time.Since(sysStart) - runDur - fetchDur)
	e.stats.AddTask()
	if err != nil {
		return core.Handle{}, fmt.Errorf("runtime: %v: %w", t, err)
	}
	return out, nil
}

// resolveEntries forces every Encode among the definition entries
// (concurrently when there is more than one), leaving other entries as-is.
// With no Encode to force it returns entries itself and forced=false.
func (e *Engine) resolveEntries(ctx context.Context, entries []core.Handle, depth int) ([]core.Handle, bool, error) {
	var idxs []int
	for i, ent := range entries {
		if ent.RefKind() == core.RefEncode {
			if idxs == nil {
				idxs = make([]int, 0, len(entries)-i) // one allocation however many follow
			}
			idxs = append(idxs, i)
		}
	}
	if len(idxs) == 0 {
		return entries, false, nil
	}
	resolved := make([]core.Handle, len(entries))
	copy(resolved, entries)
	var err error
	if len(idxs) == 1 {
		i := idxs[0]
		resolved[i], err = e.force(ctx, entries[i], depth+1)
	} else {
		err = e.forceEach(ctx, entries, resolved, idxs, depth)
	}
	if err != nil {
		return nil, false, err
	}
	return resolved, true, nil
}

// forceEach forces entries[i] into resolved[i] for every i in idxs, one
// fan-out branch each. It is a function of its own so that only an
// invocation with several Encodes pays for the variables its closure
// captures.
func (e *Engine) forceEach(ctx context.Context, entries, resolved []core.Handle, idxs []int, depth int) error {
	errs := make([]error, len(idxs))
	fanOut(len(idxs), func(n int) {
		i := idxs[n]
		resolved[i], errs[n] = e.force(ctx, entries[i], depth+1)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (e *Engine) invocationLimits(ctx context.Context, h core.Handle) (core.Limits, error) {
	if h.Kind() != core.KindBlob || !h.IsData() {
		return core.Limits{}, fmt.Errorf("runtime: invocation limits entry must be a blob, got %v", h)
	}
	if h.Size() == 0 {
		return core.DefaultLimits, nil
	}
	if h.IsLiteral() {
		return core.DecodeLimits(h.LiteralView())
	}
	if err := e.ensureLocal(ctx, h); err != nil {
		return core.Limits{}, err
	}
	data, err := e.st.Blob(h)
	if err != nil {
		return core.Limits{}, err
	}
	return core.DecodeLimits(data)
}

// loadProcedure resolves an invocation's function Blob to an executable
// Procedure: a registered native procedure or a cached, validated FixVM
// program (the analog of the Program Registry + in-memory ELF linker).
func (e *Engine) loadProcedure(ctx context.Context, fn core.Handle) (core.Procedure, error) {
	if fn.Kind() != core.KindBlob || !fn.IsData() {
		return nil, fmt.Errorf("runtime: function entry must be a blob, got %v", fn)
	}
	// A short native name is read inside its literal handle, not copied.
	if name, ok := core.NativeFunctionName(fn.LiteralView()); ok {
		return e.nativeProcedure(name)
	}
	// A loaded program is found without touching the function Blob, the
	// one object every invocation of the function shares. The Blob stays
	// in the minimum repository, which pins it and makes it resident.
	key := fn.AsObject()
	if progs := e.progs.Load(); progs != nil {
		if prog, ok := (*progs)[key]; ok {
			return prog, nil
		}
	}
	if err := e.ensureLocal(ctx, fn); err != nil {
		return nil, err
	}
	blob, err := e.st.Blob(fn)
	if err != nil {
		return nil, err
	}
	if name, ok := core.NativeFunctionName(blob); ok {
		return e.nativeProcedure(name)
	}
	if bc, ok := core.VMBytecode(blob); ok {
		prog, err := codelet.Load(bc)
		if err != nil {
			return nil, err
		}
		e.cacheProgram(key, prog)
		return prog, nil
	}
	return nil, fmt.Errorf("runtime: function blob has unknown format (%d bytes)", len(blob))
}

// cacheProgram adds prog to the program cache by copying it: programs are
// loaded once per function and read on every invocation.
func (e *Engine) cacheProgram(key core.Handle, prog *codelet.Program) {
	e.progMu.Lock()
	defer e.progMu.Unlock()
	next := make(map[core.Handle]*codelet.Program)
	if old := e.progs.Load(); old != nil {
		maps.Copy(next, *old)
	}
	next[key] = prog
	e.progs.Store(&next)
}

// nativeProcedure looks a native procedure up by its name's bytes. Errors
// format a copy, so name never escapes (and neither does a literal
// function handle it may point into).
func (e *Engine) nativeProcedure(name []byte) (core.Procedure, error) {
	if e.opts.Registry == nil {
		return nil, fmt.Errorf("runtime: native procedure %q but no registry configured", string(name))
	}
	return e.opts.Registry.lookup(name)
}

// runProcedure runs proc over input. A procedure that panics fails its
// own invocation: the panic comes back as the invocation's error, so the
// ordinary error path completes the future, releases the CPU/RAM slot and
// unpins the repository, and the goroutine (possibly a shared one from Go)
// survives.
func (e *Engine) runProcedure(proc core.Procedure, input core.Handle, limits core.Limits) (out core.Handle, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = core.Handle{}, fmt.Errorf("runtime: procedure panicked: %v", r)
		}
	}()
	api := newApplyAPI(e, input)
	if prog, ok := proc.(*codelet.Program); ok {
		// Gas 0 means codelet.DefaultGas (codelet.Program.Run).
		out, err = prog.Run(api, input, limits.Gas)
	} else {
		out, err = proc.Apply(api, input)
	}
	if err != nil {
		return core.Handle{}, err
	}
	if err := out.Validate(); err != nil {
		return core.Handle{}, fmt.Errorf("runtime: procedure returned invalid handle: %w", err)
	}
	if !api.isGranted(out) {
		return core.Handle{}, fmt.Errorf("runtime: procedure returned a handle outside its repository: %v", out)
	}
	return out, nil
}

// minimumRepository walks the accessible closure of h, an invocation's
// resolved input Tree, skipping what seen already holds. It pins every
// accessible object as it reaches it and appends it to pins, and appends
// those whose data must be resident before the invocation may run to
// missing. The caller unpins pins, also when an error is returned.
func minimumRepository(st *store.Store, seen map[core.Handle]struct{}, pins, missing []core.Handle, h core.Handle) ([]core.Handle, []core.Handle, error) {
	h = h.AsObject()
	if h.RefKind() != core.RefObject || h.IsLiteral() {
		return pins, missing, nil
	}
	if _, ok := seen[h]; ok {
		return pins, missing, nil
	}
	seen[h] = struct{}{}
	pins = append(pins, h)
	if !st.Pin(h) {
		// A missing Tree's children cannot be walked yet; fetchAll
		// re-walks after fetching.
		return pins, append(missing, h), nil
	}
	if h.Kind() != core.KindTree {
		return pins, missing, nil
	}
	children, err := st.Tree(h)
	if err != nil {
		return pins, missing, err
	}
	for _, c := range children {
		if c.IsData() && c.RefKind() == core.RefObject {
			if pins, missing, err = minimumRepository(st, seen, pins, missing, c); err != nil {
				return pins, missing, err
			}
		}
	}
	return pins, missing, nil
}

// fetchAll fetches missing objects concurrently, then re-walks fetched
// Trees for newly discovered accessible children.
func (e *Engine) fetchAll(ctx context.Context, missing []core.Handle) error {
	for len(missing) > 0 {
		if err := e.fetchBatch(ctx, missing); err != nil {
			return err
		}
		var next []core.Handle
		for _, h := range missing {
			if h.Kind() != core.KindTree {
				continue
			}
			children, err := e.st.Tree(h)
			if err != nil {
				return err
			}
			for _, c := range children {
				if c.IsData() && c.RefKind() == core.RefObject && !c.IsLiteral() && !e.st.Contains(c) {
					next = append(next, c)
				}
			}
		}
		missing = next
	}
	return nil
}

func (e *Engine) fetchBatch(ctx context.Context, batch []core.Handle) error {
	if len(batch) == 1 {
		return e.ensureLocal(ctx, batch[0])
	}
	errs := make([]error, len(batch))
	fanOut(len(batch), func(i int) {
		errs[i] = e.ensureLocal(ctx, batch[i])
	})
	return errors.Join(errs...)
}

// ensureLocal makes a single object's data resident, fetching it if a
// Fetcher is configured.
func (e *Engine) ensureLocal(ctx context.Context, h core.Handle) error {
	if !h.IsData() {
		return nil
	}
	if e.st.Contains(h) {
		return nil
	}
	if e.opts.Fetcher == nil {
		return fmt.Errorf("%w: %v", ErrNotResident, h)
	}
	data, err := e.opts.Fetcher.Fetch(ctx, h)
	if err != nil {
		return fmt.Errorf("runtime: fetch %v: %w", h, err)
	}
	return e.st.PutObject(h, data)
}

// strictify deeply evaluates a data Handle into a fully resident Object:
// Trees are rebuilt with every Thunk and Encode inside evaluated and every
// Ref made accessible (the Strict Encode semantics of section 3.2).
func (e *Engine) strictify(ctx context.Context, h core.Handle, depth int) (core.Handle, error) {
	if depth > maxEvalDepth {
		return core.Handle{}, ErrDepthExceeded
	}
	switch h.RefKind() {
	case core.RefThunk:
		r, err := e.evalThunk(ctx, h, depth)
		if err != nil {
			return core.Handle{}, err
		}
		return e.strictify(ctx, r, depth+1)
	case core.RefEncode:
		t, err := core.EncodedThunk(h)
		if err != nil {
			return core.Handle{}, err
		}
		r, err := e.evalThunk(ctx, t, depth)
		if err != nil {
			return core.Handle{}, err
		}
		return e.strictify(ctx, r, depth+1)
	}
	if h.Kind() == core.KindBlob {
		if err := e.ensureLocal(ctx, h); err != nil {
			return core.Handle{}, err
		}
		return h.AsObject(), nil
	}
	k := futKey{'S', h.AsObject()}
	f, mine := e.claimFuture(k)
	if !mine {
		res, err := f.wait(ctx)
		if leaderGaveUp(ctx, err) {
			return e.strictify(ctx, h, depth)
		}
		return res, err
	}
	res, err := e.strictifyTree(ctx, h, depth)
	e.completeFuture(k, res, err)
	return res, err
}

func (e *Engine) strictifyTree(ctx context.Context, h core.Handle, depth int) (core.Handle, error) {
	if err := e.ensureLocal(ctx, h); err != nil {
		return core.Handle{}, err
	}
	entries, err := e.st.Tree(h)
	if err != nil {
		return core.Handle{}, err
	}
	out := make([]core.Handle, len(entries))
	copy(out, entries)
	var deferred []int
	for i, ent := range entries {
		if ent.IsData() && ent.Kind() == core.KindBlob {
			if err := e.ensureLocal(ctx, ent); err != nil {
				return core.Handle{}, err
			}
			out[i] = ent.AsObject()
			continue
		}
		deferred = append(deferred, i)
	}
	if len(deferred) == 1 {
		i := deferred[0]
		r, err := e.strictify(ctx, entries[i], depth+1)
		if err != nil {
			return core.Handle{}, err
		}
		out[i] = r
	} else if len(deferred) > 1 {
		errs := make([]error, len(deferred))
		fanOut(len(deferred), func(n int) {
			i := deferred[n]
			out[i], errs[n] = e.strictify(ctx, entries[i], depth+1)
		})
		if err := errors.Join(errs...); err != nil {
			return core.Handle{}, err
		}
	}
	return e.st.PutTree(out)
}
