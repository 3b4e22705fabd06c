package runtime

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fixgo/internal/codelet"
	"fixgo/internal/core"
	"fixgo/internal/store"
)

func newTestEngine(t *testing.T, opts Options) (*Engine, *store.Store) {
	t.Helper()
	st := store.New()
	if opts.Cores == 0 {
		opts.Cores = 4
	}
	return New(st, opts), st
}

// strictApp builds strict(application([limits, fn, args...])) in st.
func strictApp(t *testing.T, st *store.Store, fnBlob []byte, args ...core.Handle) core.Handle {
	t.Helper()
	fn := st.PutBlob(fnBlob)
	tree, err := st.PutTree(core.InvocationTree(core.DefaultLimits.Handle(), fn, args...))
	if err != nil {
		t.Fatal(err)
	}
	thunk, err := core.Application(tree)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := core.Strict(thunk)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

func evalU64(t *testing.T, e *Engine, h core.Handle) uint64 {
	t.Helper()
	data, err := e.EvalBlob(context.Background(), h)
	if err != nil {
		t.Fatal(err)
	}
	v, err := core.DecodeU64(data)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestEvalDataIsIdentity(t *testing.T) {
	e, st := newTestEngine(t, Options{})
	h := st.PutBlob([]byte("some data some data some data some"))
	got, err := e.Eval(context.Background(), h)
	if err != nil || got != h {
		t.Fatalf("Eval(data) = %v, %v", got, err)
	}
	r := h.AsRef()
	got, err = e.Eval(context.Background(), r)
	if err != nil || got != r {
		t.Fatalf("Eval(ref) = %v, %v", got, err)
	}
}

func TestAddCodeletEndToEnd(t *testing.T) {
	e, st := newTestEngine(t, Options{})
	enc := strictApp(t, st, codelet.AddFunctionBlob(), core.LiteralU64(200), core.LiteralU64(55))
	if got := evalU64(t, e, enc); got != 255 {
		t.Fatalf("add = %d, want 255", got)
	}
}

func TestNativeProcedure(t *testing.T) {
	reg := NewRegistry()
	reg.RegisterFunc("mul", func(api core.API, input core.Handle) (core.Handle, error) {
		entries, err := api.AttachTree(input)
		if err != nil {
			return core.Handle{}, err
		}
		a, err := api.AttachBlob(entries[2])
		if err != nil {
			return core.Handle{}, err
		}
		b, err := api.AttachBlob(entries[3])
		if err != nil {
			return core.Handle{}, err
		}
		av, _ := core.DecodeU64(a)
		bv, _ := core.DecodeU64(b)
		return api.CreateBlob(core.LiteralU64(av * bv).LiteralData()), nil
	})
	e, st := newTestEngine(t, Options{Registry: reg})
	enc := strictApp(t, st, core.NativeFunctionBlob("mul"), core.LiteralU64(6), core.LiteralU64(7))
	if got := evalU64(t, e, enc); got != 42 {
		t.Fatalf("mul = %d, want 42", got)
	}
}

func TestUnknownNativeProcedure(t *testing.T) {
	e, st := newTestEngine(t, Options{Registry: NewRegistry()})
	enc := strictApp(t, st, core.NativeFunctionBlob("nope"))
	if _, err := e.Eval(context.Background(), enc); err == nil {
		t.Fatal("expected lookup error")
	}
}

func TestFibEndToEnd(t *testing.T) {
	e, st := newTestEngine(t, Options{})
	fib := st.PutBlob(codelet.FibFunctionBlob())
	add := st.PutBlob(codelet.AddFunctionBlob())
	tree, err := st.PutTree([]core.Handle{core.DefaultLimits.Handle(), fib, add, core.LiteralU64(10)})
	if err != nil {
		t.Fatal(err)
	}
	thunk, _ := core.Application(tree)
	enc, _ := core.Strict(thunk)
	if got := evalU64(t, e, enc); got != 55 {
		t.Fatalf("fib(10) = %d, want 55", got)
	}
}

func TestMemoizationSkipsReexecution(t *testing.T) {
	var runs atomic.Int64
	reg := NewRegistry()
	reg.RegisterFunc("count", func(api core.API, input core.Handle) (core.Handle, error) {
		runs.Add(1)
		return core.LiteralU64(7), nil
	})
	e, st := newTestEngine(t, Options{Registry: reg})
	enc := strictApp(t, st, core.NativeFunctionBlob("count"), core.LiteralU64(1))
	for i := 0; i < 5; i++ {
		if got := evalU64(t, e, enc); got != 7 {
			t.Fatalf("got %d", got)
		}
	}
	if runs.Load() != 1 {
		t.Fatalf("procedure ran %d times, want 1 (memoized)", runs.Load())
	}
}

func TestLazyBranchNeverRuns(t *testing.T) {
	var poisonRuns atomic.Int64
	reg := NewRegistry()
	reg.RegisterFunc("poison", func(api core.API, input core.Handle) (core.Handle, error) {
		poisonRuns.Add(1)
		return core.LiteralU64(666), nil
	})
	e, st := newTestEngine(t, Options{Registry: reg})

	poisonTree, _ := st.PutTree(core.InvocationTree(core.DefaultLimits.Handle(), st.PutBlob(core.NativeFunctionBlob("poison"))))
	poisonThunk, _ := core.Application(poisonTree)
	good, _ := core.Identification(core.LiteralU64(1))

	// if(pred=false) → selects b; the a-branch poison thunk must never run.
	enc := strictApp(t, st, codelet.IfFunctionBlob(), core.LiteralU64(0), poisonThunk, good)
	if got := evalU64(t, e, enc); got != 1 {
		t.Fatalf("if = %d, want 1", got)
	}
	if poisonRuns.Load() != 0 {
		t.Fatalf("unselected branch ran %d times", poisonRuns.Load())
	}
}

func TestSelectionTreeChild(t *testing.T) {
	e, st := newTestEngine(t, Options{})
	a := st.PutBlob([]byte("first child blob, long enough to hash"))
	b := core.LiteralU64(17)
	target, _ := st.PutTree([]core.Handle{a, b})
	selTree, _ := st.PutTree(core.SelectionEntries(target.AsRef(), 1))
	sel, _ := core.SelectionThunk(selTree)
	got, err := e.Eval(context.Background(), sel)
	if err != nil {
		t.Fatal(err)
	}
	if got != b {
		t.Fatalf("selection = %v, want %v", got, b)
	}
}

func TestSelectionBlobSubrange(t *testing.T) {
	e, st := newTestEngine(t, Options{})
	data := []byte("0123456789abcdefghijklmnopqrstuvwxyz")
	target := st.PutBlob(data)
	selTree, _ := st.PutTree(core.SelectionRangeEntries(target, 10, 14))
	sel, _ := core.SelectionThunk(selTree)
	out, err := e.EvalBlob(context.Background(), sel)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "abcd" {
		t.Fatalf("subrange = %q", out)
	}
}

func TestSelectionTreeRange(t *testing.T) {
	e, st := newTestEngine(t, Options{})
	entries := []core.Handle{core.LiteralU64(0), core.LiteralU64(1), core.LiteralU64(2), core.LiteralU64(3)}
	target, _ := st.PutTree(entries)
	selTree, _ := st.PutTree(core.SelectionRangeEntries(target, 1, 3))
	sel, _ := core.SelectionThunk(selTree)
	got, err := e.EvalTree(context.Background(), sel)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != entries[1] || got[1] != entries[2] {
		t.Fatalf("range = %v", got)
	}
}

func TestSelectionOutOfRange(t *testing.T) {
	e, st := newTestEngine(t, Options{})
	target, _ := st.PutTree([]core.Handle{core.LiteralU64(0)})
	selTree, _ := st.PutTree(core.SelectionEntries(target, 5))
	sel, _ := core.SelectionThunk(selTree)
	if _, err := e.Eval(context.Background(), sel); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestSelectionOfThunkTarget(t *testing.T) {
	// Selecting from the (strictly encoded) output of a computation: the
	// target thunk must be evaluated first, then selected from.
	reg := NewRegistry()
	reg.RegisterFunc("mktree", func(api core.API, input core.Handle) (core.Handle, error) {
		return api.CreateTree([]core.Handle{core.LiteralU64(100), core.LiteralU64(200)})
	})
	e, st := newTestEngine(t, Options{Registry: reg})
	tree, _ := st.PutTree(core.InvocationTree(core.DefaultLimits.Handle(), st.PutBlob(core.NativeFunctionBlob("mktree"))))
	thunk, _ := core.Application(tree)
	selTree, _ := st.PutTree(core.SelectionEntries(thunk, 1))
	sel, _ := core.SelectionThunk(selTree)
	if got := mustU64(t, e, sel); got != 200 {
		t.Fatalf("selection of thunk output = %d", got)
	}
}

func mustU64(t *testing.T, e *Engine, h core.Handle) uint64 {
	t.Helper()
	data, err := e.EvalBlob(context.Background(), h)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := core.DecodeU64(data)
	return v
}

func TestShallowEncodeYieldsRef(t *testing.T) {
	e, st := newTestEngine(t, Options{})
	big := st.PutBlob(bytes.Repeat([]byte{8}, 100))
	id, _ := core.Identification(big)
	sh, _ := core.Shallow(id)
	got, err := e.Eval(context.Background(), sh)
	if err != nil {
		t.Fatal(err)
	}
	if got.RefKind() != core.RefRef {
		t.Fatalf("shallow result = %v, want ref", got)
	}
	if got.StorageKey() != big.StorageKey() {
		t.Fatal("shallow result content mismatch")
	}
}

func TestStrictifyDeepTree(t *testing.T) {
	e, st := newTestEngine(t, Options{})
	// Tree containing: a ref, a thunk, and a nested tree with a thunk.
	blob := st.PutBlob(bytes.Repeat([]byte{1}, 64))
	idThunk, _ := core.Identification(core.LiteralU64(5))
	inner, _ := st.PutTree([]core.Handle{idThunk})
	outer, _ := st.PutTree([]core.Handle{blob.AsRef(), idThunk, inner})
	topID, _ := core.Identification(outer)
	enc, _ := core.Strict(topID)
	got, err := e.EvalTree(context.Background(), enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("entries = %d", len(got))
	}
	if got[0] != blob {
		t.Fatalf("ref not upgraded to object: %v", got[0])
	}
	if got[1] != core.LiteralU64(5) {
		t.Fatalf("thunk not evaluated: %v", got[1])
	}
	innerGot, err := e.Store().Tree(got[2])
	if err != nil || len(innerGot) != 1 || innerGot[0] != core.LiteralU64(5) {
		t.Fatalf("nested tree not strictified: %v %v", innerGot, err)
	}
}

func TestMinimumRepositoryEnforced(t *testing.T) {
	st := store.New()
	secret := st.PutBlob([]byte("a secret blob outside the repository"))
	reg := NewRegistry()
	reg.RegisterFunc("sneak", func(api core.API, input core.Handle) (core.Handle, error) {
		if _, err := api.AttachBlob(secret); err == nil {
			return core.Handle{}, fmt.Errorf("sandbox breached")
		}
		return core.LiteralU64(0), nil
	})
	e := New(st, Options{Cores: 2, Registry: reg})
	enc := strictApp(t, st, core.NativeFunctionBlob("sneak"))
	if _, err := e.Eval(context.Background(), enc); err != nil {
		t.Fatalf("attach of unheld handle should fail gracefully inside, not error the task: %v", err)
	}
}

func TestProcedureCannotReturnUnheldHandle(t *testing.T) {
	st := store.New()
	secret := st.PutBlob([]byte("another secret blob, also long enough"))
	reg := NewRegistry()
	reg.RegisterFunc("forge", func(api core.API, input core.Handle) (core.Handle, error) {
		return secret, nil // never attached or created: a forged capability
	})
	e := New(st, Options{Cores: 2, Registry: reg})
	enc := strictApp(t, st, core.NativeFunctionBlob("forge"))
	_, err := e.Eval(context.Background(), enc)
	if err == nil || !strings.Contains(err.Error(), "outside its repository") {
		t.Fatalf("want repository violation, got %v", err)
	}
}

func TestAttachRefFails(t *testing.T) {
	st := store.New()
	data := st.PutBlob(bytes.Repeat([]byte{3}, 50))
	var attachErr error
	reg := NewRegistry()
	reg.RegisterFunc("tryref", func(api core.API, input core.Handle) (core.Handle, error) {
		entries, err := api.AttachTree(input)
		if err != nil {
			return core.Handle{}, err
		}
		ref := entries[2] // arg passed as a Ref
		if api.SizeOf(ref) != 50 {
			return core.Handle{}, fmt.Errorf("ref size query failed")
		}
		_, attachErr = api.AttachBlob(ref)
		return core.LiteralU64(1), nil
	})
	e := New(st, Options{Cores: 2, Registry: reg})
	enc := strictApp(t, st, core.NativeFunctionBlob("tryref"), data.AsRef())
	if _, err := e.Eval(context.Background(), enc); err != nil {
		t.Fatal(err)
	}
	if attachErr == nil {
		t.Fatal("attaching a Ref must fail")
	}
}

type mapFetcher struct {
	mu      sync.Mutex
	objects map[core.Handle][]byte
	delay   time.Duration
	fetches atomic.Int64
}

func (f *mapFetcher) Fetch(ctx context.Context, h core.Handle) ([]byte, error) {
	f.fetches.Add(1)
	if f.delay > 0 {
		select {
		case <-time.After(f.delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	data, ok := f.objects[h.AsObject()]
	if !ok {
		return nil, fmt.Errorf("fetcher: no such object %v", h)
	}
	return data, nil
}

func remoteBlob(f *mapFetcher, data []byte) core.Handle {
	h := core.BlobHandle(data)
	if f.objects == nil {
		f.objects = make(map[core.Handle][]byte)
	}
	f.objects[h] = data
	return h
}

func TestFetchMissingDependency(t *testing.T) {
	f := &mapFetcher{}
	data := bytes.Repeat([]byte("wiki"), 20)
	h := remoteBlob(f, data)
	st := store.New()
	reg := NewRegistry()
	reg.RegisterFunc("len", func(api core.API, input core.Handle) (core.Handle, error) {
		entries, err := api.AttachTree(input)
		if err != nil {
			return core.Handle{}, err
		}
		b, err := api.AttachBlob(entries[2])
		if err != nil {
			return core.Handle{}, err
		}
		return api.CreateBlob(core.LiteralU64(uint64(len(b))).LiteralData()), nil
	})
	e := New(st, Options{Cores: 2, Registry: reg, Fetcher: f})
	enc := strictApp(t, st, core.NativeFunctionBlob("len"), h)
	if got := evalU64(t, e, enc); got != 80 {
		t.Fatalf("len = %d, want 80", got)
	}
	if f.fetches.Load() != 1 {
		t.Fatalf("fetches = %d, want 1", f.fetches.Load())
	}
	if !st.Contains(h) {
		t.Fatal("fetched object should be resident")
	}
}

func TestMissingDependencyNoFetcher(t *testing.T) {
	st := store.New()
	missing := core.BlobHandle(bytes.Repeat([]byte{9}, 40))
	reg := NewRegistry()
	reg.RegisterFunc("noop", func(api core.API, input core.Handle) (core.Handle, error) {
		return core.LiteralU64(0), nil
	})
	e := New(st, Options{Cores: 2, Registry: reg})
	enc := strictApp(t, st, core.NativeFunctionBlob("noop"), missing)
	_, err := e.Eval(context.Background(), enc)
	if !errors.Is(err, ErrNotResident) {
		t.Fatalf("want ErrNotResident, got %v", err)
	}
}

func TestInternalIOChargesIOWait(t *testing.T) {
	f := &mapFetcher{delay: 10 * time.Millisecond}
	h := remoteBlob(f, bytes.Repeat([]byte{1}, 60))
	reg := NewRegistry()
	reg.RegisterFunc("touch", func(api core.API, input core.Handle) (core.Handle, error) {
		return core.LiteralU64(1), nil
	})

	// Internal I/O: the fetch happens while holding a CPU slot.
	stInt := store.New()
	eInt := New(stInt, Options{Cores: 2, Registry: reg, Fetcher: f, InternalIO: true})
	encInt := strictApp(t, stInt, core.NativeFunctionBlob("touch"), h)
	if _, err := eInt.Eval(context.Background(), encInt); err != nil {
		t.Fatal(err)
	}
	if io := eInt.Stats().Usage(time.Second).IOWait; io < 5*time.Millisecond {
		t.Fatalf("internal mode iowait = %v, want ≥ 5ms", io)
	}

	// External I/O: no CPU slot is held during the fetch.
	stExt := store.New()
	eExt := New(stExt, Options{Cores: 2, Registry: reg, Fetcher: f})
	encExt := strictApp(t, stExt, core.NativeFunctionBlob("touch"), h)
	if _, err := eExt.Eval(context.Background(), encExt); err != nil {
		t.Fatal(err)
	}
	if io := eExt.Stats().Usage(time.Second).IOWait; io != 0 {
		t.Fatalf("external mode iowait = %v, want 0", io)
	}
}

func TestThunkChain(t *testing.T) {
	// inc applied 50 times in a nested chain, evaluated with one Eval.
	e, st := newTestEngine(t, Options{})
	inc := st.PutBlob(codelet.IncFunctionBlob())
	lim := core.DefaultLimits.Handle()
	arg := core.LiteralU64(0)
	for i := 0; i < 50; i++ {
		tree, err := st.PutTree([]core.Handle{lim, inc, arg})
		if err != nil {
			t.Fatal(err)
		}
		thunk, _ := core.Application(tree)
		enc, _ := core.Strict(thunk)
		arg = enc
	}
	// arg is now a strict encode of the 50-deep chain.
	data, err := e.EvalBlob(context.Background(), arg)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := core.DecodeU64(data); v != 50 {
		t.Fatalf("chain = %d, want 50", v)
	}
}

func TestTailCallChainMemoized(t *testing.T) {
	// A procedure that returns a thunk: f(n) → thunk of f(n-1) … until 0.
	var runs atomic.Int64
	reg := NewRegistry()
	reg.RegisterFunc("down", func(api core.API, input core.Handle) (core.Handle, error) {
		runs.Add(1)
		entries, err := api.AttachTree(input)
		if err != nil {
			return core.Handle{}, err
		}
		raw, err := api.AttachBlob(entries[2])
		if err != nil {
			return core.Handle{}, err
		}
		n, _ := core.DecodeU64(raw)
		if n == 0 {
			return api.CreateBlob([]byte("done")), nil
		}
		tree, err := api.CreateTree([]core.Handle{entries[0], entries[1], core.LiteralU64(n - 1)})
		if err != nil {
			return core.Handle{}, err
		}
		return api.Application(tree)
	})
	e, st := newTestEngine(t, Options{Registry: reg})
	enc := strictApp(t, st, core.NativeFunctionBlob("down"), core.LiteralU64(20))
	data, err := e.EvalBlob(context.Background(), enc)
	if err != nil || string(data) != "done" {
		t.Fatalf("chain: %q %v", data, err)
	}
	if runs.Load() != 21 {
		t.Fatalf("runs = %d, want 21", runs.Load())
	}
	// Re-evaluating an interior link must be free: every link memoized.
	runs.Store(0)
	enc2 := strictApp(t, st, core.NativeFunctionBlob("down"), core.LiteralU64(10))
	if _, err := e.EvalBlob(context.Background(), enc2); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 0 {
		t.Fatalf("interior link re-ran %d times, want 0", runs.Load())
	}
}

func TestEvaluationCycleDetected(t *testing.T) {
	reg := NewRegistry()
	reg.RegisterFunc("self", func(api core.API, input core.Handle) (core.Handle, error) {
		// Return an application thunk of our own input: a 1-cycle.
		return api.Application(input)
	})
	// A 40-cycle: longer than chainScanMax, so the chain's set finds it.
	const ring = 40
	reg.RegisterFunc("ring", func(api core.API, input core.Handle) (core.Handle, error) {
		entries, err := api.AttachTree(input)
		if err != nil {
			return core.Handle{}, err
		}
		raw, err := api.AttachBlob(entries[2])
		if err != nil {
			return core.Handle{}, err
		}
		n, _ := core.DecodeU64(raw)
		tree, err := api.CreateTree([]core.Handle{entries[0], entries[1], core.LiteralU64((n + 1) % ring)})
		if err != nil {
			return core.Handle{}, err
		}
		return api.Application(tree)
	})
	e, st := newTestEngine(t, Options{Registry: reg})
	for _, enc := range []core.Handle{
		strictApp(t, st, core.NativeFunctionBlob("self")),
		strictApp(t, st, core.NativeFunctionBlob("ring"), core.LiteralU64(0)),
	} {
		_, err := e.Eval(context.Background(), enc)
		if err == nil || !strings.Contains(err.Error(), "cycle") {
			t.Fatalf("want cycle error, got %v", err)
		}
	}
}

func TestDepthLimit(t *testing.T) {
	// Unbounded *fresh* thunks (no cycle): the depth limiter must fire.
	reg := NewRegistry()
	reg.RegisterFunc("up", func(api core.API, input core.Handle) (core.Handle, error) {
		entries, err := api.AttachTree(input)
		if err != nil {
			return core.Handle{}, err
		}
		raw, err := api.AttachBlob(entries[2])
		if err != nil {
			return core.Handle{}, err
		}
		n, _ := core.DecodeU64(raw)
		tree, err := api.CreateTree([]core.Handle{entries[0], entries[1], core.LiteralU64(n + 1)})
		if err != nil {
			return core.Handle{}, err
		}
		return api.Application(tree)
	})
	e, st := newTestEngine(t, Options{Registry: reg})
	enc := strictApp(t, st, core.NativeFunctionBlob("up"), core.LiteralU64(0))
	start := time.Now()
	_, err := e.Eval(context.Background(), enc)
	if !errors.Is(err, ErrDepthExceeded) {
		t.Fatalf("want ErrDepthExceeded, got %v", err)
	}
	// The chain is maxEvalDepth Thunks long: a cycle check that rescans
	// it at every step takes about half a minute to get here.
	if d := time.Since(start); d > 15*time.Second {
		t.Fatalf("a %d-step runaway chain took %v to fail", maxEvalDepth, d)
	}
}

func TestMemoryRequestExceedsCapacity(t *testing.T) {
	st := store.New()
	reg := NewRegistry()
	reg.RegisterFunc("noop", func(api core.API, input core.Handle) (core.Handle, error) {
		return core.LiteralU64(0), nil
	})
	e := New(st, Options{Cores: 1, MemoryBytes: 1 << 20, Registry: reg})
	lim := core.Limits{MemoryBytes: 1 << 30}.Handle()
	fn := st.PutBlob(core.NativeFunctionBlob("noop"))
	tree, _ := st.PutTree(core.InvocationTree(lim, fn))
	thunk, _ := core.Application(tree)
	enc, _ := core.Strict(thunk)
	_, err := e.Eval(context.Background(), enc)
	if err == nil || !strings.Contains(err.Error(), "RAM") {
		t.Fatalf("want RAM capacity error, got %v", err)
	}
}

func TestGasLimitFromInvocationLimits(t *testing.T) {
	st := store.New()
	e := New(st, Options{Cores: 1})
	lim := core.Limits{MemoryBytes: 1 << 20, Gas: 5}.Handle() // far too little
	fn := st.PutBlob(codelet.AddFunctionBlob())
	tree, _ := st.PutTree(core.InvocationTree(lim, fn, core.LiteralU64(1), core.LiteralU64(2)))
	thunk, _ := core.Application(tree)
	enc, _ := core.Strict(thunk)
	_, err := e.Eval(context.Background(), enc)
	if err == nil || !strings.Contains(err.Error(), "gas") {
		t.Fatalf("want gas trap, got %v", err)
	}
}

func TestConcurrentIndependentEvals(t *testing.T) {
	e, st := newTestEngine(t, Options{Cores: 8})
	var wg sync.WaitGroup
	errs := make([]error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			enc := strictApp(t, st, codelet.AddFunctionBlob(), core.LiteralU64(uint64(i)), core.LiteralU64(100))
			data, err := e.EvalBlob(context.Background(), enc)
			if err != nil {
				errs[i] = err
				return
			}
			if v, _ := core.DecodeU64(data); v != uint64(i)+100 {
				errs[i] = fmt.Errorf("got %d", v)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("eval %d: %v", i, err)
		}
	}
}

func TestContextCancellation(t *testing.T) {
	f := &mapFetcher{delay: time.Hour}
	h := remoteBlob(f, bytes.Repeat([]byte{1}, 60))
	st := store.New()
	reg := NewRegistry()
	reg.RegisterFunc("noop", func(api core.API, input core.Handle) (core.Handle, error) {
		return core.LiteralU64(0), nil
	})
	e := New(st, Options{Cores: 1, Registry: reg, Fetcher: f})
	enc := strictApp(t, st, core.NativeFunctionBlob("noop"), h)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := e.Eval(ctx, enc)
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("cancellation took too long")
	}
}

func TestIdenticalConcurrentEvalsDeduplicated(t *testing.T) {
	var runs atomic.Int64
	started := make(chan struct{})
	reg := NewRegistry()
	reg.RegisterFunc("slow", func(api core.API, input core.Handle) (core.Handle, error) {
		runs.Add(1)
		<-started
		return core.LiteralU64(9), nil
	})
	e, st := newTestEngine(t, Options{Cores: 8, Registry: reg})
	enc := strictApp(t, st, core.NativeFunctionBlob("slow"), core.LiteralU64(1))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Eval(context.Background(), enc); err != nil {
				t.Error(err)
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	close(started)
	wg.Wait()
	if runs.Load() != 1 {
		t.Fatalf("procedure ran %d times for identical concurrent evals, want 1", runs.Load())
	}
}

func TestResourcesAccounting(t *testing.T) {
	r := newResources(2, 100)
	ctx := context.Background()
	if err := r.acquire(ctx, 1, 60); err != nil {
		t.Fatal(err)
	}
	cpu, mem := r.inUse()
	if cpu != 1 || mem != 60 {
		t.Fatalf("inUse = %d, %d", cpu, mem)
	}
	// Second acquire must block on memory; release unblocks it.
	done := make(chan error, 1)
	go func() { done <- r.acquire(ctx, 1, 60) }()
	select {
	case <-done:
		t.Fatal("acquire should have blocked")
	case <-time.After(20 * time.Millisecond):
	}
	r.release(1, 60)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	r.release(1, 60)

	// Cancellation unblocks waiters.
	if err := r.acquire(ctx, 2, 0); err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if err := r.acquire(cctx, 1, 0); err == nil {
		t.Fatal("expected cancellation")
	}
	// Impossible requests fail fast.
	if err := r.acquire(ctx, 3, 0); err == nil {
		t.Fatal("expected capacity error")
	}
}

// TestGrantsBeyondInlineHeld: a procedure holds every entry of a Tree
// wider than the API's inline grants, and may return the last of them.
func TestGrantsBeyondInlineHeld(t *testing.T) {
	st := store.New()
	args := make([]core.Handle, 12)
	for i := range args {
		args[i] = st.PutBlob(bytes.Repeat([]byte{byte(i)}, 40))
	}
	reg := NewRegistry()
	reg.RegisterFunc("last", func(api core.API, input core.Handle) (core.Handle, error) {
		entries, err := api.AttachTree(input)
		if err != nil {
			return core.Handle{}, err
		}
		for _, ent := range entries[2:] {
			if _, err := api.AttachBlob(ent); err != nil {
				return core.Handle{}, err
			}
		}
		return entries[len(entries)-1], nil
	})
	e := New(st, Options{Cores: 1, Registry: reg})
	got, err := e.Eval(context.Background(), appThunk(t, st, core.NativeFunctionBlob("last"), args...))
	if err != nil {
		t.Fatal(err)
	}
	if got != args[len(args)-1] {
		t.Fatalf("eval = %v, want the last argument %v", got, args[len(args)-1])
	}
}
