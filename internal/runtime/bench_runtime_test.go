package runtime

import (
	"context"
	goruntime "runtime"
	"sync/atomic"
	"testing"

	"fixgo/internal/codelet"
	"fixgo/internal/core"
	"fixgo/internal/store"
)

// BenchmarkInvocation is the engine-level counterpart of Fig. 7a's
// Fixpoint row: one warm add-codelet invocation end to end (force →
// resolve → minimum repository → run), with distinct arguments each
// iteration so memoization cannot short-circuit. It is the large-store
// case: all b.N invocation Trees are in one store before timing starts,
// so its time grows with b.N's map lookups. BenchmarkInvocationBounded
// is the same invocation over a store of fixed size.
func BenchmarkInvocation(b *testing.B) {
	st := store.New()
	e := New(st, Options{Cores: 1})
	fn := st.PutBlob(codelet.AddFunctionBlob())
	lim := core.DefaultLimits.Handle()
	ctx := context.Background()
	encs := make([]core.Handle, b.N+1)
	for i := range encs {
		tree, err := st.PutTree(core.InvocationTree(lim, fn, core.LiteralU64(uint64(i)), core.LiteralU64(7)))
		if err != nil {
			b.Fatal(err)
		}
		th, _ := core.Application(tree)
		encs[i], _ = core.Strict(th)
	}
	if _, err := e.Eval(ctx, encs[b.N]); err != nil { // warm the program cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Eval(ctx, encs[i]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInvocationBounded is BenchmarkInvocation with a store of
// bounded size (benchInvocationBounded).
func BenchmarkInvocationBounded(b *testing.B) {
	benchInvocationBounded(b, codelet.AddFunctionBlob(), nil)
}

// benchInvocationBounded times warm invocations of the function Blob fn,
// served from reg, with two literal arguments: every 255 timed evals run
// on a fresh store and engine, which hold 256 invocation Trees; the 256th
// warms the program cache. Building them is not timed, nor counted in
// allocs/op.
func benchInvocationBounded(b *testing.B, fnBlob []byte, reg *Registry) {
	const batch = 255
	lim := core.DefaultLimits.Handle()
	ctx := context.Background()
	encs := make([]core.Handle, batch+1)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += batch {
		b.StopTimer()
		st := store.New()
		e := New(st, Options{Cores: 1, Registry: reg})
		fn := st.PutBlob(fnBlob)
		for i := range encs {
			tree, err := st.PutTree(core.InvocationTree(lim, fn, core.LiteralU64(uint64(done+i)), core.LiteralU64(7)))
			if err != nil {
				b.Fatal(err)
			}
			th, _ := core.Application(tree)
			encs[i], _ = core.Strict(th)
		}
		if _, err := e.Eval(ctx, encs[batch]); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, enc := range encs[:min(batch, b.N-done)] {
			if _, err := e.Eval(ctx, enc); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkInvocationParallel is invoke_hot's engine on every core: each
// goroutine of RunParallel puts a fresh add-invocation tree and evaluates
// its Application, all on one shared store and engine. Against
// BenchmarkInvocationPrivate it prices what concurrent invocations share.
func BenchmarkInvocationParallel(b *testing.B) { benchInvocationCores(b, true) }

// BenchmarkInvocationPrivate is BenchmarkInvocationParallel with one store
// and engine per goroutine: the ceiling, where invocations share nothing.
func BenchmarkInvocationPrivate(b *testing.B) { benchInvocationCores(b, false) }

func benchInvocationCores(b *testing.B, shared bool) {
	type node struct {
		st *store.Store
		e  *Engine
		fn core.Handle
	}
	newNode := func() node {
		st := store.New()
		return node{st, New(st, Options{}), st.PutBlob(codelet.AddFunctionBlob())}
	}
	// One node per goroutine RunParallel starts (parallelism 1), or one
	// for all of them.
	procs := goruntime.GOMAXPROCS(0)
	nodes := make(chan node, procs)
	one := newNode()
	for range procs {
		if !shared {
			one = newNode()
		}
		nodes <- one
	}
	lim := core.DefaultLimits.Handle()
	ctx := context.Background()
	// Each goroutine counts its operands in its own range, so no shared
	// counter is written per iteration.
	var ranges atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		n := <-nodes
		a := ranges.Add(1) << 32
		for pb.Next() {
			a++
			tree, err := n.st.PutTree(core.InvocationTree(lim, n.fn, core.LiteralU64(a), core.LiteralU64(7)))
			if err != nil {
				b.Error(err)
				return
			}
			th, _ := core.Application(tree)
			r, err := n.e.Eval(ctx, th)
			if err != nil || r != core.LiteralU64(a+7) {
				b.Errorf("add(%d, 7) = %v, %v", a, r, err)
				return
			}
		}
	})
}

// BenchmarkMemoizedHit is the ablation partner of BenchmarkInvocation:
// the identical Encode evaluated repeatedly costs one memo-table lookup.
func BenchmarkMemoizedHit(b *testing.B) {
	st := store.New()
	e := New(st, Options{Cores: 1})
	fn := st.PutBlob(codelet.AddFunctionBlob())
	tree, err := st.PutTree(core.InvocationTree(core.DefaultLimits.Handle(), fn, core.LiteralU64(1), core.LiteralU64(2)))
	if err != nil {
		b.Fatal(err)
	}
	th, _ := core.Application(tree)
	enc, _ := core.Strict(th)
	ctx := context.Background()
	if _, err := e.Eval(ctx, enc); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Eval(ctx, enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelection measures the runtime-side pinpoint dependency: one
// Selection Thunk extracting a child from a wide tree (the primitive
// behind get-file and the B+-tree traversal).
func BenchmarkSelection(b *testing.B) {
	st := store.New()
	e := New(st, Options{Cores: 1})
	entries := make([]core.Handle, 256)
	for i := range entries {
		entries[i] = core.LiteralU64(uint64(i))
	}
	target, err := st.PutTree(entries)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	selTrees := make([]core.Handle, b.N)
	for i := range selTrees {
		tr, err := st.PutTree(core.SelectionEntries(target, uint64(i%256)))
		if err != nil {
			b.Fatal(err)
		}
		selTrees[i], _ = core.SelectionThunk(tr)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Eval(ctx, selTrees[i]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNativeInvocation isolates the engine overhead without the VM:
// BenchmarkInvocationBounded's invocations, of a registered Go procedure
// that does nothing.
func BenchmarkNativeInvocation(b *testing.B) {
	reg := NewRegistry()
	reg.RegisterFunc("nop", func(api core.API, input core.Handle) (core.Handle, error) {
		return core.LiteralU64(0), nil
	})
	benchInvocationBounded(b, core.NativeFunctionBlob("nop"), reg)
}
