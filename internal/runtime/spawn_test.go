package runtime

import (
	"bytes"
	"context"
	"errors"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	goruntime "runtime"

	"fixgo/internal/codelet"
	"fixgo/internal/core"
	"fixgo/internal/store"
)

// goid parses the calling goroutine's id out of its stack header
// ("goroutine 42 [running]:").
func goid() uint64 {
	var buf [64]byte
	fields := bytes.Fields(buf[:goruntime.Stack(buf[:], false)])
	id, _ := strconv.ParseUint(string(fields[1]), 10, 64)
	return id
}

// gidRegistry registers "gid", a procedure that records which goroutine
// ran it and returns its first argument.
func gidRegistry(ran *sync.Map) *Registry {
	reg := NewRegistry()
	reg.RegisterFunc("gid", func(api core.API, input core.Handle) (core.Handle, error) {
		entries, err := api.AttachTree(input)
		if err != nil {
			return core.Handle{}, err
		}
		ran.Store(goid(), true)
		return entries[2], nil
	})
	return reg
}

// appThunk builds application([limits, fn, args...]) in st, unwrapped.
func appThunk(t *testing.T, st *store.Store, fnBlob []byte, args ...core.Handle) core.Handle {
	t.Helper()
	thunk, err := core.EncodedThunk(strictApp(t, st, fnBlob, args...))
	if err != nil {
		t.Fatal(err)
	}
	return thunk
}

func syncMapLen(m *sync.Map) (n int) {
	m.Range(func(_, _ any) bool { n++; return true })
	return n
}

// TestWarmFanOutRunsLastBranchOnCaller pins who runs a fan-out: of two
// branches one runs on the goroutine that called Eval and one is spawned.
func TestWarmFanOutRunsLastBranchOnCaller(t *testing.T) {
	t.Run("resolveEntries", func(t *testing.T) {
		var ran sync.Map
		e, st := newTestEngine(t, Options{Registry: gidRegistry(&ran)})
		gid := core.NativeFunctionBlob("gid")
		top := appThunk(t, st, gid,
			strictApp(t, st, gid, core.LiteralU64(1)),
			strictApp(t, st, gid, core.LiteralU64(2)))
		if _, err := e.Eval(context.Background(), top); err != nil {
			t.Fatal(err)
		}
		// The caller runs one leaf and then the top procedure itself.
		if _, ok := ran.Load(goid()); !ok || syncMapLen(&ran) != 2 {
			t.Fatalf("caller ran a leaf: %v; distinct goroutines: %d, want 2", ok, syncMapLen(&ran))
		}
	})
	t.Run("strictifyTree", func(t *testing.T) {
		var ran sync.Map
		e, st := newTestEngine(t, Options{Registry: gidRegistry(&ran)})
		gid := core.NativeFunctionBlob("gid")
		tree, err := st.PutTree([]core.Handle{
			appThunk(t, st, gid, core.LiteralU64(1)),
			appThunk(t, st, gid, core.LiteralU64(2)),
		})
		if err != nil {
			t.Fatal(err)
		}
		id, _ := core.Identification(tree)
		enc, _ := core.Strict(id)
		got, err := e.EvalTree(context.Background(), enc)
		if err != nil || len(got) != 2 || got[0] != core.LiteralU64(1) || got[1] != core.LiteralU64(2) {
			t.Fatalf("strictified tree = %v, %v", got, err)
		}
		if _, ok := ran.Load(goid()); !ok || syncMapLen(&ran) != 2 {
			t.Fatalf("caller ran a leaf: %v; distinct goroutines: %d, want 2", ok, syncMapLen(&ran))
		}
	})
}

// waitIdleWorker yields until some worker has parked (or gives up: the
// callers' bounds tolerate a few misses).
func waitIdleWorker() {
	for spin := 0; spin < 1000; spin++ {
		idle.Lock()
		n := len(idle.workers)
		idle.Unlock()
		if n > 0 {
			return
		}
		goruntime.Gosched()
	}
}

// TestWarmGoReusesParkedGoroutine: sequential work lands on a parked
// worker instead of a new goroutine each time.
func TestWarmGoReusesParkedGoroutine(t *testing.T) {
	var ran sync.Map
	done := make(chan struct{})
	for i := 0; i < 100; i++ {
		Go(func() {
			ran.Store(goid(), true)
			done <- struct{}{}
		})
		<-done
		waitIdleWorker()
	}
	if n := syncMapLen(&ran); n > 8 {
		t.Fatalf("100 sequential Go calls ran on %d distinct goroutines, want ≤ 8", n)
	}
}

// TestWarmApplyReusesDefinitionTree: an invocation with no Encode entry
// uses its definition as its input Tree, so evaluating it stores nothing,
// and the procedure holds exactly that Tree's repository.
func TestWarmApplyReusesDefinitionTree(t *testing.T) {
	st := store.New()
	payload := st.PutBlob(bytes.Repeat([]byte{9}, 80))
	var input core.Handle
	reg := NewRegistry()
	reg.RegisterFunc("second", func(api core.API, in core.Handle) (core.Handle, error) {
		input = in
		entries, err := api.AttachTree(in)
		if err != nil {
			return core.Handle{}, err
		}
		if _, err := api.AttachBlob(entries[2]); err != nil {
			return core.Handle{}, err
		}
		return entries[2], nil // a stored object: must be granted to be returned
	})
	e := New(st, Options{Cores: 1, Registry: reg})
	add := appThunk(t, st, codelet.AddFunctionBlob(), core.LiteralU64(200), core.LiteralU64(55))
	second := appThunk(t, st, core.NativeFunctionBlob("second"), payload)

	objects, size := st.Len(), st.TotalBytes()
	if got := mustU64(t, e, add); got != 255 {
		t.Fatalf("add = %d, want 255", got)
	}
	got, err := e.Eval(context.Background(), second)
	if err != nil || got != payload {
		t.Fatalf("second = %v, %v; want the payload blob", got, err)
	}
	if st.Len() != objects || st.TotalBytes() != size {
		t.Fatalf("store grew from %d objects/%d B to %d/%d", objects, size, st.Len(), st.TotalBytes())
	}
	def, _ := core.ThunkDefinition(second)
	entries, err := st.Tree(def)
	if err != nil {
		t.Fatal(err)
	}
	if def.AsObject() != core.TreeHandle(entries) || input != def.AsObject() {
		t.Fatalf("procedure input %v, definition %v, TreeHandle(entries) %v", input, def, core.TreeHandle(entries))
	}
}

// TestWarmPoolNeverQueues: more blocked evaluations than the pool keeps
// idle workers all run at once, and one more submitted meanwhile finishes.
func TestWarmPoolNeverQueues(t *testing.T) {
	const waiters = 200
	gate := make(chan struct{})
	reg := NewRegistry()
	reg.RegisterFunc("gate", func(api core.API, input core.Handle) (core.Handle, error) {
		<-gate
		return core.LiteralU64(1000), nil
	})
	e, st := newTestEngine(t, Options{Registry: reg})
	gateEnc := strictApp(t, st, core.NativeFunctionBlob("gate"))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var started, finished sync.WaitGroup
	var failed atomic.Int64
	started.Add(waiters)
	finished.Add(waiters)
	for i := 0; i < waiters; i++ {
		job := appThunk(t, st, codelet.AddFunctionBlob(), gateEnc, core.LiteralU64(uint64(i)))
		Go(func() {
			defer finished.Done()
			started.Done()
			data, err := e.EvalBlob(ctx, job)
			if v, _ := core.DecodeU64(data); err != nil || v != 1000+uint64(i) {
				failed.Add(1)
			}
		})
	}
	started.Wait() // every waiter got a goroutine although none has finished

	extra := make(chan uint64, 1)
	healthy := appThunk(t, st, codelet.AddFunctionBlob(), core.LiteralU64(40), core.LiteralU64(2))
	Go(func() {
		data, _ := e.EvalBlob(ctx, healthy)
		v, _ := core.DecodeU64(data)
		extra <- v
	})
	if v := <-extra; v != 42 {
		t.Fatalf("evaluation submitted behind %d blocked ones = %d, want 42", waiters, v)
	}
	close(gate)
	finished.Wait()
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d of %d gated evaluations failed", n, waiters)
	}
}

// TestWarmPoolPinsNoStore: parked workers reference nothing they ran, so
// a store whose engine used the pool is collectable once it is dropped.
func TestWarmPoolPinsNoStore(t *testing.T) {
	finalized := make(chan struct{})
	func() {
		var ran sync.Map
		e, st := newTestEngine(t, Options{Registry: gidRegistry(&ran)})
		goruntime.SetFinalizer(st, func(*store.Store) { close(finalized) })
		gid := core.NativeFunctionBlob("gid")
		var wg sync.WaitGroup
		for i := uint64(0); i < 16; i++ {
			top := appThunk(t, st, gid,
				strictApp(t, st, gid, core.LiteralU64(2*i)),
				strictApp(t, st, gid, core.LiteralU64(2*i+1)))
			wg.Add(1)
			Go(func() {
				defer wg.Done()
				if _, err := e.Eval(context.Background(), top); err != nil {
					t.Error(err)
				}
			})
		}
		wg.Wait()
	}()
	deadline := time.After(10 * time.Second)
	for {
		goruntime.GC()
		select {
		case <-finalized:
			return
		case <-deadline:
			t.Fatal("store still reachable after its engine was dropped: a parked worker pins it")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestPanicFailsOnlyItsInvocation: a panicking procedure is an error of
// its own invocation. Joiners get the error, the CPU slot and the pins
// come back, the pooled goroutine that ran it serves the next evaluation.
func TestPanicFailsOnlyItsInvocation(t *testing.T) {
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	reg := NewRegistry()
	reg.RegisterFunc("boom", func(api core.API, input core.Handle) (core.Handle, error) {
		entered <- struct{}{}
		<-release
		panic("kaboom")
	})
	st := store.New()
	e := New(st, Options{Cores: 1, Registry: reg}) // one slot: a leaked one blocks everything after
	payload := st.PutBlob(bytes.Repeat([]byte{4}, 80))
	boom := appThunk(t, st, core.NativeFunctionBlob("boom"), payload)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	errs := make(chan error, 2)
	eval := func() {
		_, err := e.Eval(ctx, boom)
		errs <- err
	}
	Go(eval)
	<-entered
	Go(eval) // joins the first's future, or re-runs (and panics again) if it lost the race
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errs; err == nil || !strings.Contains(err.Error(), "runtime: procedure panicked: kaboom") {
			t.Fatalf("eval %d: want the panic as an error, got %v", i, err)
		}
	}
	if cpu, mem := e.res.inUse(); cpu != 0 || mem != 0 {
		t.Fatalf("panicked invocation still holds %d cores / %d B", cpu, mem)
	}
	if !st.Evict(payload) {
		t.Fatal("panicked invocation left its repository pinned")
	}
	healthy := appThunk(t, st, codelet.AddFunctionBlob(), core.LiteralU64(40), core.LiteralU64(2))
	if got := mustU64(t, e, healthy); got != 42 {
		t.Fatalf("add after a panic = %d, want 42", got)
	}
}

// TestAllocsWarmEval pins the allocations of one warm add-codelet
// invocation (ROADMAP item 2 Part D). What is left: the procedure's API
// (never pooled, for isolation), AttachTree's defensive copy for each of
// the two tree_child calls, and read_u64's copy of each literal argument.
func TestAllocsWarmEval(t *testing.T) {
	const runs = 200
	st := store.New()
	e := New(st, Options{Cores: 1})
	thunks := make([]core.Handle, runs+2)
	for i := range thunks {
		thunks[i] = appThunk(t, st, codelet.AddFunctionBlob(), core.LiteralU64(uint64(i)), core.LiteralU64(7))
	}
	ctx := context.Background()
	next := 0
	eval := func() {
		if _, err := e.Eval(ctx, thunks[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	eval() // load the program
	if allocs := testing.AllocsPerRun(runs, eval); allocs > 6 {
		t.Fatalf("one warm Engine.Eval allocates %v times, want ≤ 6", allocs)
	}
}

// TestAllocsWarmEncode is TestAllocsWarmEval through a Strict Encode, the
// shape of BenchmarkInvocation and fig7a: two single-flight claims (the
// Encode's and its Thunk's) that nobody joins, so no future is made.
func TestAllocsWarmEncode(t *testing.T) {
	const runs = 200
	st := store.New()
	e := New(st, Options{Cores: 1})
	encs := make([]core.Handle, runs+2)
	for i := range encs {
		encs[i] = strictApp(t, st, codelet.AddFunctionBlob(), core.LiteralU64(uint64(i)), core.LiteralU64(7))
	}
	ctx := context.Background()
	next := 0
	eval := func() {
		if _, err := e.Eval(ctx, encs[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	eval() // load the program
	if allocs := testing.AllocsPerRun(runs, eval); allocs > 6 {
		t.Fatalf("one warm Engine.Eval of an Encode allocates %v times, want ≤ 6", allocs)
	}
}

// TestAllocsAcquireRelease: claiming a free CPU slot registers no
// cancellation callback, so an uncontended acquire/release allocates
// nothing.
func TestAllocsAcquireRelease(t *testing.T) {
	r := newResources(2, 1<<20)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var aerr error
	allocs := testing.AllocsPerRun(200, func() {
		if err := r.acquire(ctx, 1, 1<<10); err != nil {
			aerr = err
		}
		r.release(1, 1<<10)
	})
	if aerr != nil {
		t.Fatal(aerr)
	}
	if allocs != 0 {
		t.Fatalf("uncontended acquire/release allocates %v times, want 0", allocs)
	}
}

// TestAcquireCancelledContext pins acquire under a done context (waiters
// woken by cancellation are TestResourcesAccounting's): free slots are
// still claimed, and a full node fails at once without claiming.
func TestAcquireCancelledContext(t *testing.T) {
	r := newResources(1, 1<<20)
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if err := r.acquire(done, 1, 1<<10); err != nil {
		t.Fatalf("free slot under a done context: %v, want it claimed", err)
	}
	if err := r.acquire(done, 1, 1<<10); !errors.Is(err, context.Canceled) {
		t.Fatalf("full node under a done context: %v, want context.Canceled", err)
	}
	if cpu, mem := r.inUse(); cpu != 1 || mem != 1<<10 {
		t.Fatalf("%d cores / %d B claimed, want exactly the first request", cpu, mem)
	}
}

// TestAcquireContended: goroutines claim and release a node whose CPU
// slots and RAM both run short, some under contexts that expire while
// they wait. No claim takes more than the node has, every release reaches
// the waiters (the run finishes), and nothing is left claimed.
func TestAcquireContended(t *testing.T) {
	const cpuCap, memCap = 2, 100
	r := newResources(cpuCap, memCap)
	var cpuHeld, memHeld atomic.Int64
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 300 {
				mem := uint64(20 + (g*7+i)%50) // sometimes two fit, sometimes one
				ctx, cancel := context.WithCancel(context.Background())
				if i%10 == 0 {
					ctx, cancel = context.WithTimeout(ctx, time.Microsecond)
				}
				err := r.acquire(ctx, 1, mem)
				cancel()
				if err != nil {
					if !errors.Is(err, context.DeadlineExceeded) {
						t.Error(err)
					}
					continue
				}
				if n := cpuHeld.Add(1); n > cpuCap {
					t.Errorf("%d slots claimed of %d", n, cpuCap)
				}
				if n := memHeld.Add(int64(mem)); n > memCap {
					t.Errorf("%d bytes claimed of %d", n, memCap)
				}
				goruntime.Gosched()
				cpuHeld.Add(-1)
				memHeld.Add(-int64(mem))
				r.release(1, mem)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("acquires still waiting 30 s on: a release did not wake them")
	}
	if cpu, mem := r.inUse(); cpu != 0 || mem != 0 {
		t.Fatalf("%d cores / %d B still claimed after every release", cpu, mem)
	}
}

// TestAllocsGoHandoff: handing work to a parked worker allocates nothing
// (the caller's closure aside, and this one captures nothing new).
func TestAllocsGoHandoff(t *testing.T) {
	done := make(chan struct{})
	f := func() { done <- struct{}{} }
	allocs := testing.AllocsPerRun(200, func() {
		Go(f)
		<-done
		waitIdleWorker()
	})
	if allocs != 0 {
		t.Fatalf("Go to a parked worker allocates %v times, want 0", allocs)
	}
}
