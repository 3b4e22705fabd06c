package runtime

import (
	"context"
	"errors"
	goruntime "runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"fixgo/internal/core"
	"fixgo/internal/store"
)

// Single-flight futures are made lazily: the leader of a computation
// holds a nil placeholder, and the first joiner turns it into a future.
// These tests synchronize on that placeholder turning non-nil, not on
// sleeps.

// waitForJoiner returns once some evaluation has joined the in-flight
// computation k.
func waitForJoiner(e *Engine, k futKey) {
	es := e.stripe(k.h)
	for {
		es.mu.Lock()
		f := es.futures[k]
		es.mu.Unlock()
		if f != nil {
			return
		}
		goruntime.Gosched()
	}
}

// waitForClaim returns once some evaluation leads computation k.
func waitForClaim(e *Engine, k futKey) {
	es := e.stripe(k.h)
	for {
		es.mu.Lock()
		_, ok := es.futures[k]
		es.mu.Unlock()
		if ok {
			return
		}
		goruntime.Gosched()
	}
}

func futuresLen(e *Engine) int {
	n := 0
	for i := range e.stripes {
		if es := e.stripes[i].Load(); es != nil {
			es.mu.Lock()
			n += len(es.futures)
			es.mu.Unlock()
		}
	}
	return n
}

// gatedRegistry registers "gated": each call counts itself in runs, says
// so on entered, waits for release and returns fail (nil means 9).
func gatedRegistry(runs *atomic.Int64, entered chan<- struct{}, release <-chan struct{}, fail error) *Registry {
	reg := NewRegistry()
	reg.RegisterFunc("gated", func(api core.API, input core.Handle) (core.Handle, error) {
		runs.Add(1)
		entered <- struct{}{}
		<-release
		if fail != nil {
			return core.Handle{}, fail
		}
		return core.LiteralU64(9), nil
	})
	return reg
}

// TestFuturesLeaveNoEntry: once every evaluation has returned, the
// futures map is empty, after a joined success and after a failure.
func TestFuturesLeaveNoEntry(t *testing.T) {
	var runs atomic.Int64
	entered := make(chan struct{}, 16)
	release := make(chan struct{})
	e, st := newTestEngine(t, Options{Cores: 8, Registry: gatedRegistry(&runs, entered, release, nil)})
	thunk := appThunk(t, st, core.NativeFunctionBlob("gated"), core.LiteralU64(1))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Eval(context.Background(), thunk); err != nil {
				t.Error(err)
			}
		}()
	}
	<-entered
	waitForJoiner(e, futKey{'T', thunk})
	close(release)
	wg.Wait()
	if n := futuresLen(e); n != 0 {
		t.Fatalf("%d futures left after 8 identical evals, want 0", n)
	}

	boom := errors.New("boom")
	failing := make(chan struct{})
	close(failing)
	e2, st2 := newTestEngine(t, Options{Registry: gatedRegistry(&runs, entered, failing, boom)})
	bad := appThunk(t, st2, core.NativeFunctionBlob("gated"), core.LiteralU64(2))
	if _, err := e2.Eval(context.Background(), bad); !errors.Is(err, boom) {
		t.Fatalf("failing eval: %v, want %v", err, boom)
	}
	if n := futuresLen(e2); n != 0 {
		t.Fatalf("%d futures left after a failed eval, want 0", n)
	}
}

// TestJoinerSharesLeaderError: a joiner gets the leader's error, and the
// error is not memoized, so the next Eval runs the procedure again.
func TestJoinerSharesLeaderError(t *testing.T) {
	var runs atomic.Int64
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	boom := errors.New("boom")
	e, st := newTestEngine(t, Options{Registry: gatedRegistry(&runs, entered, release, boom)})
	thunk := appThunk(t, st, core.NativeFunctionBlob("gated"), core.LiteralU64(1))
	ctx := context.Background()
	errs := make(chan error, 2)
	go func() { _, err := e.Eval(ctx, thunk); errs <- err }()
	<-entered // the leader is inside the procedure
	go func() { _, err := e.Eval(ctx, thunk); errs <- err }()
	waitForJoiner(e, futKey{'T', thunk})
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, boom) {
			t.Fatalf("eval %d: %v, want the leader's %v", i, err, boom)
		}
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("procedure ran %d times for a leader and its joiner, want 1", n)
	}
	if _, err := e.Eval(ctx, thunk); !errors.Is(err, boom) {
		t.Fatalf("re-eval: %v, want %v", err, boom)
	}
	if n := runs.Load(); n != 2 {
		t.Fatalf("procedure ran %d times after a re-eval, want 2: errors must not be memoized", n)
	}
}

// TestCancelledJoinerLeavesLeader: cancelling a joiner's context returns
// context.Canceled to that joiner only; the leader still completes and
// memoizes its result.
func TestCancelledJoinerLeavesLeader(t *testing.T) {
	var runs atomic.Int64
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	e, st := newTestEngine(t, Options{Registry: gatedRegistry(&runs, entered, release, nil)})
	thunk := appThunk(t, st, core.NativeFunctionBlob("gated"), core.LiteralU64(1))
	leader := make(chan error, 1)
	go func() { _, err := e.Eval(context.Background(), thunk); leader <- err }()
	<-entered
	jctx, cancel := context.WithCancel(context.Background())
	joiner := make(chan error, 1)
	go func() { _, err := e.Eval(jctx, thunk); joiner <- err }()
	waitForJoiner(e, futKey{'T', thunk})
	cancel()
	if err := <-joiner; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled joiner: %v, want context.Canceled", err)
	}
	close(release)
	if err := <-leader; err != nil {
		t.Fatalf("leader: %v", err)
	}
	if got := mustU64(t, e, thunk); got != 9 {
		t.Fatalf("re-eval = %d, want 9", got)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("procedure ran %d times, want 1: the leader's result is memoized", n)
	}
}

// TestCancelledLeaderLeavesJoiner: a leader that gives up on its own
// context (here while waiting for the one CPU slot) does not fail a
// joiner whose context is live; the joiner claims the computation
// again and runs it.
func TestCancelledLeaderLeavesJoiner(t *testing.T) {
	var runs atomic.Int64
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	e, st := newTestEngine(t, Options{Cores: 1, Registry: gatedRegistry(&runs, entered, release, nil)})
	blocker := appThunk(t, st, core.NativeFunctionBlob("gated"), core.LiteralU64(1))
	thunk := appThunk(t, st, core.NativeFunctionBlob("gated"), core.LiteralU64(2))
	blocked := make(chan error, 1)
	go func() { _, err := e.Eval(context.Background(), blocker); blocked <- err }()
	<-entered // the blocker holds the only slot

	lctx, cancel := context.WithCancel(context.Background())
	leader := make(chan error, 1)
	go func() { _, err := e.Eval(lctx, thunk); leader <- err }()
	waitForClaim(e, futKey{'T', thunk})
	type out struct {
		res core.Handle
		err error
	}
	joiner := make(chan out, 1)
	go func() { r, err := e.Eval(context.Background(), thunk); joiner <- out{r, err} }()
	waitForJoiner(e, futKey{'T', thunk})
	cancel()
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leader: %v, want context.Canceled", err)
	}
	close(release)
	if err := <-blocked; err != nil {
		t.Fatalf("blocker: %v", err)
	}
	j := <-joiner
	if j.err != nil {
		t.Fatalf("joiner failed with its leader's cancellation: %v", j.err)
	}
	if j.res != core.LiteralU64(9) {
		t.Fatalf("joiner = %v, want 9", j.res)
	}
	if n := runs.Load(); n != 2 {
		t.Fatalf("procedure ran %d times, want 2 (the blocker and the joiner's retry)", n)
	}
}

// TestKeptAPISeesNoLaterGrants: a procedure that keeps its API past its
// own invocation holds nothing of the next one. Every invocation gets an
// API of its own, never a pooled one.
func TestKeptAPISeesNoLaterGrants(t *testing.T) {
	var kept core.API
	var during []error
	reg := NewRegistry()
	reg.RegisterFunc("keep", func(api core.API, input core.Handle) (core.Handle, error) {
		kept = api
		return core.LiteralU64(0), nil
	})
	reg.RegisterFunc("peek", func(api core.API, input core.Handle) (core.Handle, error) {
		entries, err := api.AttachTree(input)
		if err != nil {
			return core.Handle{}, err
		}
		_, treeErr := kept.AttachTree(input)
		_, blobErr := kept.AttachBlob(entries[2])
		during = []error{treeErr, blobErr}
		return core.LiteralU64(0), nil
	})
	st := store.New()
	e := New(st, Options{Cores: 1, Registry: reg})
	secret := st.PutBlob([]byte("the next invocation's input, not a literal"))
	mustU64(t, e, appThunk(t, st, core.NativeFunctionBlob("keep"), core.LiteralU64(1)))
	next := appThunk(t, st, core.NativeFunctionBlob("peek"), secret)
	mustU64(t, e, next)
	_, after := kept.AttachBlob(secret)
	for i, err := range append(during, after) {
		if err == nil || !strings.Contains(err.Error(), "outside minimum repository") {
			t.Fatalf("kept API call %d on the next invocation's input: %v, want not granted", i, err)
		}
	}
}

// TestAttachedEntriesAppendLeavesTree: AttachTree hands a procedure the
// stored entries, so appending to them must copy, not write the spare
// entry past their end, which holds the Tree's Application memo. A
// procedure appends to its own input's entries and to those of a Tree
// whose Application is already memoized; both Trees keep their handles,
// and both Applications evaluate to their first results again.
func TestAttachedEntriesAppendLeavesTree(t *testing.T) {
	var spare []int
	reg := NewRegistry()
	reg.RegisterFunc("grow", func(api core.API, input core.Handle) (core.Handle, error) {
		entries, err := api.AttachTree(input)
		if err != nil {
			return core.Handle{}, err
		}
		spare = append(spare, cap(entries)-len(entries))
		grown := append(entries, core.LiteralU64(99))
		if arg := entries[2]; arg.Kind() == core.KindTree {
			inner, err := api.AttachTree(arg)
			if err != nil {
				return core.Handle{}, err
			}
			spare = append(spare, cap(inner)-len(inner))
			_ = append(inner, core.LiteralU64(99))
		}
		return core.LiteralU64(uint64(len(grown))), nil
	})
	st := store.New()
	e := New(st, Options{Cores: 1, Registry: reg})
	fn := core.NativeFunctionBlob("grow")
	first := appThunk(t, st, fn, core.LiteralU64(7))
	firstTree := first.StorageKey()
	if got := mustU64(t, e, first); got != 4 {
		t.Fatalf("grow over a literal = %d, want 4", got)
	}
	second := appThunk(t, st, fn, firstTree)
	if got := mustU64(t, e, second); got != 4 {
		t.Fatalf("grow over a tree = %d, want 4", got)
	}
	for _, tree := range []core.Handle{firstTree, second.StorageKey()} {
		entries, err := st.Tree(tree)
		if err != nil {
			t.Fatal(err)
		}
		if core.TreeHandle(entries) != tree {
			t.Fatalf("tree %v no longer hashes to its handle", tree)
		}
	}
	for _, th := range []core.Handle{first, second} {
		if got := mustU64(t, e, th); got != 4 {
			t.Fatalf("second evaluation of %v = %d, want 4", th, got)
		}
	}
	for i, n := range spare {
		if n != 0 {
			t.Fatalf("attached entries %d have %d spare slots, want 0", i, n)
		}
	}
}
