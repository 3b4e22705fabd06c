package jobs

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fixgo/internal/core"
)

// testHandle fabricates a distinct valid data handle per index.
func testHandle(i int) core.Handle {
	return core.BlobHandle([]byte(fmt.Sprintf("jobs-test-payload-%d-must-exceed-literal", i)))
}

// echoEval resolves every handle to itself after an optional delay.
func echoEval(delay time.Duration) func(context.Context, core.Handle) (core.Handle, error) {
	return func(ctx context.Context, h core.Handle) (core.Handle, error) {
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return core.Handle{}, ctx.Err()
			}
		}
		return h, nil
	}
}

func newTestManager(t *testing.T, opts Options) *Manager {
	t.Helper()
	if opts.Eval == nil {
		opts.Eval = echoEval(0)
	}
	m, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	return m
}

// awaitState long-polls until the job reaches want (failing if it
// settles anywhere else first).
func awaitState(t *testing.T, m *Manager, id string, want State) Job {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, err := m.Wait(context.Background(), id, time.Until(deadline))
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if v.State == want {
			return v
		}
		if v.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s settled in state %v, want %v", id, v.State, want)
		}
	}
}

func TestLifecycleAndDedup(t *testing.T) {
	m := newTestManager(t, Options{Workers: 2})
	h := testHandle(1)
	v, isNew, err := m.Submit("alice", h)
	if err != nil || !isNew {
		t.Fatalf("submit: new=%v err=%v", isNew, err)
	}
	if v.ID != JobID("alice", h) {
		t.Errorf("job ID %q not derived from (tenant, handle)", v.ID)
	}
	got := awaitState(t, m, v.ID, StateDone)
	if got.Result != h {
		t.Errorf("result = %v, want %v", got.Result, h)
	}
	if got.Attempts != 1 {
		t.Errorf("attempts = %d, want 1", got.Attempts)
	}

	// Resubmission of a completed job joins it rather than re-running.
	v2, isNew, err := m.Submit("alice", h)
	if err != nil || isNew {
		t.Fatalf("resubmit: new=%v err=%v", isNew, err)
	}
	if v2.State != StateDone || v2.Result != h {
		t.Errorf("resubmit = %+v, want completed snapshot", v2)
	}
	// A different tenant gets a different job for the same handle.
	if JobID("bob", h) == JobID("alice", h) {
		t.Error("job IDs collide across tenants")
	}
	st := m.Stats()
	if st.Deduped != 1 || st.Completed != 1 {
		t.Errorf("stats = %+v, want 1 deduped / 1 completed", st)
	}
}

func TestPendingDedupCollapses(t *testing.T) {
	release := make(chan struct{})
	m := newTestManager(t, Options{
		Workers: 1,
		Eval: func(ctx context.Context, h core.Handle) (core.Handle, error) {
			select {
			case <-release:
				return h, nil
			case <-ctx.Done():
				return core.Handle{}, ctx.Err()
			}
		},
	})
	// Occupy the single worker, then stack identical submissions.
	blocker, _, err := m.Submit("t", testHandle(0))
	if err != nil {
		t.Fatal(err)
	}
	h := testHandle(1)
	_, isNew, err := m.Submit("t", h)
	if err != nil || !isNew {
		t.Fatalf("first: new=%v err=%v", isNew, err)
	}
	for i := 0; i < 5; i++ {
		_, isNew, err := m.Submit("t", h)
		if err != nil || isNew {
			t.Fatalf("duplicate %d: new=%v err=%v", i, isNew, err)
		}
	}
	if st := m.Stats(); st.Enqueued != 2 || st.Deduped != 5 {
		t.Errorf("stats = %+v, want 2 enqueued / 5 deduped", st)
	}
	close(release)
	awaitState(t, m, blocker.ID, StateDone)
	awaitState(t, m, JobID("t", h), StateDone)
}

func TestRetriesThenDeadLetter(t *testing.T) {
	var calls atomic.Int32
	m := newTestManager(t, Options{
		Workers:     1,
		MaxAttempts: 3,
		Eval: func(ctx context.Context, h core.Handle) (core.Handle, error) {
			calls.Add(1)
			return core.Handle{}, errors.New("synthetic failure")
		},
	})
	v, _, err := m.Submit("t", testHandle(1))
	if err != nil {
		t.Fatal(err)
	}
	got := awaitState(t, m, v.ID, StateDeadLetter)
	if got.Attempts != 3 || calls.Load() != 3 {
		t.Errorf("attempts = %d (calls %d), want 3", got.Attempts, calls.Load())
	}
	if got.Error == "" {
		t.Error("dead-lettered job lost its error message")
	}
	st := m.Stats()
	if st.DeadLetter != 1 || st.Failed != 3 || st.Retried != 2 {
		t.Errorf("stats = %+v, want 1 deadletter / 3 failed / 2 retried", st)
	}

	// An explicit resubmission of a dead-lettered job re-enqueues it.
	_, isNew, err := m.Submit("t", testHandle(1))
	if err != nil || !isNew {
		t.Fatalf("resubmit dead-lettered: new=%v err=%v", isNew, err)
	}
}

func TestCancelPendingAndRunning(t *testing.T) {
	started := make(chan struct{}, 1)
	m := newTestManager(t, Options{
		Workers: 1,
		Eval: func(ctx context.Context, h core.Handle) (core.Handle, error) {
			started <- struct{}{}
			<-ctx.Done()
			return core.Handle{}, ctx.Err()
		},
	})
	run, _, err := m.Submit("t", testHandle(1))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	pend, _, err := m.Submit("t", testHandle(2))
	if err != nil {
		t.Fatal(err)
	}

	// Pending cancel is immediate.
	v, err := m.Cancel(pend.ID)
	if err != nil || v.State != StateCancelled {
		t.Fatalf("cancel pending = %v (%v), want cancelled", v.State, err)
	}
	// Running cancel propagates through the eval context.
	if _, err := m.Cancel(run.ID); err != nil {
		t.Fatal(err)
	}
	got := awaitState(t, m, run.ID, StateCancelled)
	if got.State != StateCancelled {
		t.Fatalf("running job settled as %v, want cancelled", got.State)
	}
	// A terminal job is not cancellable.
	if _, err := m.Cancel(run.ID); !errors.Is(err, ErrNotCancellable) {
		t.Errorf("cancel terminal = %v, want ErrNotCancellable", err)
	}
	if _, err := m.Cancel("no-such-job"); !errors.Is(err, ErrNotFound) {
		t.Errorf("cancel unknown = %v, want ErrNotFound", err)
	}
}

func TestQueueFull(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	m := newTestManager(t, Options{
		Workers:  1,
		MaxQueue: 2,
		Eval: func(ctx context.Context, h core.Handle) (core.Handle, error) {
			select {
			case <-block:
			case <-ctx.Done():
			}
			return h, nil
		},
	})
	// Occupy the worker, then fill the two queue slots.
	if _, _, err := m.Submit("t", testHandle(0)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().Running == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	for i := 1; i <= 2; i++ {
		if _, _, err := m.Submit("t", testHandle(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := m.Submit("t", testHandle(3)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit over MaxQueue = %v, want ErrQueueFull", err)
	}
	if st := m.Stats(); st.Depth != 2 {
		t.Errorf("depth = %d, want 2", st.Depth)
	}
}

func TestWeightedFairDequeue(t *testing.T) {
	// The single worker runs serially, so the order evals execute IS the
	// dequeue order; eval records it keyed by the tenant baked into each
	// handle's index range.
	var mu sync.Mutex
	var order []string
	tenantOf := map[core.Handle]string{}
	release := make(chan struct{})
	m := newTestManager(t, Options{
		Workers: 1,
		Eval: func(ctx context.Context, h core.Handle) (core.Handle, error) {
			<-release
			mu.Lock()
			if tenant := tenantOf[h]; tenant != "" {
				order = append(order, tenant)
			}
			mu.Unlock()
			return h, nil
		},
	})
	// Block the worker on a sacrificial job so the rest queue up in a
	// deterministic arrival order before any dequeue happens.
	first, _, err := m.Submit("warmup", testHandle(0))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	var ids []string
	submit := func(tenant string) {
		n++
		h := testHandle(100 + n)
		mu.Lock()
		tenantOf[h] = tenant
		mu.Unlock()
		v, _, err := m.Submit(tenant, h)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	for i := 0; i < 6; i++ {
		submit("heavy")
	}
	for i := 0; i < 3; i++ {
		submit("light")
	}
	close(release)
	awaitState(t, m, first.ID, StateDone)
	for _, id := range ids {
		awaitState(t, m, id, StateDone)
	}

	mu.Lock()
	defer mu.Unlock()
	// With both tenants backlogged the dequeues alternate one for one;
	// once light drains, heavy has the queue to itself.
	want := []string{"heavy", "light", "heavy", "light", "heavy", "light", "heavy", "heavy", "heavy"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("dequeue order = %v, want %v", order, want)
	}
}

// TestFairQueueReusesDrainedTenant: a push/pop cycle on a tenant whose
// queue drains each time allocates nothing; a tenant that never drains
// keeps its array from growing; remove finds jobs behind popped ones.
func TestFairQueueReusesDrainedTenant(t *testing.T) {
	q := newFairQueue()
	a := &job{view: Job{Tenant: "a"}}
	cycle := func() {
		q.push(a)
		if q.pop() != a {
			t.Fatal("pop returned another job")
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("push/pop on a drained tenant: %v allocs, want 0", n)
	}

	b := &job{view: Job{Tenant: "b"}}
	q.push(b)
	for i := 0; i < 1000; i++ {
		q.push(b)
		if q.pop() != b {
			t.Fatal("pop returned another job")
		}
	}
	if c := cap(q.tenants["b"].jobs); c > 4 {
		t.Fatalf("a tenant with one job pending across 1000 pops holds an array of %d", c)
	}
	if q.pop() != b || q.pop() != nil {
		t.Fatal("queue did not drain to empty")
	}

	c1, c2, c3 := &job{view: Job{Tenant: "c"}}, &job{view: Job{Tenant: "c"}}, &job{view: Job{Tenant: "c"}}
	q.push(c1)
	q.push(c2)
	q.push(c3)
	if q.pop() != c1 || !q.remove(c3) || q.remove(c1) {
		t.Fatal("remove behind a popped job")
	}
	if q.pop() != c2 || q.size != 0 || len(q.ring) != 0 {
		t.Fatal("queue did not drain to empty after remove")
	}
}

func TestJournalRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	block := make(chan struct{})
	var evals atomic.Int32
	mkEval := func(blocked bool) func(context.Context, core.Handle) (core.Handle, error) {
		return func(ctx context.Context, h core.Handle) (core.Handle, error) {
			evals.Add(1)
			if blocked {
				select {
				case <-block:
				case <-ctx.Done():
					return core.Handle{}, ctx.Err()
				}
			}
			return h, nil
		}
	}
	m, err := New(Options{Workers: 1, JournalPath: path, Eval: mkEval(true)})
	if err != nil {
		t.Fatal(err)
	}
	// One job completes pre-crash... (worker blocked after eval starts;
	// let the first one through by releasing once)
	done, _, err := m.Submit("t", testHandle(1))
	if err != nil {
		t.Fatal(err)
	}
	block <- struct{}{}
	if v := awaitState(t, m, done.ID, StateDone); v.Result != testHandle(1) {
		t.Fatalf("pre-crash job = %+v", v)
	}
	// ...one is mid-evaluation, and one is still pending at the "crash".
	running, _, err := m.Submit("t", testHandle(2))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, running.ID)
	pending, _, err := m.Submit("t", testHandle(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Reboot from the journal with an unblocked evaluator.
	m2, err := New(Options{Workers: 1, JournalPath: path, Eval: mkEval(false)})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	st := m2.Stats()
	if st.Replayed != 3 || st.Resumed != 2 {
		t.Fatalf("recovery stats = %+v, want 3 replayed / 2 resumed", st)
	}
	// The completed job is still served, without re-evaluating.
	v, ok := m2.Get(done.ID)
	if !ok || v.State != StateDone || v.Result != testHandle(1) {
		t.Fatalf("completed job after reboot = %+v", v)
	}
	// The interrupted and pending jobs drain to completion.
	if v := awaitState(t, m2, running.ID, StateDone); v.Result != testHandle(2) {
		t.Fatalf("interrupted job = %+v", v)
	}
	if v := awaitState(t, m2, pending.ID, StateDone); v.Result != testHandle(3) {
		t.Fatalf("pending job = %+v", v)
	}
}

func TestJournalCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	m, err := New(Options{
		Workers:     1,
		MaxAttempts: 2,
		JournalPath: path,
		Eval: func(ctx context.Context, h core.Handle) (core.Handle, error) {
			return core.Handle{}, errors.New("always fails")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Generate lots of superseded records: every job is enqueued,
	// started, failed, retried, and dead-lettered.
	var last string
	for i := 0; i < 50; i++ {
		v, _, err := m.Submit("t", testHandle(i))
		if err != nil {
			t.Fatal(err)
		}
		last = v.ID
	}
	awaitState(t, m, last, StateDeadLetter)
	// Wait for every job to settle before closing.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := m.Stats(); st.DeadLetter == 50 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs did not settle: %+v", m.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: replay sees ~6 records per job, well past the 2× folded
	// threshold, so New compacts. A third open replays the compact form.
	m2, err := New(Options{Workers: 1, JournalPath: path, Eval: echoEval(0)})
	if err != nil {
		t.Fatal(err)
	}
	if st := m2.Stats(); st.Replayed != 50 || st.DeadLetter != 50 {
		t.Fatalf("post-compaction stats = %+v, want 50 replayed dead-lettered", st)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	m3, err := New(Options{Workers: 1, JournalPath: path, Eval: echoEval(0)})
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	if st := m3.Stats(); st.Replayed != 50 || st.DeadLetter != 50 {
		t.Fatalf("compacted journal replay = %+v, want 50 dead-lettered", st)
	}
}

// TestAttemptsSurviveRestart: a running job's attempt count is journaled,
// so a job whose gateway goes down during an attempt does not get a fresh
// budget on reboot. With MaxAttempts 2, attempt 1 fails and Close runs
// during attempt 2; after reopening, the job's first failure (attempt 3)
// dead-letters it.
func TestAttemptsSurviveRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	second := make(chan struct{})
	var calls atomic.Int32
	m, err := New(Options{
		Workers:     1,
		MaxAttempts: 2,
		JournalPath: path,
		Eval: func(ctx context.Context, h core.Handle) (core.Handle, error) {
			if calls.Add(1) == 1 {
				return core.Handle{}, errors.New("attempt 1 fails")
			}
			close(second)
			<-ctx.Done()
			return core.Handle{}, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := m.Submit("t", testHandle(1))
	if err != nil {
		t.Fatal(err)
	}
	<-second
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	var after atomic.Int32
	m2 := newTestManager(t, Options{
		Workers:     1,
		MaxAttempts: 2,
		JournalPath: path,
		Eval: func(ctx context.Context, h core.Handle) (core.Handle, error) {
			after.Add(1)
			return core.Handle{}, errors.New("attempt 3 fails")
		},
	})
	got := awaitState(t, m2, v.ID, StateDeadLetter)
	if got.Attempts != 3 || after.Load() != 1 {
		t.Fatalf("after restart: attempts = %d over %d evals, want 3 over 1", got.Attempts, after.Load())
	}
	if st := m2.Stats(); st.Resumed != 1 || st.Retried != 0 {
		t.Fatalf("after restart: stats = %+v, want 1 resumed and 0 retried", st)
	}
}

func TestSubscribeStreamsTransitions(t *testing.T) {
	m := newTestManager(t, Options{Workers: 1, Eval: echoEval(5 * time.Millisecond)})
	v, _, err := m.Submit("t", testHandle(1))
	if err != nil {
		t.Fatal(err)
	}
	ch, stop, err := m.Subscribe(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	var states []State
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev := <-ch:
			if len(states) == 0 || states[len(states)-1] != ev.State {
				states = append(states, ev.State)
			}
			if ev.State.Terminal() {
				if states[len(states)-1] != StateDone {
					t.Fatalf("terminal state %v, want done", ev.State)
				}
				return
			}
		case <-deadline:
			t.Fatalf("no terminal event; saw %v", states)
		}
	}
}

func waitRunning(t *testing.T, m *Manager, id string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if v, ok := m.Get(id); ok && v.State == StateRunning {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never started running", id)
}

func TestCancelSticksOnNonCanceledEvalError(t *testing.T) {
	started := make(chan struct{}, 1)
	m := newTestManager(t, Options{
		Workers:     1,
		MaxAttempts: 3,
		Eval: func(ctx context.Context, h core.Handle) (core.Handle, error) {
			started <- struct{}{}
			<-ctx.Done()
			// A backend racing the cancellation may surface its own
			// error instead of wrapping context.Canceled.
			return core.Handle{}, errors.New("backend exploded")
		},
	})
	v, _, err := m.Submit("t", testHandle(1))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := m.Cancel(v.ID); err != nil {
		t.Fatal(err)
	}
	got := awaitState(t, m, v.ID, StateCancelled)
	if got.State != StateCancelled || got.Attempts != 1 {
		t.Fatalf("job = %+v, want cancelled after 1 attempt (no retry)", got)
	}
}

// TestUnrequestedCanceledIsAFailedAttempt: an eval that returns
// context.Canceled with no Cancel call (a backend's own give-up) is a
// failed attempt, retried and then dead-lettered, not a cancellation.
func TestUnrequestedCanceledIsAFailedAttempt(t *testing.T) {
	m := newTestManager(t, Options{
		Workers:     1,
		MaxAttempts: 2,
		Eval: func(ctx context.Context, h core.Handle) (core.Handle, error) {
			return core.Handle{}, context.Canceled
		},
	})
	v, _, err := m.Submit("t", testHandle(1))
	if err != nil {
		t.Fatal(err)
	}
	got := awaitState(t, m, v.ID, StateDeadLetter)
	if got.Attempts != 2 {
		t.Fatalf("job = %+v, want dead-lettered after 2 attempts", got)
	}
	if st := m.Stats(); st.CancelledTotal != 0 || st.Failed != 2 || st.Retried != 1 {
		t.Fatalf("stats = %+v, want 0 cancelled / 2 failed / 1 retried", st)
	}
}

func TestTerminalRetentionBound(t *testing.T) {
	m := newTestManager(t, Options{Workers: 2, RetainTerminal: 8})
	var last string
	for i := 0; i < 40; i++ {
		v, _, err := m.Submit("t", testHandle(i))
		if err != nil {
			t.Fatal(err)
		}
		last = v.ID
		awaitState(t, m, v.ID, StateDone)
	}
	st := m.Stats()
	if st.Done > 9 { // retain + the one-eighth amortization slack
		t.Errorf("retained %d done jobs, want <= 9 (RetainTerminal=8)", st.Done)
	}
	// The most recent job must still be held; an evicted old ID is gone
	// and a resubmission of it re-enqueues rather than deduping.
	if _, ok := m.Get(last); !ok {
		t.Error("most recent job was evicted")
	}
	if _, ok := m.Get(JobID("t", testHandle(0))); ok {
		t.Error("oldest job survived eviction past the bound")
	}
	if _, isNew, err := m.Submit("t", testHandle(0)); err != nil || !isNew {
		t.Errorf("resubmission of evicted job: new=%v err=%v, want fresh enqueue", isNew, err)
	}
}

// TestCloseDrainsEvalsForTakeover pins the shutdown ordering a
// replicated edge depends on: Close reverts interrupted jobs to pending
// AND waits for their cancelled backend flights to actually return
// before it comes back — so a peer that adopts this gateway's jobs
// after Close cannot overlap an evaluation still executing here.
func TestCloseDrainsEvalsForTakeover(t *testing.T) {
	var inFlight, maxInFlight atomic.Int64
	release := make(chan struct{})
	m := newTestManager(t, Options{
		Workers: 2,
		Eval: func(ctx context.Context, h core.Handle) (core.Handle, error) {
			if n := inFlight.Add(1); n > maxInFlight.Load() {
				maxInFlight.Store(n)
			}
			defer inFlight.Add(-1)
			select {
			case <-ctx.Done():
			case <-release:
			}
			return core.Handle{}, ctx.Err()
		},
	})
	for i := 0; i < 2; i++ {
		if _, _, err := m.Submit("acme", testHandle(i)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().Running != 2 {
		if time.Now().After(deadline) {
			t.Fatal("jobs never started running")
		}
		time.Sleep(time.Millisecond)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// The grace drain: when Close has returned, no backend flight may
	// still be executing — this is what the adopting peer relies on.
	if n := inFlight.Load(); n != 0 {
		t.Fatalf("%d evaluations still in flight after Close returned", n)
	}
	// And the interrupted jobs reverted to pending, the state a takeover
	// peer (or the next boot's replay) resumes from.
	for i := 0; i < 2; i++ {
		v, ok := m.Get(JobID("acme", testHandle(i)))
		if !ok || v.State != StatePending {
			t.Fatalf("job %d after close: %+v, want pending", i, v)
		}
	}
}

// TestCloseGraceAbandonsStuckEval: a backend that ignores cancellation
// must not wedge shutdown forever — Close gives up after CloseGrace.
func TestCloseGraceAbandonsStuckEval(t *testing.T) {
	stuck := make(chan struct{})
	defer close(stuck)
	m := newTestManager(t, Options{
		Workers:    1,
		CloseGrace: 50 * time.Millisecond,
		Eval: func(ctx context.Context, h core.Handle) (core.Handle, error) {
			<-stuck // deliberately ignores ctx
			return core.Handle{}, errors.New("stuck")
		},
	})
	if _, _, err := m.Submit("acme", testHandle(0)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().Running != 1 {
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("Close blocked %v on a cancellation-deaf backend", took)
	}
}

// TestObserveTerminalTransitions: the Observe hook fires exactly once
// per live settlement — done, dead-letter, and cancelled — and never for
// journal-replayed ones.
func TestObserveTerminalTransitions(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.journal")
	var mu sync.Mutex
	seen := map[string][]State{}
	observe := func(j Job) {
		mu.Lock()
		seen[j.ID] = append(seen[j.ID], j.State)
		mu.Unlock()
	}
	failEval := func(ctx context.Context, h core.Handle) (core.Handle, error) {
		if h == testHandle(1) {
			return core.Handle{}, errors.New("always fails")
		}
		return h, nil
	}
	m := newTestManager(t, Options{
		JournalPath: path, Observe: observe, Eval: failEval,
		MaxAttempts: 2,
	})
	doneJob, _, _ := m.Submit("acme", testHandle(0))
	deadJob, _, _ := m.Submit("acme", testHandle(1))
	awaitState(t, m, doneJob.ID, StateDone)
	awaitState(t, m, deadJob.ID, StateDeadLetter)
	cancelJob, _, _ := m.Submit("acme", testHandle(2))
	// Cancel can race the fast echo eval; either settlement is observed.
	_, _ = m.Cancel(cancelJob.ID)
	awaitTerminal := func(id string) {
		deadline := time.Now().Add(5 * time.Second)
		for {
			mu.Lock()
			n := len(seen[id])
			mu.Unlock()
			if n > 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s never observed", id)
			}
			time.Sleep(time.Millisecond)
		}
	}
	awaitTerminal(cancelJob.ID)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	for id, states := range seen {
		if len(states) != 1 {
			t.Fatalf("job %s observed %d times: %v", id, len(states), states)
		}
	}
	if got := seen[doneJob.ID]; len(got) != 1 || got[0] != StateDone {
		t.Fatalf("done job observed as %v", got)
	}
	if got := seen[deadJob.ID]; len(got) != 1 || got[0] != StateDeadLetter {
		t.Fatalf("dead-letter job observed as %v", got)
	}
	mu.Unlock()

	// Reopen over the same journal: replayed settlements must not be
	// re-observed.
	var replayObserved atomic.Int64
	m2 := newTestManager(t, Options{
		JournalPath: path, Eval: failEval,
		Observe: func(Job) { replayObserved.Add(1) },
	})
	if m2.Stats().Replayed == 0 {
		t.Fatal("nothing replayed; test is vacuous")
	}
	if n := replayObserved.Load(); n != 0 {
		t.Fatalf("replay fired Observe %d times", n)
	}
}
