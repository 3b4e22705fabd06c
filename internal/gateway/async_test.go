package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fixgo/internal/core"
	"fixgo/internal/durable"
	"fixgo/internal/jobs"
	"fixgo/internal/runtime"
	"fixgo/internal/store"
)

// newAsyncGateway serves an in-process engine with the async worker pool
// enabled.
func newAsyncGateway(t *testing.T, opts Options) (*Server, *Client) {
	t.Helper()
	if opts.AsyncWorkers == 0 {
		opts.AsyncWorkers = 2
	}
	srv, c := newTestGateway(t, opts)
	t.Cleanup(func() { _ = srv.Close() })
	return srv, c
}

func awaitJob(t *testing.T, c *Client, id string) JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	js, err := c.AwaitJob(ctx, id)
	if err != nil {
		t.Fatalf("await job %s: %v", id, err)
	}
	return js
}

func TestAsyncLifecycle(t *testing.T) {
	srv, c := newAsyncGateway(t, Options{CacheEntries: 64})
	ctx := context.Background()

	th := addJob(t, c, 40, 2)
	js, err := c.SubmitAsync(ctx, th)
	if err != nil {
		t.Fatal(err)
	}
	if js.ID == "" || js.Deduped {
		t.Fatalf("submission = %+v, want fresh job with an ID", js)
	}
	final := awaitJob(t, c, js.ID)
	if final.State != jobs.StateDone {
		t.Fatalf("job settled as %v (%s), want done", final.State, final.Err)
	}
	data, err := c.BlobBytes(ctx, final.Result)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := core.DecodeU64(data); v != 42 {
		t.Fatalf("async add(40,2) = %d, want 42", v)
	}

	// Resubmission joins the completed job: same ID, no new work.
	js2, err := c.SubmitAsync(ctx, th)
	if err != nil {
		t.Fatal(err)
	}
	if js2.ID != js.ID || !js2.Deduped || js2.State != jobs.StateDone {
		t.Errorf("resubmission = %+v, want deduped done job %s", js2, js.ID)
	}
	// And the sync path sees the result cached by the async evaluation.
	res, err := c.Submit(ctx, th)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeHit {
		t.Errorf("sync submission after async completion = %v, want hit", res.Outcome)
	}

	// GET /v1/jobs lists the job; stats expose the queue.
	all, err := c.ListJobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 || all[0].ID != js.ID {
		t.Errorf("job list = %+v, want the one job", all)
	}
	st := srv.Stats()
	if st.Jobs == nil || st.Jobs.Done != 1 || st.Jobs.Enqueued != 1 || st.Jobs.Deduped != 1 {
		t.Errorf("jobs stats = %+v, want 1 done / 1 enqueued / 1 deduped", st.Jobs)
	}
}

func TestAsyncPreferHeaderAndEvents(t *testing.T) {
	_, c := newAsyncGateway(t, Options{CacheEntries: 64})
	ctx := context.Background()

	// Prefer: respond-async triggers the async path without the query
	// parameter: 202 plus a Location pointing at the job.
	th := addJob(t, c, 1, 2)
	body := strings.NewReader(`{"handle":"` + core.FormatHandle(th) + `"}`)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Prefer", "respond-async")
	resp, err := c.hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var accepted JobStatusReply
	err = json.NewDecoder(resp.Body).Decode(&accepted)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("Prefer: respond-async submission: status %d, want 202", resp.StatusCode)
	}
	if want := "/v1/jobs/" + accepted.ID; resp.Header.Get("Location") != want {
		t.Errorf("Location = %q, want %q", resp.Header.Get("Location"), want)
	}

	// The SSE stream reports transitions through to done.
	js, err := c.SubmitAsync(ctx, th)
	if err != nil {
		t.Fatal(err)
	}
	var states []jobs.State
	err = c.JobEvents(ctx, js.ID, func(ev JobStatus) error {
		states = append(states, ev.State)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(states) == 0 || states[len(states)-1] != jobs.StateDone {
		t.Fatalf("event states = %v, want trailing done", states)
	}
}

func TestAsyncCancelAndErrors(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	reg := runtime.NewRegistry()
	reg.RegisterFunc("block", func(api core.API, input core.Handle) (core.Handle, error) {
		<-block
		return api.CreateBlob(core.LiteralU64(1).LiteralData()), nil
	})
	st := store.New()
	backend := NewEngineBackend(runtime.New(st, runtime.Options{Cores: 2, Registry: reg}))
	_, c := newAsyncGateway(t, Options{Backend: backend, CacheEntries: 64, AsyncWorkers: 1})
	ctx := context.Background()

	// Unknown job: 404 on GET, DELETE, and events.
	if _, err := c.Job(ctx, "doesnotexist"); statusCode(err) != http.StatusNotFound {
		t.Errorf("GET unknown job = %v, want 404", err)
	}
	if _, err := c.CancelJob(ctx, "doesnotexist"); statusCode(err) != http.StatusNotFound {
		t.Errorf("DELETE unknown job = %v, want 404", err)
	}
	if err := c.JobEvents(ctx, "doesnotexist", nil); statusCode(err) != http.StatusNotFound {
		t.Errorf("events for unknown job = %v, want 404", err)
	}

	// Occupy the single worker, then cancel a queued job.
	fn, err := c.PutBlob(ctx, core.NativeFunctionBlob("block"))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := c.PutTree(ctx, core.InvocationTree(core.DefaultLimits.Handle(), fn, core.LiteralU64(1)))
	if err != nil {
		t.Fatal(err)
	}
	blocker, err := core.Application(tree)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := c.SubmitAsync(ctx, blocker)
	if err != nil {
		t.Fatal(err)
	}
	pj, err := c.SubmitAsync(ctx, addJob(t, c, 5, 6))
	if err != nil {
		t.Fatal(err)
	}
	cancelled, err := c.CancelJob(ctx, pj.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cancelled.State != jobs.StateCancelled {
		t.Fatalf("cancelled job state = %v", cancelled.State)
	}
	// Cancelling a terminal job: 409.
	if _, err := c.CancelJob(ctx, pj.ID); statusCode(err) != http.StatusConflict {
		t.Errorf("cancel terminal job = %v, want 409", err)
	}
	_ = bj
}

// TestAsyncDisabled pins the 501 surface when the worker pool is off.
func TestAsyncDisabled(t *testing.T) {
	_, c := newTestGateway(t, Options{CacheEntries: 4})
	ctx := context.Background()
	th := addJob(t, c, 1, 1)
	if _, err := c.SubmitAsync(ctx, th); statusCode(err) != http.StatusNotImplemented {
		t.Errorf("async submit with AsyncWorkers=0 = %v, want 501", err)
	}
	if _, err := c.Job(ctx, "x"); statusCode(err) != http.StatusNotImplemented {
		t.Errorf("GET /v1/jobs/{id} with AsyncWorkers=0 = %v, want 501", err)
	}
}

// TestAsyncRestartRecovery is the subsystem's end-to-end crash pin:
// async submissions survive a full gateway "kill" (journaled queue), a
// restarted gateway drains them, and a job whose thunk was already
// memoized before the crash is answered from the recovered memo journal
// without re-executing the function.
func TestAsyncRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	dataDir := filepath.Join(dir, "data")
	journal := filepath.Join(dir, "jobs.journal")
	var workExecs atomic.Int64
	gate := make(chan struct{}) // holds "slow" evaluations until released

	newReg := func() *runtime.Registry {
		reg := runtime.NewRegistry()
		reg.RegisterFunc("work", func(api core.API, input core.Handle) (core.Handle, error) {
			workExecs.Add(1)
			entries, err := api.AttachTree(input)
			if err != nil {
				return core.Handle{}, err
			}
			b, err := api.AttachBlob(entries[2])
			if err != nil {
				return core.Handle{}, err
			}
			v, _ := core.DecodeU64(b)
			return api.CreateBlob(core.LiteralU64(v * 3).LiteralData()), nil
		})
		reg.RegisterFunc("slow", func(api core.API, input core.Handle) (core.Handle, error) {
			// Deliberately ignores cancellation: models a backend the
			// shutdown path cannot interrupt.
			<-gate
			return api.CreateBlob(core.LiteralU64(7).LiteralData()), nil
		})
		return reg
	}

	boot := func() (*Server, *Client, func()) {
		st := store.New()
		d, _, err := durable.Attach(dataDir, durable.Options{}, st)
		if err != nil {
			t.Fatal(err)
		}
		eng := runtime.New(st, runtime.Options{Cores: 2, Registry: newReg()})
		srv, err := NewServer(Options{
			Backend:         NewEngineBackend(eng),
			CacheEntries:    64,
			AsyncWorkers:    1,
			JobsJournalPath: journal,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		c := NewClient(ts.URL, WithHTTPClient(ts.Client()))
		stop := func() {
			ts.Close()
			_ = srv.Close()
			_ = d.Close()
		}
		return srv, c, stop
	}

	mkJob := func(c *Client, fnName string, arg uint64) core.Handle {
		t.Helper()
		ctx := context.Background()
		fn, err := c.PutBlob(ctx, core.NativeFunctionBlob(fnName))
		if err != nil {
			t.Fatal(err)
		}
		tree, err := c.PutTree(ctx, core.InvocationTree(core.DefaultLimits.Handle(), fn, core.LiteralU64(arg)))
		if err != nil {
			t.Fatal(err)
		}
		th, err := core.Application(tree)
		if err != nil {
			t.Fatal(err)
		}
		return th
	}

	// ---- First life: one memoized sync job, then a wedged async queue.
	_, c, stop := boot()
	ctx := context.Background()
	memoized := mkJob(c, "work", 14)
	res, err := c.Submit(ctx, memoized)
	if err != nil {
		t.Fatal(err)
	}
	if workExecs.Load() != 1 {
		t.Fatalf("sync job executed %d times, want 1", workExecs.Load())
	}

	// The single worker wedges on "slow"; everything behind it stays
	// pending, including a resubmission of the already-memoized thunk.
	slowJob, err := c.SubmitAsync(ctx, mkJob(c, "slow", 1))
	if err != nil {
		t.Fatal(err)
	}
	memoJob, err := c.SubmitAsync(ctx, memoized)
	if err != nil {
		t.Fatal(err)
	}
	freshJob, err := c.SubmitAsync(ctx, mkJob(c, "work", 100))
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the slow job to actually start before "crashing".
	deadline := time.Now().Add(5 * time.Second)
	for {
		js, err := c.Job(ctx, slowJob.ID)
		if err != nil {
			t.Fatal(err)
		}
		if js.State == jobs.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slow job never started: %+v", js)
		}
		time.Sleep(time.Millisecond)
	}
	stop() // "kill -9": workers abandoned mid-flight, journals closed

	// ---- Second life: replay, drain, serve.
	srv2, c2, stop2 := boot()
	defer stop2()
	close(gate) // the backend un-wedges after the restart

	st := srv2.Stats()
	if st.Jobs == nil || st.Jobs.Replayed != 3 || st.Jobs.Resumed != 3 {
		t.Fatalf("recovery stats = %+v, want 3 replayed / 3 resumed", st.Jobs)
	}

	// Every job drains to done, with the original submissions' IDs.
	for _, id := range []string{slowJob.ID, memoJob.ID, freshJob.ID} {
		js := awaitJob(t, c2, id)
		if js.State != jobs.StateDone {
			t.Fatalf("job %s settled as %v (%s), want done", id, js.State, js.Err)
		}
	}
	// The memoized thunk was answered from the recovered memo journal:
	// "work" ran once pre-crash for it, and once total for the fresh
	// job — never a re-execution of an already-memoized thunk.
	if n := workExecs.Load(); n != 2 {
		t.Fatalf("work executed %d times across both lives, want 2 (no re-execution of memoized thunk)", n)
	}
	// And its job result matches the pre-crash sync answer.
	js, err := c2.Job(ctx, memoJob.ID)
	if err != nil {
		t.Fatal(err)
	}
	if js.Result != res.Result {
		t.Fatalf("recovered job result %v != pre-crash sync result %v", js.Result, res.Result)
	}
}

// statusCode extracts the HTTP status from a client error (0 when not a
// StatusError).
func statusCode(err error) int {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code
	}
	return 0
}

// TestAsyncSurvivesAdmissionSaturation pins the review fix: an async
// job accepted with 202 must wait out sync-path overload (AcquireWait),
// not shed with 429 and burn through its retry budget into dead-letter.
func TestAsyncSurvivesAdmissionSaturation(t *testing.T) {
	release := make(chan struct{})
	reg := runtime.NewRegistry()
	reg.RegisterFunc("hold", func(api core.API, input core.Handle) (core.Handle, error) {
		<-release
		return api.CreateBlob(core.LiteralU64(9).LiteralData()), nil
	})
	st := store.New()
	backend := NewEngineBackend(runtime.New(st, runtime.Options{Cores: 4, Registry: reg}))
	// One admission slot, zero shed queue: the sync submission below
	// saturates admission completely.
	srv, c := newAsyncGateway(t, Options{Backend: backend, CacheEntries: 64, MaxInFlight: 1, MaxQueue: 1, AsyncWorkers: 1})
	ctx := context.Background()

	mk := func(arg uint64) core.Handle {
		fn, err := c.PutBlob(ctx, core.NativeFunctionBlob("hold"))
		if err != nil {
			t.Fatal(err)
		}
		tree, err := c.PutTree(ctx, core.InvocationTree(core.DefaultLimits.Handle(), fn, core.LiteralU64(arg)))
		if err != nil {
			t.Fatal(err)
		}
		th, err := core.Application(tree)
		if err != nil {
			t.Fatal(err)
		}
		return th
	}
	// Saturate the only admission slot with a wedged sync submission.
	syncErr := make(chan error, 1)
	go func() {
		_, err := c.Submit(ctx, mk(1))
		syncErr <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Admission.InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sync submission never took the slot")
		}
		time.Sleep(time.Millisecond)
	}
	// The async job must park waiting for the slot — still running its
	// first attempt, never dead-lettered — and complete once the sync
	// load drains.
	js, err := c.SubmitAsync(ctx, mk(2))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // several retry budgets' worth of overload
	mid, err := c.Job(ctx, js.ID)
	if err != nil {
		t.Fatal(err)
	}
	if mid.State != jobs.StateRunning || mid.Attempts != 1 {
		t.Fatalf("async job under saturation = %+v, want running on attempt 1", mid)
	}
	close(release)
	if err := <-syncErr; err != nil {
		t.Fatal(err)
	}
	final := awaitJob(t, c, js.ID)
	if final.State != jobs.StateDone {
		t.Fatalf("async job settled as %v (%s), want done", final.State, final.Err)
	}
}

// TestAsyncCancelRunningFlightLeader pins the review fix: with the
// result cache enabled, the async worker leading a flight must observe
// DELETE promptly — the job settles cancelled and the worker frees up,
// while the detached backend evaluation finishes into the cache.
func TestAsyncCancelRunningFlightLeader(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	reg := runtime.NewRegistry()
	reg.RegisterFunc("leadhold", func(api core.API, input core.Handle) (core.Handle, error) {
		started <- struct{}{}
		<-release // ignores cancellation entirely
		return api.CreateBlob(core.LiteralU64(5).LiteralData()), nil
	})
	st := store.New()
	backend := NewEngineBackend(runtime.New(st, runtime.Options{Cores: 2, Registry: reg}))
	srv, c := newAsyncGateway(t, Options{Backend: backend, CacheEntries: 64, AsyncWorkers: 1})
	ctx := context.Background()

	fn, err := c.PutBlob(ctx, core.NativeFunctionBlob("leadhold"))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := c.PutTree(ctx, core.InvocationTree(core.DefaultLimits.Handle(), fn, core.LiteralU64(1)))
	if err != nil {
		t.Fatal(err)
	}
	th, err := core.Application(tree)
	if err != nil {
		t.Fatal(err)
	}
	js, err := c.SubmitAsync(ctx, th)
	if err != nil {
		t.Fatal(err)
	}
	<-started // the worker is the flight leader, wedged in the backend
	if _, err := c.CancelJob(ctx, js.ID); err != nil {
		t.Fatal(err)
	}
	// The job must settle cancelled without waiting for the backend.
	final := awaitJob(t, c, js.ID)
	if final.State != jobs.StateCancelled {
		t.Fatalf("job settled as %v, want cancelled while backend still wedged", final.State)
	}
	// The freed worker drains new work even though the old flight is
	// still wedged.
	other, err := c.SubmitAsync(ctx, addJob(t, c, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if got := awaitJob(t, c, other.ID); got.State != jobs.StateDone {
		t.Fatalf("follow-up job = %v, want done", got.State)
	}
	// Release the backend: the detached flight completes into the cache,
	// so a later sync submission of the cancelled thunk hits.
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Cache.Entries < 2 {
		if time.Now().After(deadline) {
			t.Fatal("abandoned flight never published into the cache")
		}
		time.Sleep(time.Millisecond)
	}
	res, err := c.Submit(ctx, th)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeHit {
		t.Errorf("post-release sync submission = %v, want hit from the detached flight", res.Outcome)
	}
}
