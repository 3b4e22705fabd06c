package gateway

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fixgo/internal/cluster"
	"fixgo/internal/codelet"
	"fixgo/internal/core"
	"fixgo/internal/proto"
	"fixgo/internal/runtime"
	"fixgo/internal/store"
	"fixgo/internal/transport"
)

// newTestGateway serves an in-process engine over real HTTP.
func newTestGateway(t *testing.T, opts Options) (*Server, *Client) {
	t.Helper()
	if opts.Backend == nil {
		st := store.New()
		opts.Backend = NewEngineBackend(runtime.New(st, runtime.Options{Cores: 4}))
	}
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, NewClient(ts.URL, WithHTTPClient(ts.Client()))
}

// addJob uploads the add codelet through the client and returns the
// Thunk handle for add(a, b).
func addJob(t *testing.T, c *Client, a, b uint64) core.Handle {
	t.Helper()
	ctx := context.Background()
	fn, err := c.PutBlob(ctx, codelet.AddFunctionBlob())
	if err != nil {
		t.Fatal(err)
	}
	tree, err := c.PutTree(ctx, core.InvocationTree(
		core.DefaultLimits.Handle(), fn, core.LiteralU64(a), core.LiteralU64(b)))
	if err != nil {
		t.Fatal(err)
	}
	th, err := core.Application(tree)
	if err != nil {
		t.Fatal(err)
	}
	return th
}

func TestRoundTrip(t *testing.T) {
	srv, c := newTestGateway(t, Options{CacheEntries: 64})
	ctx := context.Background()

	th := addJob(t, c, 40, 2)
	res, err := c.SubmitFetch(ctx, th)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := core.DecodeU64(res.Data); v != 42 {
		t.Fatalf("add(40,2) = %d, want 42", v)
	}
	if res.Outcome != OutcomeMiss {
		t.Errorf("first submission outcome = %v, want miss", res.Outcome)
	}

	// Identical resubmission: an LRU hit, same result.
	res2, err := c.Submit(ctx, th)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Outcome != OutcomeHit {
		t.Errorf("resubmission outcome = %v, want hit", res2.Outcome)
	}
	if res2.Result != res.Result {
		t.Errorf("resubmission result %v != original %v", res2.Result, res.Result)
	}
	data, err := c.BlobBytes(ctx, res2.Result)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := core.DecodeU64(data); v != 42 {
		t.Fatalf("fetched result = %d, want 42", v)
	}

	st := srv.Stats()
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Errorf("cache stats = %+v, want 1 hit / 1 miss", st.Cache)
	}
}

func TestTenantAccounting(t *testing.T) {
	srv, c := newTestGateway(t, Options{CacheEntries: 64})
	base := c.base
	alice := NewClient(base, WithTenant("alice"), WithHTTPClient(c.hc))
	bob := NewClient(base, WithTenant("bob"), WithHTTPClient(c.hc))
	ctx := context.Background()

	th := addJob(t, alice, 1, 2)
	if _, err := alice.Submit(ctx, th); err != nil {
		t.Fatal(err)
	}
	// Bob submits the same computation: served from Alice's warm cache.
	res, err := bob.Submit(ctx, th)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeHit {
		t.Errorf("bob's outcome = %v, want hit", res.Outcome)
	}
	st := srv.Stats()
	if st.Tenants["alice"] == nil || st.Tenants["alice"].Jobs != 1 {
		t.Errorf("alice stats = %+v", st.Tenants["alice"])
	}
	if st.Tenants["bob"] == nil || st.Tenants["bob"].Jobs != 1 {
		t.Errorf("bob stats = %+v", st.Tenants["bob"])
	}
}

// slowBackend counts evaluations and takes a fixed time per call — a
// stand-in for a cluster whose every evaluation costs network and
// compute.
type slowBackend struct {
	storeBackend
	delay time.Duration
	evals atomic.Int64
	// running counts evaluations in progress; peak is its high-water mark.
	running, peak atomic.Int64
}

func (b *slowBackend) Eval(ctx context.Context, h core.Handle) (core.Handle, error) {
	b.evals.Add(1)
	n := b.running.Add(1)
	defer b.running.Add(-1)
	for p := b.peak.Load(); n > p && !b.peak.CompareAndSwap(p, n); p = b.peak.Load() {
	}
	select {
	case <-time.After(b.delay):
	case <-ctx.Done():
		return core.Handle{}, ctx.Err()
	}
	return core.LiteralU64(42), nil
}

// storeBackend is every Backend method but Eval over a plain store; the
// fakes embed it and script Eval.
type storeBackend struct{ st *store.Store }

func (b storeBackend) PutBlobOwned(h core.Handle, data []byte) core.Handle {
	return b.st.PutBlobOwned(h, data)
}
func (b storeBackend) PutTree(entries []core.Handle) (core.Handle, error) {
	return b.st.PutTree(entries)
}
func (b storeBackend) ObjectBytes(ctx context.Context, h core.Handle) ([]byte, error) {
	return b.st.ObjectBytes(h)
}
func (b storeBackend) ResolvableHint(h core.Handle) bool { return b.st.Contains(h) }
func (b storeBackend) JobPayload(h core.Handle) []proto.PushedObject {
	return b.st.JobPayload(h)
}
func (b storeBackend) AbsorbPayload(objs []proto.PushedObject) {
	for _, p := range objs {
		_ = b.st.PutObject(p.Handle, p.Data)
	}
}

// TestCollapseBeatsNoCache is the cache's acceptance check at the HTTP
// layer: K concurrent submissions of an identical thunk reach the backend
// exactly once, stats report K−1 hits/collapsed waiters, and the same
// herd against a no-cache gateway costs K evaluations, never more than
// MaxInFlight at once, so it needs at least K/MaxInFlight rounds of the
// backend's delay where the cached herd needs one.
func TestCollapseBeatsNoCache(t *testing.T) {
	const K = 32
	const delay = 20 * time.Millisecond
	th := key(7) // any encode handle

	herd := func(c *Client) time.Duration {
		ctx := context.Background()
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < K; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := c.Submit(ctx, th)
				if err != nil {
					t.Errorf("submit: %v", err)
				} else if res.Result != core.LiteralU64(42) {
					t.Errorf("result = %v", res.Result)
				}
			}()
		}
		wg.Wait()
		return time.Since(start)
	}

	// Cached gateway: one backend evaluation, K−1 collapsed/hit.
	cachedBack := &slowBackend{storeBackend: storeBackend{store.New()}, delay: delay}
	cachedSrv, cachedClient := newTestGateway(t, Options{
		Backend: cachedBack, CacheEntries: 64, MaxInFlight: 4, MaxQueue: K,
	})
	cachedElapsed := herd(cachedClient)
	if got := cachedBack.evals.Load(); got != 1 {
		t.Errorf("cached gateway: backend evaluations = %d, want exactly 1", got)
	}
	st := cachedSrv.Stats()
	if st.Cache.Misses != 1 || st.Cache.Hits+st.Cache.Collapsed != K-1 {
		t.Errorf("cache stats = %+v, want 1 miss and %d hits+collapsed", st.Cache, K-1)
	}

	// No-cache gateway: every submission pays, throttled by admission.
	plainBack := &slowBackend{storeBackend: storeBackend{store.New()}, delay: delay}
	_, plainClient := newTestGateway(t, Options{
		Backend: plainBack, CacheEntries: 0, MaxInFlight: 4, MaxQueue: K,
	})
	plainElapsed := herd(plainClient)
	if got := plainBack.evals.Load(); got != K {
		t.Errorf("no-cache gateway: backend evaluations = %d, want %d", got, K)
	}

	// Counted, not timed: K evaluations through at most 4 concurrent
	// slots are at least K/4 sequential rounds of the delay.
	if peak := plainBack.peak.Load(); peak < 1 || peak > 4 {
		t.Errorf("no-cache gateway: peak concurrent evaluations = %d, want 1..MaxInFlight (4)", peak)
	}
	t.Logf("herd of %d identical jobs: cached %v, no-cache %v (%d evaluations, ≤ %d at once)",
		K, cachedElapsed, plainElapsed, plainBack.evals.Load(), plainBack.peak.Load())
}

// TestLeaderDisconnectDoesNotKillFlight: the client that happens to lead
// a collapsed evaluation may vanish; the waiters riding its flight must
// still get the answer.
func TestLeaderDisconnectDoesNotKillFlight(t *testing.T) {
	back := &slowBackend{storeBackend: storeBackend{store.New()}, delay: 150 * time.Millisecond}
	_, c := newTestGateway(t, Options{Backend: back, CacheEntries: 16})
	th := key(9)

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, err := c.Submit(leaderCtx, th)
		leaderDone <- err
	}()
	// Let the leader start its flight, join it, then kill the leader.
	time.Sleep(30 * time.Millisecond)
	waiterDone := make(chan error, 1)
	go func() {
		res, err := c.Submit(context.Background(), th)
		if err == nil && res.Result != core.LiteralU64(42) {
			err = fmt.Errorf("wrong result %v", res.Result)
		}
		waiterDone <- err
	}()
	time.Sleep(30 * time.Millisecond)
	cancelLeader()

	if err := <-leaderDone; err == nil {
		t.Error("leader should observe its own cancellation")
	}
	if err := <-waiterDone; err != nil {
		t.Errorf("waiter should survive the leader's disconnect, got %v", err)
	}
}

// panicBackend blows up on Eval — a stand-in for a buggy native
// function.
type panicBackend struct{ storeBackend }

func (b *panicBackend) Eval(ctx context.Context, h core.Handle) (core.Handle, error) {
	panic("boom")
}

// TestEvalPanicDoesNotWedgeFlight: a panicking evaluation must tear its
// flight down so later submissions of the same handle don't block on a
// dead channel forever.
func TestEvalPanicDoesNotWedgeFlight(t *testing.T) {
	_, c := newTestGateway(t, Options{Backend: &panicBackend{storeBackend{store.New()}}, CacheEntries: 16})
	th := key(11)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		done := make(chan error, 1)
		go func() {
			_, err := c.Submit(ctx, th)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("submission %d: expected an error from the panicking backend", i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("submission %d wedged on a dead flight", i)
		}
	}
}

func TestAdmissionSheds429(t *testing.T) {
	back := &slowBackend{storeBackend: storeBackend{store.New()}, delay: 200 * time.Millisecond}
	srv, c := newTestGateway(t, Options{Backend: back, MaxInFlight: 1, MaxQueue: 1})
	ctx := context.Background()

	// Distinct jobs so nothing collapses: 1 runs, 1 queues, rest shed.
	const K = 6
	var rejected atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := c.Submit(ctx, key(uint64(100+i)))
			if err != nil {
				if !IsOverloaded(err) {
					t.Errorf("job %d: %v, want 429", i, err)
				}
				rejected.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if got := rejected.Load(); got != K-2 {
		t.Errorf("rejected = %d, want %d (1 running + 1 queued admitted)", got, K-2)
	}
	if st := srv.Stats(); st.Admission.Rejected != uint64(K-2) {
		t.Errorf("admission stats = %+v", st.Admission)
	}
}

// TestGatewayOverCluster runs the gateway against a real two-node
// cluster: uploads land on the gateway's client-only node, the worker
// executes, and K concurrent identical submissions cost one cluster
// evaluation (counted inside the worker's native function).
func TestGatewayOverCluster(t *testing.T) {
	var workerEvals atomic.Int64
	reg := runtime.NewRegistry()
	reg.RegisterFunc("slowdouble", func(api core.API, input core.Handle) (core.Handle, error) {
		workerEvals.Add(1)
		time.Sleep(10 * time.Millisecond)
		entries, err := api.AttachTree(input)
		if err != nil {
			return core.Handle{}, err
		}
		b, err := api.AttachBlob(entries[2])
		if err != nil {
			return core.Handle{}, err
		}
		v, _ := core.DecodeU64(b)
		return api.CreateBlob(core.LiteralU64(2 * v).LiteralData()), nil
	})

	edge := cluster.NewNode("edge", cluster.NodeOptions{Cores: 1, ClientOnly: true})
	worker := cluster.NewNode("worker", cluster.NodeOptions{Cores: 4, Registry: reg})
	defer edge.Close()
	defer worker.Close()
	cluster.Connect(edge, worker, transport.LinkConfig{Latency: 200 * time.Microsecond})

	srv, c := newTestGateway(t, Options{Backend: edge, CacheEntries: 64})
	ctx := context.Background()

	fn, err := c.PutBlob(ctx, core.NativeFunctionBlob("slowdouble"))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := c.PutTree(ctx, core.InvocationTree(core.DefaultLimits.Handle(), fn, core.LiteralU64(21)))
	if err != nil {
		t.Fatal(err)
	}
	th, _ := core.Application(tree)

	const K = 16
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := c.SubmitFetch(ctx, th)
			if err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			if v, _ := core.DecodeU64(res.Data); v != 42 {
				t.Errorf("slowdouble(21) = %d, want 42", v)
			}
		}()
	}
	wg.Wait()

	if got := workerEvals.Load(); got != 1 {
		t.Errorf("worker evaluations = %d, want exactly 1 (edge collapse)", got)
	}
	st := srv.Stats()
	if st.Cache.Misses != 1 || st.Cache.Hits+st.Cache.Collapsed != K-1 {
		t.Errorf("cache stats = %+v, want 1 miss and %d hits+collapsed", st.Cache, K-1)
	}
}

// fatalBackend fails the test if any submission reaches the backend.
type fatalBackend struct {
	t *testing.T
}

func (b *fatalBackend) Eval(ctx context.Context, h core.Handle) (core.Handle, error) {
	b.t.Error("backend.Eval called; warmed cache should have answered")
	return core.Handle{}, fmt.Errorf("unexpected eval")
}
func (b *fatalBackend) PutBlobOwned(h core.Handle, data []byte) core.Handle { return h }
func (b *fatalBackend) PutTree(entries []core.Handle) (core.Handle, error) {
	return core.TreeHandle(entries), nil
}
func (b *fatalBackend) ObjectBytes(ctx context.Context, h core.Handle) ([]byte, error) {
	return nil, fmt.Errorf("not resident")
}
func (b *fatalBackend) ResolvableHint(h core.Handle) bool             { return h.IsLiteral() }
func (b *fatalBackend) JobPayload(h core.Handle) []proto.PushedObject { return nil }
func (b *fatalBackend) AbsorbPayload(objs []proto.PushedObject)       {}

// TestUploadBodyLimits: every ingestion endpoint bounds its request body
// — an oversized upload draws 413, not an unbounded read into memory.
func TestUploadBodyLimits(t *testing.T) {
	srv, err := NewServer(Options{
		Backend:      NewEngineBackend(runtime.New(store.New(), runtime.Options{Cores: 1})),
		MaxBlobBytes: 1 << 10,
		MaxJSONBytes: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(path string, body []byte) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}

	// In-bounds uploads succeed.
	if code := post("/v1/blobs", bytes.Repeat([]byte("x"), 1<<10)); code != http.StatusOK {
		t.Fatalf("blob at limit: status %d", code)
	}
	// One byte over: 413.
	if code := post("/v1/blobs", bytes.Repeat([]byte("x"), 1<<10+1)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized blob: status %d, want 413", code)
	}
	// Oversized JSON on the tree endpoint: 413, not an OOM-able read.
	bigJSON := []byte(`{"entries":["` + strings.Repeat("ab", 600) + `"]}`)
	if code := post("/v1/trees", bigJSON); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized tree request: status %d, want 413", code)
	}
	// Oversized JSON on the jobs endpoint: 413 as well.
	bigJob := []byte(`{"handle":"` + strings.Repeat("cd", 600) + `"}`)
	if code := post("/v1/jobs", bigJob); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized job request: status %d, want 413", code)
	}
	// Valid small requests on the JSON endpoints still flow (malformed
	// handle is a 400, proving the body was read and parsed).
	if code := post("/v1/jobs", []byte(`{"handle":"zz"}`)); code != http.StatusBadRequest {
		t.Fatalf("small bad job: status %d, want 400", code)
	}
}
