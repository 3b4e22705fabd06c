package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fixgo/internal/core"
	"fixgo/internal/store"
)

func TestBatchEmptyRejected(t *testing.T) {
	_, c := newTestGateway(t, Options{CacheEntries: 64})
	_, err := c.SubmitBatch(context.Background(), nil)
	se, ok := err.(*StatusError)
	if !ok || se.Code != http.StatusBadRequest {
		t.Fatalf("empty batch: err = %v, want 400", err)
	}
}

func TestBatchOversizedRejected(t *testing.T) {
	_, c := newTestGateway(t, Options{CacheEntries: 64, MaxBatchItems: 4})
	hs := make([]core.Handle, 5)
	for i := range hs {
		hs[i] = key(uint64(i))
	}
	_, err := c.SubmitBatch(context.Background(), hs)
	se, ok := err.(*StatusError)
	if !ok || se.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("5-item batch over a 4-item limit: err = %v, want 413", err)
	}
	// At the limit it flows.
	if _, err := c.SubmitBatch(context.Background(), hs[:4]); err != nil {
		t.Fatalf("4-item batch at the limit: %v", err)
	}
}

// TestBatchMalformedItemIsolated: one malformed handle fails its own
// item; its neighbors still evaluate.
func TestBatchMalformedItemIsolated(t *testing.T) {
	srv, c := newTestGateway(t, Options{CacheEntries: 64})
	th := addJob(t, c, 40, 2)

	body, _ := json.Marshal(BatchRequest{Items: []BatchItem{
		{Handle: core.FormatHandle(th)},
		{Handle: "zz-not-a-handle"},
		{Handle: core.FormatHandle(core.LiteralU64(5))}, // data evaluates to itself
	}})
	resp, err := http.Post(c.base+"/v1/jobs:batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 with per-item errors", resp.StatusCode)
	}
	var reply BatchReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	if len(reply.Items) != 3 {
		t.Fatalf("reply has %d items, want 3", len(reply.Items))
	}
	if reply.Items[0].Error != "" || reply.Items[0].Result == "" {
		t.Errorf("item 0 (valid thunk) = %+v, want a result", reply.Items[0])
	}
	if reply.Items[1].Error == "" || reply.Items[1].Result != "" {
		t.Errorf("item 1 (malformed) = %+v, want an error", reply.Items[1])
	}
	if reply.Items[2].Error != "" || reply.Items[2].Result != core.FormatHandle(core.LiteralU64(5)) {
		t.Errorf("item 2 (data) = %+v, want itself", reply.Items[2])
	}
	st := srv.Stats()
	if st.Batch.Requests != 1 || st.Batch.Items != 3 {
		t.Errorf("batch stats = %+v, want 1 request / 3 items", st.Batch)
	}
	if st.JobsFail != 1 {
		t.Errorf("jobs failed = %d, want 1 (the malformed item)", st.JobsFail)
	}
}

// TestBatchShedsSingle429: a batch arriving while admission is saturated
// draws one whole-batch 429 — a single decision, not N — and the
// flights it reserved are torn down so the same handles evaluate fine
// once load drains.
func TestBatchShedsSingle429(t *testing.T) {
	back := &slowBackend{st: store.New(), delay: 300 * time.Millisecond}
	_, c := newTestGateway(t, Options{
		Backend: back, CacheEntries: 64, MaxInFlight: 1, MaxQueue: 1,
	})
	ctx := context.Background()

	// Saturate: one submission runs, one queues.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.Submit(ctx, key(uint64(500+i))); err != nil {
				t.Errorf("saturating submit %d: %v", i, err)
			}
		}(i)
	}
	time.Sleep(50 * time.Millisecond)

	batch := []core.Handle{key(600), key(601), key(602)}
	_, err := c.SubmitBatch(ctx, batch)
	if !IsOverloaded(err) {
		t.Fatalf("batch under saturation: err = %v, want 429", err)
	}
	wg.Wait()

	// The shed batch's reserved flights must have been published with
	// the error; a retry must evaluate, not wedge on dead flights.
	done := make(chan struct{})
	go func() {
		defer close(done)
		results, err := c.SubmitBatch(ctx, batch)
		if err != nil {
			t.Errorf("retry after shed: %v", err)
			return
		}
		for i, r := range results {
			if r.Err != nil || r.Result != core.LiteralU64(42) {
				t.Errorf("retry item %d = %+v", i, r)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("retry after a shed batch wedged: flights were not published")
	}
}

// TestBatchSDKOrdering pins the wire contract the SDK relies on:
// results come back per item, in submission order, duplicates included.
func TestBatchSDKOrdering(t *testing.T) {
	srv, c := newTestGateway(t, Options{CacheEntries: 64})
	ctx := context.Background()

	// A mix: distinct thunks, a duplicate, and raw data, interleaved.
	th1 := addJob(t, c, 10, 1) // 11
	th2 := addJob(t, c, 20, 2) // 22
	th3 := addJob(t, c, 30, 3) // 33
	hs := []core.Handle{th1, core.LiteralU64(7), th2, th1, th3}

	results, err := c.SubmitBatch(ctx, hs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(hs) {
		t.Fatalf("got %d results for %d items", len(results), len(hs))
	}
	fetch := func(i int) uint64 {
		t.Helper()
		if results[i].Err != nil {
			t.Fatalf("item %d: %v", i, results[i].Err)
		}
		data, err := c.BlobBytes(ctx, results[i].Result)
		if err != nil {
			t.Fatalf("item %d fetch: %v", i, err)
		}
		v, _ := core.DecodeU64(data)
		return v
	}
	for i, want := range []uint64{11, 7, 22, 11, 33} {
		if got := fetch(i); got != want {
			t.Errorf("item %d = %d, want %d", i, got, want)
		}
	}
	// The duplicate of th1 must agree with its first occurrence and must
	// not have cost a second evaluation (hit or collapsed).
	if results[3].Result != results[0].Result {
		t.Errorf("duplicate item result %v != first occurrence %v", results[3].Result, results[0].Result)
	}
	if results[3].Outcome != OutcomeHit && results[3].Outcome != OutcomeCollapsed {
		t.Errorf("duplicate item outcome = %v, want hit or collapsed", results[3].Outcome)
	}
	// Batch results agree with the single-submit path.
	single, err := c.Submit(ctx, th2)
	if err != nil {
		t.Fatal(err)
	}
	if single.Outcome != OutcomeHit || single.Result != results[2].Result {
		t.Errorf("single resubmit of th2 = %+v, want hit agreeing with batch item 2", single)
	}
	if st := srv.Stats(); st.Batch.Requests != 1 || st.Batch.Items != 5 {
		t.Errorf("batch stats = %+v", st.Batch)
	}
}

// TestBatchDuplicatesCollapse: K copies of one thunk in a single batch
// cost exactly one backend evaluation — the batch collapses onto the
// first occurrence's flight just like concurrent single submissions do.
func TestBatchDuplicatesCollapse(t *testing.T) {
	back := &slowBackend{st: store.New(), delay: 30 * time.Millisecond}
	srv, c := newTestGateway(t, Options{Backend: back, CacheEntries: 64, MaxInFlight: 4})
	const K = 12
	hs := make([]core.Handle, K)
	for i := range hs {
		hs[i] = key(777)
	}
	results, err := c.SubmitBatch(context.Background(), hs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil || r.Result != core.LiteralU64(42) {
			t.Fatalf("item %d = %+v", i, r)
		}
	}
	if got := back.evals.Load(); got != 1 {
		t.Errorf("backend evaluations = %d, want exactly 1", got)
	}
	st := srv.Stats()
	if st.Cache.Misses != 1 || st.Cache.Collapsed != K-1 {
		t.Errorf("cache stats = %+v, want 1 miss and %d collapsed", st.Cache, K-1)
	}
}

// overlapBackend holds each evaluation until two are in flight at once
// (or a second passes), so a concurrent fan-out is observed rather than
// inferred from wall time.
type overlapBackend struct {
	slowBackend
	mu         sync.Mutex
	cur, peak  int
	overlapped chan struct{}
}

func (b *overlapBackend) Eval(ctx context.Context, h core.Handle) (core.Handle, error) {
	b.mu.Lock()
	b.cur++
	if b.cur > b.peak {
		b.peak = b.cur
		if b.peak == 2 {
			close(b.overlapped)
		}
	}
	b.mu.Unlock()
	select {
	case <-b.overlapped:
	case <-time.After(time.Second):
	}
	b.mu.Lock()
	b.cur--
	b.mu.Unlock()
	return b.slowBackend.Eval(ctx, h)
}

// TestBatchColdItemsFanOutUnderOneSlot: a batch of distinct cold handles
// takes one admission slot, not one per item, and its items reach the
// backend concurrently — each exactly once.
func TestBatchColdItemsFanOutUnderOneSlot(t *testing.T) {
	back := &overlapBackend{slowBackend: slowBackend{st: store.New()}, overlapped: make(chan struct{})}
	srv, c := newTestGateway(t, Options{Backend: back, CacheEntries: 64, MaxInFlight: 1})
	const K = 8
	hs := make([]core.Handle, K)
	for i := range hs {
		hs[i] = key(uint64(900 + i))
	}
	results, err := c.SubmitBatch(context.Background(), hs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil || r.Result != core.LiteralU64(42) || r.Outcome != OutcomeMiss {
			t.Fatalf("item %d = %+v", i, r)
		}
	}
	if got := back.evals.Load(); got != K {
		t.Errorf("backend evaluations = %d, want exactly %d", got, K)
	}
	if back.peak < 2 {
		t.Errorf("peak backend concurrency = %d: the batch was evaluated serially", back.peak)
	}
	if st := srv.Stats(); st.Admission.Admitted != 1 || st.Cache.Misses != K {
		t.Errorf("admitted %d slots for %d misses, want 1 slot for %d", st.Admission.Admitted, st.Cache.Misses, K)
	}
}

// blockingBackend parks every evaluation until its context is cancelled
// (or the test releases it), then takes a moment to unwind — long enough
// that a Close which does not wait for it returns first.
type blockingBackend struct {
	slowBackend
	entered  chan struct{} // one send per evaluation that reached the backend
	release  chan struct{} // closed when the test ends, so a failure leaks nothing
	unwound  atomic.Int64  // evaluations that returned
	canceled atomic.Int64  // of those, how many saw their context cancelled
}

func (b *blockingBackend) Eval(ctx context.Context, h core.Handle) (core.Handle, error) {
	defer b.unwound.Add(1)
	b.entered <- struct{}{}
	select {
	case <-ctx.Done():
		b.canceled.Add(1)
		time.Sleep(50 * time.Millisecond)
		return core.Handle{}, ctx.Err()
	case <-b.release:
		return core.LiteralU64(42), nil
	}
}

// TestCloseCancelsAndAwaitsBatchFlights: a batch-led flight is bounded by
// the server's lifetime exactly as a single submission's is. Close
// cancels the backend's context and returns only after the evaluations
// unwound — so on a replicated edge no batch evaluation (and no async job
// collapsed onto one) is still executing when the Leave goes out.
func TestCloseCancelsAndAwaitsBatchFlights(t *testing.T) {
	const K = 3
	back := &blockingBackend{
		slowBackend: slowBackend{st: store.New()},
		entered:     make(chan struct{}, K),
		release:     make(chan struct{}),
	}
	srv, c := newTestGateway(t, Options{Backend: back, CacheEntries: 64})
	// Registered after the HTTP server's own cleanup, so it runs before
	// it: httptest's Close waits for the batch request to finish.
	t.Cleanup(func() { close(back.release) })
	hs := make([]core.Handle, K)
	for i := range hs {
		hs[i] = key(uint64(7700 + i))
	}
	replied := make(chan []BatchResult, 1)
	go func() {
		results, _ := c.SubmitBatch(context.Background(), hs)
		replied <- results
	}()
	for i := 0; i < K; i++ {
		select {
		case <-back.entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d batch items reached the backend", i, K)
		}
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := back.canceled.Load(); got != K {
		t.Errorf("Close cancelled %d of %d batch evaluations", got, K)
	}
	if got := back.unwound.Load(); got != K {
		t.Errorf("Close returned with %d of %d batch evaluations unwound", got, K)
	}
	select {
	case results := <-replied:
		for i, r := range results {
			if r.Err == nil {
				t.Errorf("item %d = %+v, want the cancellation error", i, r)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the batch request never answered after Close")
	}
}
