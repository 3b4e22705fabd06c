package obsv

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"regexp"
	"sync"
	"testing"
	"time"
)

func TestTraceSpansAndView(t *testing.T) {
	tr := NewTracer(16, nil)
	tc := tr.Start("sync")
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(tc.ID) {
		t.Fatalf("trace id %q not 16 hex digits", tc.ID)
	}
	sp := tc.StartSpan("cache_lookup", "")
	time.Sleep(time.Millisecond)
	sp.End()
	tc.AddSpanAt("remote_eval", "w1", time.Now().Add(-2*time.Millisecond), 2*time.Millisecond)
	tc.SetOutcome("miss")
	tr.Finish(tc)

	v, ok := tr.Get(tc.ID)
	if !ok {
		t.Fatal("finished trace not retained")
	}
	if v.Outcome != "miss" || v.Op != "sync" {
		t.Fatalf("view = %+v", v)
	}
	if len(v.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(v.Spans))
	}
	for _, sp := range v.Spans {
		if sp.DurNS <= 0 {
			t.Fatalf("span %q has zero duration", sp.Name)
		}
	}
	if v.TotalNS <= 0 {
		t.Fatal("total duration zero")
	}
}

func TestTracerNilSafety(t *testing.T) {
	var tr *Tracer
	tc := tr.Start("x") // nil tracer → nil trace
	if tc != nil {
		t.Fatal("nil tracer minted a trace")
	}
	// Every instrumentation call must be a no-op on nil.
	tc.StartSpan("a", "").End()
	tc.AddSpanAt("b", "", time.Now(), time.Millisecond)
	tc.AddSpanDur("c", "", time.Millisecond)
	tc.SetOutcome("ok")
	tr.Finish(tc)
	if _, ok := tr.Get("deadbeef"); ok {
		t.Fatal("nil tracer returned a trace")
	}
	if d := tr.Slowest(5); d.Retained != 0 {
		t.Fatal("nil tracer returned a digest")
	}
	ctx := WithTrace(context.Background(), nil)
	if FromContext(ctx) != nil {
		t.Fatal("nil trace attached to context")
	}
}

func TestTraceContextRoundTrip(t *testing.T) {
	tr := NewTracer(16, nil)
	tc := tr.Start("sync")
	ctx := WithTrace(context.Background(), tc)
	if FromContext(ctx) != tc {
		t.Fatal("context round-trip lost the trace")
	}
	// Must survive WithoutCancel — the gateway's single-flight detaches
	// the fill from the caller's cancellation this way.
	if FromContext(context.WithoutCancel(ctx)) != tc {
		t.Fatal("WithoutCancel dropped the trace")
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(16, nil)
	ids := make([]string, 20)
	for i := range ids {
		tc := tr.Start("sync")
		ids[i] = tc.ID
		tr.Finish(tc)
	}
	// Oldest 4 evicted, newest 16 retained.
	for _, id := range ids[:4] {
		if _, ok := tr.Get(id); ok {
			t.Fatalf("evicted trace %s still retained", id)
		}
	}
	for _, id := range ids[4:] {
		if _, ok := tr.Get(id); !ok {
			t.Fatalf("recent trace %s missing", id)
		}
	}
	if d := tr.Slowest(100); d.Retained != 16 {
		t.Fatalf("retained = %d, want 16", d.Retained)
	}
}

func TestSlowestDigestOrdersAndStages(t *testing.T) {
	r := NewRegistry()
	stages := r.HistogramVec("fixgate_stage_seconds", "per-stage latency", "stage")
	tr := NewTracer(16, stages)

	slow := tr.StartAt("sync", time.Now().Add(-50*time.Millisecond))
	slow.AddSpanDur("backend_eval", "", 40*time.Millisecond)
	tr.Finish(slow)
	fast := tr.StartAt("sync", time.Now().Add(-time.Millisecond))
	fast.AddSpanDur("cache_lookup", "", 500*time.Microsecond)
	tr.Finish(fast)

	d := tr.Slowest(1)
	if d.Retained != 2 || len(d.Slowest) != 1 {
		t.Fatalf("digest = %+v", d)
	}
	if d.Slowest[0].ID != slow.ID {
		t.Fatal("digest did not rank the slow trace first")
	}
	if len(d.Stages) != 2 {
		t.Fatalf("stage quantiles = %d, want 2", len(d.Stages))
	}
	for _, s := range d.Stages {
		if s.Count != 1 || s.P50NS <= 0 || s.P99NS < s.P50NS {
			t.Fatalf("stage %+v malformed", s)
		}
	}
}

func TestDebugMuxServesTraceAndMetrics(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("fixgate_test_gauge", "x", func() float64 { return 1 })
	tr := NewTracer(16, nil)
	tc := tr.Start("sync")
	tc.AddSpanDur("gateway", "", time.Millisecond)
	tr.Finish(tc)
	mux := DebugMux(r, tr)

	// /metrics with the pinned exposition content type.
	rw := httptest.NewRecorder()
	mux.ServeHTTP(rw, httptest.NewRequest("GET", "/metrics", nil))
	if rw.Code != 200 || rw.Header().Get("Content-Type") != ContentType {
		t.Fatalf("metrics: code=%d ct=%q", rw.Code, rw.Header().Get("Content-Type"))
	}

	// /v1/trace/{id}
	rw = httptest.NewRecorder()
	mux.ServeHTTP(rw, httptest.NewRequest("GET", "/v1/trace/"+tc.ID, nil))
	if rw.Code != 200 {
		t.Fatalf("trace get: %d %s", rw.Code, rw.Body.String())
	}
	var v TraceView
	if err := json.Unmarshal(rw.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	if v.ID != tc.ID || len(v.Spans) != 1 {
		t.Fatalf("trace view = %+v", v)
	}

	// Unknown id → 404.
	rw = httptest.NewRecorder()
	mux.ServeHTTP(rw, httptest.NewRequest("GET", "/v1/trace/ffffffffffffffff", nil))
	if rw.Code != 404 {
		t.Fatalf("missing trace: %d", rw.Code)
	}

	// Digest with bounds checking.
	rw = httptest.NewRecorder()
	mux.ServeHTTP(rw, httptest.NewRequest("GET", "/v1/trace?slowest=5", nil))
	if rw.Code != 200 {
		t.Fatalf("digest: %d", rw.Code)
	}
	var d Digest
	if err := json.Unmarshal(rw.Body.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if d.Retained != 1 {
		t.Fatalf("digest = %+v", d)
	}
	rw = httptest.NewRecorder()
	mux.ServeHTTP(rw, httptest.NewRequest("GET", "/v1/trace?slowest=bogus", nil))
	if rw.Code != 400 {
		t.Fatalf("bad slowest: %d", rw.Code)
	}

	// pprof index responds.
	rw = httptest.NewRecorder()
	mux.ServeHTTP(rw, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rw.Code != 200 {
		t.Fatalf("pprof: %d", rw.Code)
	}
}

func TestTraceConcurrentSpansWhileDigesting(t *testing.T) {
	r := NewRegistry()
	stages := r.HistogramVec("fixgate_stage_seconds", "per-stage latency", "stage")
	tr := NewTracer(64, stages)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			tr.Slowest(10)
		}
	}()
	const writers = 4
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func() {
			defer ww.Done()
			for i := 0; i < 200; i++ {
				tc := tr.Start("sync")
				sp := tc.StartSpan("gateway", "")
				tc.AddSpanDur("cache_lookup", "", 100*time.Microsecond)
				sp.End()
				tr.Finish(tc)
			}
		}()
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	if d := tr.Slowest(100); d.Retained != 64 {
		t.Fatalf("retained = %d, want full ring", d.Retained)
	}
}
