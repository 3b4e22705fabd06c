package gateway

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"fixgo/internal/core"
	"fixgo/internal/jobs"
)

// warmHit returns a Strict encode and its result, for a server to Warm so
// that submitting the encode is a cache hit.
func warmHit(tb testing.TB) (enc, result core.Handle) {
	tb.Helper()
	result = core.BlobHandle([]byte("warm-hit-result-payload-over-the-literal-bound"))
	thunk, err := core.Identification(result)
	if err != nil {
		tb.Fatal(err)
	}
	if enc, err = core.Strict(thunk); err != nil {
		tb.Fatal(err)
	}
	return enc, result
}

// BenchmarkWarmHitLoopback is one SDK Submit of a cache hit through
// loopback net/http to the handler and back, with gateway_warm's server
// options (cache 4096, default shards and admission) and a tenant-
// stamping client on a one-connection transport. Run it with
// -memprofile and -memprofilerate=1 to split the allocations per layer
// (BENCHMARKS.md, "The gateway hop, per layer").
func BenchmarkWarmHitLoopback(b *testing.B) {
	srv, err := NewServer(Options{Backend: &fatalBackend{}, CacheEntries: 4096})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	enc, result := warmHit(b)
	srv.cache.warm(enc.AsObject(), result)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	c := NewClient(ts.URL, WithHTTPClient(&http.Client{Transport: tr}), WithTenant("tenant-0"))
	ctx := context.Background()
	if _, err := c.Submit(ctx, enc); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.Submit(ctx, enc)
		if err != nil {
			b.Fatal(err)
		}
		if res.Result != result || res.Outcome != OutcomeHit {
			b.Fatalf("submit = %+v", res)
		}
	}
}

// cannedTransport answers every request with one prepared reply and
// allocates nothing itself: the Response and its body are reused, so an
// AllocsPerRun over a Client call counts only what the SDK (and
// http.Client's own send path) allocate.
type cannedTransport struct {
	resp *http.Response
	body cannedBody
}

type cannedBody struct {
	data []byte
	off  int
}

func (b *cannedBody) Read(p []byte) (int, error) {
	if b.off >= len(b.data) {
		return 0, io.EOF
	}
	n := copy(p, b.data[b.off:])
	b.off += n
	if b.off == len(b.data) {
		return n, io.EOF
	}
	return n, nil
}

func (b *cannedBody) Close() error { return nil }

func newCannedTransport(code int, body []byte) *cannedTransport {
	ct := &cannedTransport{body: cannedBody{data: body}}
	ct.resp = &http.Response{
		StatusCode:    code,
		Header:        http.Header{"Content-Type": {"application/json"}, "Content-Length": {strconv.Itoa(len(body))}},
		ContentLength: int64(len(body)),
		Body:          &ct.body,
	}
	return ct
}

func (ct *cannedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		_, _ = io.Copy(io.Discard, req.Body)
		_ = req.Body.Close()
	}
	ct.body.off = 0
	ct.resp.Request = req
	return ct.resp, nil
}

// TestAllocsClientSubmit pins what one SDK Submit allocates (ROADMAP 2
// Part D). The transport is in-process and allocation-free, so net/http's
// connection machinery is not counted. Of the 13: the SDK's own three
// (the request body, its bytes.Reader, the header map's first entry),
// five in http.NewRequestWithContext (the Request, its header map, the
// URL, the body's NopCloser and GetBody) and five in http.Client.Do
// (the header copy it keeps for redirects, and its send state). The
// reply is read in place from a pooled buffer and allocates nothing.
func TestAllocsClientSubmit(t *testing.T) {
	enc, result := warmHit(t)
	var reply bytes.Buffer
	reply.WriteString(`{"result":"` + core.FormatHandle(result) + `","outcome":"hit","elapsed_ns":1234,"trace":"0123456789abcdef"}` + "\n")
	ct := newCannedTransport(http.StatusOK, reply.Bytes())
	c := NewClient("http://gateway.invalid", WithHTTPClient(&http.Client{Transport: ct}), WithTenant("tenant-0"))
	ctx := context.Background()
	submit := func() {
		res, err := c.Submit(ctx, enc)
		if err != nil {
			t.Fatal(err)
		}
		if res.Result != result || res.Outcome != OutcomeHit || res.Elapsed != 1234 {
			t.Fatalf("submit = %+v", res)
		}
	}
	submit()
	allocs := testing.AllocsPerRun(300, submit)
	t.Logf("SDK Submit: %.1f allocs", allocs)
	if allocs > 13 {
		t.Errorf("SDK Submit costs %.1f allocs, want ≤ 13", allocs)
	}
}

// methodTransport answers each request with the canned reply for its
// method.
type methodTransport map[string]*cannedTransport

func (m methodTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return m[req.Method].RoundTrip(req)
}

// TestAllocsClientAsync pins what the SDK allocates for one async job's
// round trip: SubmitAsync and one WaitJob. The replies are a loopback
// server's own bytes, replayed by an allocation-free transport, so only
// the SDK (and http.Client's send path) is counted. Of the 24, SubmitAsync
// takes Submit's 13 plus the job ID; WaitJob takes its URL, three in
// http.NewRequestWithContext (no body), the header map's first entry and
// http.Client.Do's five. Both replies are read in place; the tenant, the
// states and the ID the wait asked about are shared, not copied.
func TestAllocsClientAsync(t *testing.T) {
	_, live := newAsyncGateway(t, Options{CacheEntries: 64})
	th := addJob(t, live, 40, 2)
	ctx := context.Background()
	js, err := live.SubmitAsync(ctx, th)
	if err != nil {
		t.Fatal(err)
	}
	if js, err = live.AwaitJob(ctx, js.ID); err != nil || js.State != jobs.StateDone {
		t.Fatalf("await = %+v, %v", js, err)
	}
	capture := func(resp *http.Response, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := readJobStatusReply(body); !ok {
			t.Fatalf("server's job status reply is not hand-framed: %q", body)
		}
		return body
	}
	accepted := capture(live.hc.Post(live.asyncURL, "application/json", bytes.NewReader(appendJobRequest(nil, th, false))))
	waited := capture(live.hc.Get(live.jobsURL + "/" + js.ID + "?wait=30s"))

	c := NewClient("http://gateway.invalid", WithTenant(defaultTenant), WithHTTPClient(&http.Client{Transport: methodTransport{
		http.MethodPost: newCannedTransport(http.StatusAccepted, accepted),
		http.MethodGet:  newCannedTransport(http.StatusOK, waited),
	}}))
	round := func() {
		got, err := c.SubmitAsync(ctx, th)
		if err != nil || got.ID != js.ID || !got.Deduped {
			t.Fatalf("SubmitAsync = %+v, %v", got, err)
		}
		if got, err = c.WaitJob(ctx, got.ID, 30*time.Second); err != nil || got.State != jobs.StateDone || got.Result != js.Result {
			t.Fatalf("WaitJob = %+v, %v", got, err)
		}
	}
	round()
	allocs := testing.AllocsPerRun(300, round)
	t.Logf("SDK SubmitAsync + WaitJob: %.1f allocs", allocs)
	limit := 24.0
	if raceEnabled {
		limit = 25 // a race build's sync.Pool drops some puts: the read buffer is remade
	}
	if allocs > limit {
		t.Errorf("SDK SubmitAsync + WaitJob cost %.1f allocs, want ≤ %.0f", allocs, limit)
	}
}
