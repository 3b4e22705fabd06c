package gateway

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"fixgo/internal/core"
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
