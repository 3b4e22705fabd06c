package gateway

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"fixgo/internal/core"
	"fixgo/internal/runtime"
	"fixgo/internal/store"
)

// TestPoolNoLiveReferences is the buffer pool's safety contract: no
// handler may hand out bytes that alias a pooled buffer. The backend
// retains every uploaded blob's bytes, so if /v1/blobs passed its
// pooled slurp buffer through instead of copying, a later request
// reusing that buffer would corrupt an earlier upload (and trip -race).
// Many goroutines upload distinct payloads concurrently, then every
// retained blob must still equal what was sent.
func TestPoolNoLiveReferences(t *testing.T) {
	_, c := newTestGateway(t, Options{CacheEntries: 16})
	ctx := context.Background()
	const G, N = 8, 40

	type upload struct {
		h       core.Handle
		payload []byte
	}
	uploads := make([][]upload, G)
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < N; i++ {
				// Payloads big enough to defeat literal-handle inlining,
				// distinct per (goroutine, iteration).
				payload := bytes.Repeat([]byte(fmt.Sprintf("g%02d-i%03d-", g, i)), 16)
				h, err := c.PutBlob(ctx, payload)
				if err != nil {
					t.Errorf("upload g%d i%d: %v", g, i, err)
					return
				}
				uploads[g] = append(uploads[g], upload{h: h, payload: payload})
			}
		}(g)
	}
	wg.Wait()
	for g := range uploads {
		for i, u := range uploads[g] {
			data, err := c.BlobBytes(ctx, u.h)
			if err != nil {
				t.Fatalf("readback g%d i%d: %v", g, i, err)
			}
			if !bytes.Equal(data, u.payload) {
				t.Fatalf("blob g%d i%d corrupted: a pooled buffer escaped to the backend", g, i)
			}
		}
	}
}

// TestPoolDropsOversizeBuffers: a buffer grown past maxPooledBuf is not
// recycled (one huge upload must not pin megabytes in the pool), and
// recycled buffers always come back empty.
func TestPoolDropsOversizeBuffers(t *testing.T) {
	big := getBuf()
	big.Grow(maxPooledBuf + 1)
	if big.Cap() <= maxPooledBuf {
		t.Fatalf("Grow gave cap %d, want > %d", big.Cap(), maxPooledBuf)
	}
	putBuf(big) // must drop, not panic

	small := getBuf()
	small.WriteString("residue")
	putBuf(small)
	reused := getBuf()
	defer putBuf(reused)
	if reused.Len() != 0 {
		t.Fatalf("pooled buffer came back non-empty (%d bytes)", reused.Len())
	}
}

// TestPoolAllocsPerRequest pins the hot path's allocation budget: a
// cache-hit /v1/jobs submission served straight from the handler (no
// network, no backend) must stay under a fixed allocations-per-request
// ceiling. Pooling the body and reply buffers, framing the JSON by hand
// and a two-allocation trace are what keep this low; a regression that
// re-introduces per-request buffer or encoder churn trips the bound.
//
// What one warm gateway hit allocates end to end, SDK and net/http
// included, and what no longer does:
//
// One SDK Submit answered from the result cache, over loopback HTTP with
// gateway_warm's server options, allocates 92 times
// (BenchmarkWarmHitLoopback; 126 before the warm path's JSON was framed
// by hand). BENCHMARKS.md ("The gateway hop, per layer") has the split
// and how it is read. What is left, and who owns it:
//
//   - The SDK's own 3 (TestAllocsClientSubmit pins the SDK side at 13
//     with these and the two rows below): the request body, its
//     bytes.Reader, and the header map's first entry. The body cannot be
//     pooled: a RoundTripper may still read it after RoundTrip returns.
//     The reader must be a *bytes.Reader, or NewRequestWithContext would
//     not know the Content-Length and the request would go out chunked.
//   - http.NewRequestWithContext, 5: the Request, its header map, the
//     parsed URL, the body's NopCloser and its GetBody.
//   - http.Client.Do, 5: the header copy it keeps for redirects and its
//     send state. The rest of client-side net/http (the connection's
//     read and write loops, the response and its header parse) is about
//     45.
//   - Server-side net/http, 20: the request, its header parse, URL and
//     context, the response and its buffers.
//   - The handler's 10 (TestPoolAllocsPerRequest pins the handler plus
//     its httptest fixture at ≤ 26): net/http copies the handler's
//     header map at WriteHeader once the handler has touched it (3); the
//     X-Fix-Trace value and the header map's first entry (2);
//     MaxBytesReader, which keeps the 413 bound (1); net/http's
//     background read once the body is consumed (1); the trace, which is
//     its Trace with four inline spans and its ID string (2); and
//     WithTrace's context (1).
//
// What no longer allocates: the four JSON shapes on the warm path
// (JobRequest, JobReply, TreeRequest, HandleReply) are written by append
// functions into pooled buffers and read in place (gateway/wire.go); a
// Handle's 64 digits go through core.AppendHandle and
// core.ParseHandleBytes; the Content-Type and tenant header values are
// shared slices; a reply under 1 KiB leaves its Content-Length to
// net/http, which formats it into the connection's own buffer;
// wantsAsync returns at once on a request with no query and no Prefer; a
// hit returns before Do, so neither the flight closure nor the detached
// flight context is built; and Tracer.Finish feeds the stage histograms
// from the spans in place.
//
// The hand framing changes no byte of a body. Each append function
// writes exactly what encoding/json writes for its shape, and each
// reader accepts exactly that form (fields in order, no whitespace or
// escapes, omitted rather than empty omitempty fields, at most one
// trailing newline). Every other body, valid JSON or not, goes through
// encoding/json as before, so its errors and the 400/413 replies read as
// they did. FuzzWireJSON pins both directions against encoding/json.
// JobStatusReply is the fifth framed shape (TestAllocsClientAsync). Batch bodies,
// the GET /v1/jobs list and SSE event data stay on encoding/json.
func TestPoolAllocsPerRequest(t *testing.T) {
	srv, err := NewServer(Options{Backend: &fatalBackend{t: t}, CacheEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	result := core.BlobHandle([]byte("pooled-hot-path-result-payload"))
	thunk, err := core.Identification(result)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := core.Strict(thunk)
	if err != nil {
		t.Fatal(err)
	}
	srv.cache.warm(enc.AsObject(), result)

	body := []byte(`{"handle":"` + core.FormatHandle(enc) + `"}`)
	h := srv.Handler()
	do := func() {
		req := httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != 200 {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
	do() // prime pools and the mux

	allocs := testing.AllocsPerRun(300, do)
	t.Logf("cache-hit /v1/jobs: %.1f allocs/request", allocs)
	// It reads 24: the fixture (NewRequest, NewRecorder and their header
	// maps) about 14, the handler 10 (the doc comment has the handler's
	// rows). A -race build reads 27.
	limit := 26.0
	if raceEnabled {
		limit = 29
	}
	if allocs > limit {
		t.Errorf("cache-hit submission costs %.1f allocs/request, want ≤ %v", allocs, limit)
	}
}

// BenchmarkSubmitHit measures the full handler path for a cache-hit
// submission — the row the buffer pool optimizes.
func BenchmarkSubmitHit(b *testing.B) {
	st := store.New()
	srv, err := NewServer(Options{
		Backend:      NewEngineBackend(runtime.New(st, runtime.Options{Cores: 1})),
		CacheEntries: 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	result := core.BlobHandle([]byte("bench-result"))
	thunk, _ := core.Identification(result)
	enc, _ := core.Strict(thunk)
	srv.cache.warm(enc.AsObject(), result)
	body := []byte(`{"handle":"` + core.FormatHandle(enc) + `"}`)
	h := srv.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != 200 {
			b.Fatalf("status %d", w.Code)
		}
	}
}
