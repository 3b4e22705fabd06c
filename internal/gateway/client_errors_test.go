package gateway

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fixgo/internal/core"
	"fixgo/internal/runtime"
	"fixgo/internal/store"
)

// These tests pin the Go client SDK's error paths: every gateway-side
// rejection must surface as a typed *StatusError with the right code,
// and malformed server payloads must fail parsing instead of yielding
// zero handles.

func TestClientBodyBound413(t *testing.T) {
	_, c := newTestGateway(t, Options{
		CacheEntries: 4,
		MaxBlobBytes: 128,
		MaxJSONBytes: 256,
	})
	ctx := context.Background()

	// Oversized blob upload: 413 as a typed StatusError.
	_, err := c.PutBlob(ctx, bytes.Repeat([]byte{7}, 129))
	if statusCode(err) != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized PutBlob = %v, want 413 StatusError", err)
	}
	// Oversized JSON (tree with many entries): 413 through PutTree.
	entries := make([]core.Handle, 64)
	for i := range entries {
		entries[i] = core.BlobHandle(bytes.Repeat([]byte{byte(i)}, 64))
	}
	_, err = c.PutTree(ctx, entries)
	if statusCode(err) != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized PutTree = %v, want 413 StatusError", err)
	}
	// A within-bounds upload still succeeds against the same server.
	if _, err := c.PutBlob(ctx, bytes.Repeat([]byte{7}, 128)); err != nil {
		t.Errorf("within-bounds PutBlob failed: %v", err)
	}
}

func TestClientShed429(t *testing.T) {
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	reg := runtime.NewRegistry()
	reg.RegisterFunc("wedge", func(api core.API, input core.Handle) (core.Handle, error) {
		<-release
		return api.CreateBlob(core.LiteralU64(1).LiteralData()), nil
	})
	backend := NewEngineBackend(runtime.New(store.New(), runtime.Options{Cores: 1, Registry: reg}))
	// No cache: every submission needs an admission slot; one slot, one
	// queue place, so a third concurrent submission sheds.
	srv, c := newTestGateway(t, Options{Backend: backend, MaxInFlight: 1, MaxQueue: 1})
	// Registered after newTestGateway so the wedged evaluations release
	// before the test server's own cleanup waits on them.
	t.Cleanup(unblock)
	ctx := context.Background()

	fn, err := c.PutBlob(ctx, core.NativeFunctionBlob("wedge"))
	if err != nil {
		t.Fatal(err)
	}
	submit := func(arg uint64) error {
		tree, err := c.PutTree(ctx, core.InvocationTree(core.DefaultLimits.Handle(), fn, core.LiteralU64(arg)))
		if err != nil {
			return err
		}
		th, err := core.Application(tree)
		if err != nil {
			return err
		}
		_, err = c.Submit(ctx, th)
		return err
	}
	errc := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) { errc <- submit(uint64(i)) }(i)
	}
	// Wait until one submission holds the slot and one waits in the
	// queue, so the next submission deterministically sheds.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := srv.Stats()
		if st.Admission.Admitted == 1 && st.Admission.Waiting == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission never saturated: %+v", st.Admission)
		}
		time.Sleep(time.Millisecond)
	}
	shedErr := submit(99)
	if !IsOverloaded(shedErr) || statusCode(shedErr) != http.StatusTooManyRequests {
		t.Fatalf("saturated submit = %v, want IsOverloaded 429", shedErr)
	}
	unblock()
	<-errc
	<-errc
}

// TestClientMalformedHandleReplies pins the client against a byzantine
// or corrupted server: replies whose handles do not parse must error.
func TestClientMalformedHandleReplies(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/blobs", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"handle":"not-hex-at-all"}`))
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("mode") == "async" {
			w.WriteHeader(http.StatusAccepted)
			w.Write([]byte(`{"id":"j1","state":"pending","handle":"zz"}`))
			return
		}
		w.Write([]byte(`{"result":"deadbeef","outcome":"miss"}`)) // too short
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c := NewClient(ts.URL, WithHTTPClient(ts.Client()))
	ctx := context.Background()

	if _, err := c.PutBlob(ctx, []byte("x")); err == nil || !strings.Contains(err.Error(), "handle") {
		t.Errorf("malformed blob handle reply = %v, want handle parse error", err)
	}
	th := core.BlobHandle([]byte("some-valid-but-irrelevant-handle-payload"))
	if _, err := c.Submit(ctx, th); err == nil || !strings.Contains(err.Error(), "handle") {
		t.Errorf("malformed result handle reply = %v, want handle parse error", err)
	}
	if _, err := c.SubmitAsync(ctx, th); err == nil || !strings.Contains(err.Error(), "handle") {
		t.Errorf("malformed async handle reply = %v, want handle parse error", err)
	}
}

// TestClientMalformedRequestHandle pins the server side: a submission
// whose handle is garbage draws 400, not a panic or a zero evaluation.
func TestClientMalformedRequestHandle(t *testing.T) {
	_, c := newAsyncGateway(t, Options{CacheEntries: 4})
	for _, body := range []string{
		`{"handle":"zzzz"}`,
		`{"handle":""}`,
		`{not json`,
	} {
		for _, path := range []string{"/v1/jobs", "/v1/jobs?mode=async"} {
			resp, err := c.hc.Post(c.base+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("POST %s with body %q: status %d, want 400", path, body, resp.StatusCode)
			}
		}
	}
}
