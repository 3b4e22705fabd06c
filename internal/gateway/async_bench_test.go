package gateway

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"fixgo/internal/codelet"
	"fixgo/internal/core"
	"fixgo/internal/durable"
	"fixgo/internal/jobs"
	"fixgo/internal/runtime"
	"fixgo/internal/store"
)

// BenchmarkAsyncRoundTripLoopback is one async job as jobs_async_durable
// runs it: PutTree of a fresh invocation, SubmitAsync (202) and AwaitJob,
// through loopback net/http to a server whose store writes through to a
// durable data dir (interval fsync) and whose jobs journal sits beside
// it. Its allocs/op count both ends of the hop; run it with -memprofile
// and -memprofilerate=1 to split them per layer.
func BenchmarkAsyncRoundTripLoopback(b *testing.B) {
	dir := b.TempDir()
	st := store.New()
	dur, _, err := durable.Attach(dir, durable.Options{}, st)
	if err != nil {
		b.Fatal(err)
	}
	defer dur.Close()
	srv, err := NewServer(Options{
		Backend:         NewEngineBackend(runtime.New(st, runtime.Options{})),
		CacheEntries:    4096,
		AsyncWorkers:    2,
		JobsJournalPath: filepath.Join(dir, "jobs.journal"),
		DurableStats:    dur.Stats,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	c := NewClient(ts.URL, WithHTTPClient(&http.Client{Transport: tr}), WithTenant("tenant-0"))
	ctx := context.Background()
	fn, err := c.PutBlob(ctx, codelet.AddFunctionBlob())
	if err != nil {
		b.Fatal(err)
	}
	lim := core.DefaultLimits.Handle()
	job := func(i int) {
		a := uint64(1<<32 + i)
		tree, err := c.PutTree(ctx, core.InvocationTree(lim, fn, core.LiteralU64(a), core.LiteralU64(7)))
		if err != nil {
			b.Fatal(err)
		}
		thunk, err := core.Application(tree)
		if err != nil {
			b.Fatal(err)
		}
		js, err := c.SubmitAsync(ctx, thunk)
		if err != nil {
			b.Fatal(err)
		}
		if js, err = c.AwaitJob(ctx, js.ID); err != nil {
			b.Fatal(err)
		}
		if js.State != jobs.StateDone {
			b.Fatalf("job %s ended %s: %s", js.ID, js.State, js.Err)
		}
	}
	job(-1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job(i)
	}
}
