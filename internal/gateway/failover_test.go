package gateway

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"fixgo/internal/cluster"
	"fixgo/internal/core"
	"fixgo/internal/jobs"
	"fixgo/internal/runtime"
	"fixgo/internal/transport"
)

// clusterLink is a fast simulated fabric for failover tests.
func clusterLink() transport.LinkConfig {
	return transport.LinkConfig{Latency: 200 * time.Microsecond}
}

// failoverNodeOpts enables fast heartbeats with a race-detector-proof
// timeout margin.
func failoverNodeOpts(base cluster.NodeOptions) cluster.NodeOptions {
	base.HeartbeatInterval = 20 * time.Millisecond
	base.HeartbeatTimeout = 300 * time.Millisecond
	return base
}

// failoverRegistry registers a "gwhold" procedure that reports the named
// worker on started and blocks until release closes, then doubles its
// integer argument.
func failoverRegistry(name string, started chan<- string, release <-chan struct{}) *runtime.Registry {
	reg := runtime.NewRegistry()
	reg.RegisterFunc("gwhold", func(api core.API, input core.Handle) (core.Handle, error) {
		entries, err := api.AttachTree(input)
		if err != nil {
			return core.Handle{}, err
		}
		b, err := api.AttachBlob(entries[2])
		if err != nil {
			return core.Handle{}, err
		}
		v, err := core.DecodeU64(b)
		if err != nil {
			return core.Handle{}, err
		}
		started <- name
		<-release
		return api.CreateBlob(core.LiteralU64(v * 2).LiteralData()), nil
	})
	return reg
}

// gatewayMesh assembles a gateway over a client-only edge node fronting
// n blocking-capable workers.
func gatewayMesh(t *testing.T, n int, started chan string, release chan struct{}, opts Options) (*cluster.Node, []*cluster.Node, *Server, *Client) {
	t.Helper()
	edge := cluster.NewNode("edge", failoverNodeOpts(cluster.NodeOptions{Cores: 1, ClientOnly: true}))
	t.Cleanup(edge.Close)
	workers := make([]*cluster.Node, n)
	for i := range workers {
		name := fmt.Sprintf("w%d", i)
		workers[i] = cluster.NewNode(name, failoverNodeOpts(cluster.NodeOptions{
			Cores:    2,
			Registry: failoverRegistry(name, started, release),
		}))
		t.Cleanup(workers[i].Close)
		cluster.Connect(edge, workers[i], clusterLink())
	}
	cluster.FullMesh(clusterLink(), workers...)
	opts.Backend = edge
	srv, c := newTestGateway(t, opts)
	t.Cleanup(func() { _ = srv.Close() })
	return edge, workers, srv, c
}

// holdSubmission uploads the gwhold job for arg through the client.
func holdSubmission(t *testing.T, c *Client, arg uint64) core.Handle {
	t.Helper()
	ctx := context.Background()
	fn, err := c.PutBlob(ctx, core.NativeFunctionBlob("gwhold"))
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

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestFailoverGatewayWorkerKilledMidEval is the end-to-end pin: a
// gateway fronting three workers, one worker killed while running the
// delegated job. The HTTP submission must still complete (on a
// survivor), the dead peer must leave Peers() and the object view, and
// the re-placement must show up in the gateway's stats.
func TestFailoverGatewayWorkerKilledMidEval(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	edge, workers, srv, c := gatewayMesh(t, 3, started, release, Options{CacheEntries: 16})
	byName := map[string]*cluster.Node{}
	markers := map[string]core.Handle{}
	for _, w := range workers {
		byName[w.ID()] = w
		// Residency markers so the edge's view has per-worker entries
		// whose eviction we can observe (big enough not to be literal
		// handles, which are never advertised).
		marker := bytes.Repeat([]byte(w.ID()), 100)
		markers[w.ID()] = w.PutBlobOwned(core.BlobHandle(marker), marker)
	}
	waitUntil(t, "markers visible in the edge view", func() bool {
		for _, m := range markers {
			if len(edge.ViewOwners(m)) == 0 {
				return false
			}
		}
		return true
	})

	th := holdSubmission(t, c, 21)
	type submitOut struct {
		res JobResult
		err error
	}
	out := make(chan submitOut, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		res, err := c.SubmitFetch(ctx, th)
		out <- submitOut{res, err}
	}()

	victim := <-started
	byName[victim].Close()
	close(release)

	got := <-out
	if got.err != nil {
		t.Fatalf("submission after worker kill: %v", got.err)
	}
	if v, _ := core.DecodeU64(got.res.Data); v != 42 {
		t.Fatalf("result = %d, want 42", v)
	}

	waitUntil(t, "dead peer evicted from edge Peers()", func() bool {
		for _, id := range edge.Peers() {
			if id == victim {
				return false
			}
		}
		return len(edge.Peers()) == 2
	})
	if owners := edge.ViewOwners(markers[victim]); len(owners) != 0 {
		t.Fatalf("dead worker's marker still in view: %v", owners)
	}
	st := srv.Stats()
	if st.Cluster == nil {
		t.Fatal("stats missing the cluster section")
	}
	if st.Cluster.Peers != 2 || st.Cluster.Evicted == 0 || st.Cluster.JobsReplaced == 0 {
		t.Fatalf("cluster stats = %+v, want 2 peers, ≥1 evicted, ≥1 replaced", st.Cluster)
	}
}

// TestFailoverAsyncJobRetriesAfterWorkerDeath: an async job whose worker
// dies mid-eval fails its first attempt, is retried by the jobs
// subsystem, and completes once a replacement worker joins.
func TestFailoverAsyncJobRetriesAfterWorkerDeath(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	edge, workers, srv, c := gatewayMesh(t, 1, started, release, Options{
		AsyncWorkers:     2,
		AsyncMaxAttempts: 8, // survive the window between kill and replacement
	})

	th := holdSubmission(t, c, 50)
	js, err := c.SubmitAsync(context.Background(), th)
	if err != nil {
		t.Fatal(err)
	}

	<-started // the job is on w0
	workers[0].Close()
	close(release)

	// Hold the replacement back until the first attempt has actually
	// failed — otherwise the cluster's own re-placement can complete the
	// job within attempt one, and the jobs-level retry path (what this
	// test pins) never runs.
	waitUntil(t, "first attempt to fail", func() bool {
		st := srv.Stats()
		return st.Jobs != nil && st.Jobs.Retried >= 1
	})

	// Bring a replacement worker into the cluster; a retry lands on it.
	w1 := cluster.NewNode("w1", failoverNodeOpts(cluster.NodeOptions{
		Cores:    2,
		Registry: failoverRegistry("w1", started, release),
	}))
	t.Cleanup(w1.Close)
	cluster.Connect(edge, w1, clusterLink())

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	final, err := c.AwaitJob(ctx, js.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != jobs.StateDone {
		t.Fatalf("job settled as %v (%s), want done", final.State, final.Err)
	}
	if final.Attempts < 2 {
		t.Fatalf("attempts = %d, want ≥ 2 (first attempt died with the worker)", final.Attempts)
	}
	data, err := c.BlobBytes(context.Background(), final.Result)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := core.DecodeU64(data); v != 100 {
		t.Fatalf("result = %d, want 100", v)
	}
	st := srv.Stats()
	if st.Jobs == nil || st.Jobs.Retried == 0 {
		t.Fatalf("jobs stats = %+v, want ≥ 1 retried", st.Jobs)
	}
}

// TestFailoverAllWorkersDead503: with every worker gone, a synchronous
// submission must come back as a typed 503 that the client SDK
// recognizes — not a 500, not a hang.
func TestFailoverAllWorkersDead503(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	close(release) // nothing should ever block in this test
	edge, workers, srv, c := gatewayMesh(t, 1, started, release, Options{})

	workers[0].Close()
	waitUntil(t, "edge to evict its only worker", func() bool { return len(edge.Peers()) == 0 })

	_, err := c.Submit(context.Background(), holdSubmission(t, c, 7))
	if err == nil {
		t.Fatal("submission succeeded with no workers")
	}
	if !IsUnavailable(err) {
		t.Fatalf("err = %v, want a 503 the SDK reports via IsUnavailable", err)
	}
	st := srv.Stats()
	if st.Cluster == nil || st.Cluster.Peers != 0 {
		t.Fatalf("cluster stats = %+v, want 0 peers", st.Cluster)
	}
}
