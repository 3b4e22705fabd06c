package gateway

// The replicated-edge failover suite: two gateways over one worker
// mesh, with a gateway killed mid-drain (its accepted jobs must
// complete exactly once on the survivor), a gateway restarted on its
// jobs journal and then killed, cache-warm gossip (a repeat
// submission on the peer gateway is a cache hit), stale-hint
// fall-through, and the shutdown ordering regression a takeover peer
// depends on.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fixgo/internal/cluster"
	"fixgo/internal/core"
	"fixgo/internal/edgelog"
	"fixgo/internal/jobs"
	"fixgo/internal/proto"
	"fixgo/internal/runtime"
	"fixgo/internal/store"
	"fixgo/internal/transport"
)

// edgeExecLog counts native-function executions by argument, so tests
// can pin "exactly once" across a takeover. Gated arguments block until
// the shared gate closes (announcing themselves on started first).
type edgeExecLog struct {
	mu      sync.Mutex
	counts  map[uint64]int
	gated   map[uint64]bool
	started chan uint64
	gate    chan struct{}
}

func newEdgeExecLog() *edgeExecLog {
	return &edgeExecLog{
		counts:  make(map[uint64]int),
		gated:   make(map[uint64]bool),
		started: make(chan uint64, 16),
		gate:    make(chan struct{}),
	}
}

func (l *edgeExecLog) count(arg uint64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.counts[arg]
}

// edgeRegistry registers the "gwedge" procedure: count the argument's
// execution, block while gated, return arg*2.
func edgeRegistry(l *edgeExecLog) *runtime.Registry {
	reg := runtime.NewRegistry()
	reg.RegisterFunc("gwedge", func(api core.API, input core.Handle) (core.Handle, error) {
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
		l.mu.Lock()
		l.counts[v]++
		gated := l.gated[v]
		l.mu.Unlock()
		if gated {
			select {
			case l.started <- v:
			default:
			}
			<-l.gate
		}
		return api.CreateBlob(core.LiteralU64(v * 2).LiteralData()), nil
	})
	return reg
}

// edgeSubmission uploads the gwedge job for arg through the client.
func edgeSubmission(t *testing.T, c *Client, arg uint64) core.Handle {
	t.Helper()
	ctx := context.Background()
	fn, err := c.PutBlob(ctx, core.NativeFunctionBlob("gwedge"))
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

// edgeGatewayOpts overlays the fast replicated-edge timings every test
// here uses onto base.
func edgeGatewayOpts(base Options, id string) Options {
	base.EdgeID = id
	base.EdgeHeartbeatInterval = 20 * time.Millisecond
	base.EdgeHeartbeatTimeout = 300 * time.Millisecond
	return base
}

// TestEdgeTakeoverGatewayKilledMidDrain is the PR's acceptance pin: two
// gateways over one worker mesh, gateway A killed while one accepted
// job is mid-evaluation and five more sit pending. Every accepted job
// must complete exactly once on the survivor, and a thunk memoized
// before the kill must not be re-executed.
func TestEdgeTakeoverGatewayKilledMidDrain(t *testing.T) {
	log := newEdgeExecLog()

	// One worker mesh shared by both gateways.
	workers := make([]*cluster.Node, 2)
	for i := range workers {
		workers[i] = cluster.NewNode(fmt.Sprintf("w%d", i), failoverNodeOpts(cluster.NodeOptions{
			Cores:    2,
			Registry: edgeRegistry(log),
		}))
		t.Cleanup(workers[i].Close)
	}
	cluster.FullMesh(clusterLink(), workers...)

	// Two client-only edge nodes front the same workers.
	newGw := func(id string, asyncWorkers int) (*cluster.Node, *Server, *Client) {
		node := cluster.NewNode("node-"+id, failoverNodeOpts(cluster.NodeOptions{Cores: 1, ClientOnly: true}))
		t.Cleanup(node.Close)
		for _, w := range workers {
			cluster.Connect(node, w, clusterLink())
		}
		srv, c := newTestGateway(t, edgeGatewayOpts(Options{
			Backend:      node,
			CacheEntries: 64,
			AsyncWorkers: asyncWorkers,
		}, id))
		t.Cleanup(func() { _ = srv.Close() })
		return node, srv, c
	}
	_, srvA, ca := newGw("gw-a", 1) // one async worker: pendings stay pending
	_, srvB, _ := newGw("gw-b", 2)

	pa, pb := transport.Pipe(clusterLink())
	srvA.AttachEdgePeer(pa)
	srvB.AttachEdgePeer(pb)
	waitUntil(t, "edge peers live", func() bool {
		sa, sb := srvA.Stats(), srvB.Stats()
		return sa.Edge.Live == 1 && sb.Edge.Live == 1
	})

	ctx := context.Background()

	// Phase 1: a job completed on A before the kill. Its execution count
	// must still be 1 at the end — memoized work is never re-executed.
	memoTh := edgeSubmission(t, ca, 1)
	if _, err := ca.Submit(ctx, memoTh); err != nil {
		t.Fatal(err)
	}
	if n := log.count(1); n != 1 {
		t.Fatalf("phase-1 job executed %d times, want 1", n)
	}

	// Phase 2: one gated job occupies A's only async worker, five more
	// queue behind it. All six replicate to B as accepted entries before
	// each 202 is acked.
	log.mu.Lock()
	log.gated[100] = true
	log.mu.Unlock()
	var ids []string
	for _, arg := range []uint64{100, 101, 102, 103, 104, 105} {
		js, err := ca.SubmitAsync(ctx, edgeSubmission(t, ca, arg))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, js.ID)
	}
	<-log.started // the blocker is mid-evaluation on a worker
	waitUntil(t, "all accepted entries replicated to B", func() bool {
		return srvB.Stats().Edge.Entries >= 6
	})

	// Kill A mid-drain, crash-style: stop its queue (draining the
	// cancelled blocker flight), then sever the peer links without a
	// clean Leave — B must detect the death from the link EOF.
	if err := srvA.Jobs().Close(); err != nil {
		t.Fatal(err)
	}
	_ = pa.Close()
	waitUntil(t, "B adopted A's undrained jobs", func() bool {
		st := srvB.Stats()
		return st.Edge.Takeovers >= 1 && st.Edge.Adopted >= 6
	})
	close(log.gate)

	// Every accepted job settles as done on the survivor.
	for i, id := range ids {
		waitUntil(t, fmt.Sprintf("job %d done on B", i), func() bool {
			v, ok := srvB.Jobs().Get(id)
			return ok && v.State == jobs.StateDone
		})
	}

	// Exactly-once: the five purely pending jobs ran once each. The
	// blocker's interrupted attempt may or may not have been memoized by
	// its worker before B's re-run, so 1 or 2 — but it completed once.
	for _, arg := range []uint64{101, 102, 103, 104, 105} {
		if n := log.count(arg); n != 1 {
			t.Errorf("pending job %d executed %d times across the takeover, want exactly 1", arg, n)
		}
	}
	if n := log.count(100); n < 1 || n > 2 {
		t.Errorf("blocker executed %d times, want 1 or 2", n)
	}
	if n := log.count(1); n != 1 {
		t.Errorf("memoized phase-1 job re-executed (%d executions)", n)
	}
	if st := srvB.Stats(); st.Edge.Adopted != 6 {
		t.Errorf("B adopted %d jobs, want 6", st.Edge.Adopted)
	}
}

// holdBackend is an engine backend that, while hold is set, parks every
// Eval until its context ends without entering the engine, so a held
// attempt leaves no execution behind in an edgeExecLog.
type holdBackend struct {
	*EngineBackend
	hold atomic.Bool
	held chan struct{}
}

func (b *holdBackend) Eval(ctx context.Context, h core.Handle) (core.Handle, error) {
	if b.hold.Load() {
		b.held <- struct{}{}
		<-ctx.Done()
		return core.Handle{}, ctx.Err()
	}
	return b.EngineBackend.Eval(ctx, h)
}

// TestEdgeRestartRebuildsFromJobsJournal: an edge gateway restarted on
// its jobs.journal, with no edge file anywhere, shows its done job as
// settled and its undrained jobs as accepted, with their payload, both
// in its own edge table and, after the Hello snapshot, in a peer's.
// Killing it mid-drain then hands every undrained job to that peer, and
// each runs exactly once.
func TestEdgeRestartRebuildsFromJobsJournal(t *testing.T) {
	log := newEdgeExecLog()
	dir := t.TempDir()
	st := store.New() // the durable store a restarted process restores
	startA := func() (*Server, *Client, *holdBackend) {
		b := &holdBackend{
			EngineBackend: NewEngineBackend(runtime.New(st, runtime.Options{Cores: 2, Registry: edgeRegistry(log)})),
			held:          make(chan struct{}, 4),
		}
		b.hold.Store(true)
		srv, c := newTestGateway(t, edgeGatewayOpts(Options{
			Backend: b, CacheEntries: 64, AsyncWorkers: 1,
			JobsJournalPath: filepath.Join(dir, "jobs.journal"),
		}, "gw-a"))
		t.Cleanup(func() { _ = srv.Close() })
		return srv, c, b
	}
	ctx := context.Background()

	// First life: one job done, then three undrained behind a held one.
	srvA, ca, backA := startA()
	backA.hold.Store(false)
	doneTh := edgeSubmission(t, ca, 1)
	js, err := ca.SubmitAsync(ctx, doneTh)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := ca.WaitJob(ctx, js.ID, 5*time.Second); err != nil || v.State != jobs.StateDone {
		t.Fatalf("first job: %+v, %v; want done", v, err)
	}
	backA.hold.Store(true)
	undrained := map[string]uint64{}
	for _, arg := range []uint64{101, 102, 103} {
		js, err := ca.SubmitAsync(ctx, edgeSubmission(t, ca, arg))
		if err != nil {
			t.Fatal(err)
		}
		undrained[js.ID] = arg
	}
	<-backA.held
	if err := srvA.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life on the same journal and store: the edge table is
	// rebuilt from jobs.journal alone.
	srvA, _, backA = startA()
	<-backA.held // A's one worker holds a resumed job; the rest wait
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 || ents[0].Name() != "jobs.journal" {
		t.Fatalf("data dir holds %v (%v), want jobs.journal alone", ents, err)
	}
	checkTable := func(who string, r *edgelog.Replicator) {
		t.Helper()
		got := map[string]edgelog.Entry{}
		for _, e := range r.Entries() {
			got[e.Job] = e
		}
		if len(got) != 1+len(undrained) {
			t.Fatalf("%s holds %d edge entries, want %d", who, len(got), 1+len(undrained))
		}
		if e := got[js.ID]; e.State != edgelog.EntryDone || e.Result.IsZero() || e.Origin != "gw-a" {
			t.Errorf("%s: done job's entry is %+v, want done from gw-a", who, e)
		}
		for id := range undrained {
			if e := got[id]; e.State != edgelog.EntryAccepted || len(e.Objects) == 0 || e.Origin != "gw-a" {
				t.Errorf("%s: undrained job %s: state %d, %d payload objects, origin %q; want accepted with payload from gw-a",
					who, id, e.State, len(e.Objects), e.Origin)
			}
		}
	}
	checkTable("restarted gw-a", srvA.edge)

	stB := store.New()
	srvB, _ := newTestGateway(t, edgeGatewayOpts(Options{
		Backend:      NewEngineBackend(runtime.New(stB, runtime.Options{Cores: 2, Registry: edgeRegistry(log)})),
		CacheEntries: 64, AsyncWorkers: 2,
	}, "gw-b"))
	t.Cleanup(func() { _ = srvB.Close() })
	pa, pb := transport.Pipe(clusterLink())
	srvA.AttachEdgePeer(pa)
	srvB.AttachEdgePeer(pb)
	waitUntil(t, "B folded A's snapshot", func() bool { return srvB.Stats().Edge.Entries == 1+len(undrained) })
	checkTable("peer gw-b", srvB.edge)

	// Kill the restarted A mid-drain, crash-style: no Leave.
	if err := srvA.Jobs().Close(); err != nil {
		t.Fatal(err)
	}
	_ = pa.Close()
	for id := range undrained {
		waitUntil(t, "job "+id+" done on B", func() bool {
			v, ok := srvB.Jobs().Get(id)
			return ok && v.State == jobs.StateDone
		})
	}
	for id, arg := range undrained {
		if n := log.count(arg); n != 1 {
			t.Errorf("undrained job %s executed %d times across restart and takeover, want exactly 1", id, n)
		}
	}
	if n := log.count(1); n != 1 {
		t.Errorf("done job executed %d times, want 1", n)
	}
	if st := srvB.Stats(); st.Edge.Adopted != uint64(len(undrained)) {
		t.Errorf("B adopted %d jobs, want %d", st.Edge.Adopted, len(undrained))
	}
}

// TestEdgeGossipCacheWarm: a result memoized on gateway A warms gateway
// B's cache over the peer channel, so a repeat submission on B is a
// cache hit — no backend evaluation — pinned via B's /v1/stats hit
// counters.
func TestEdgeGossipCacheWarm(t *testing.T) {
	newEngineGw := func(id string) (*Server, *Client) {
		srv, c := newTestGateway(t, edgeGatewayOpts(Options{CacheEntries: 64}, id))
		t.Cleanup(func() { _ = srv.Close() })
		return srv, c
	}
	srvA, ca := newEngineGw("gw-a")
	srvB, cb := newEngineGw("gw-b")
	pa, pb := transport.Pipe(clusterLink())
	srvA.AttachEdgePeer(pa)
	srvB.AttachEdgePeer(pb)

	ctx := context.Background()
	th := addJob(t, ca, 40, 2)
	res, err := ca.SubmitFetch(ctx, th)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := core.DecodeU64(res.Data); v != 42 {
		t.Fatalf("add(40,2) = %d, want 42", v)
	}

	// The memoization gossips to B; its result is a literal handle, so B
	// applies it straight into its cache.
	waitUntil(t, "warm hint applied at B", func() bool {
		return srvB.Stats().Edge.WarmApplied >= 1
	})

	// The same thunk submitted to B must hit B's cache without touching
	// B's backend. (B's engine never saw the upload, so a miss would
	// fail, not just be slow — the hit is load-bearing.)
	thB := addJob(t, cb, 40, 2)
	if thB != th {
		t.Fatalf("thunk handles diverged across gateways: %v vs %v", thB, th)
	}
	before := srvB.Stats().Cache.Hits
	res2, err := cb.Submit(ctx, thB)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Outcome != OutcomeHit {
		t.Fatalf("repeat submission on B: outcome %q, want hit", res2.Outcome)
	}
	if after := srvB.Stats().Cache.Hits; after != before+1 {
		t.Fatalf("B cache hits %d -> %d, want +1", before, after)
	}
	if sa := srvA.Stats(); sa.Edge.WarmSent == 0 {
		t.Errorf("A sent no warm hints: %+v", sa.Edge)
	}
}

// TestEdgeGossipStaleHint: a hint whose result the receiving gateway
// cannot resolve must not poison serving — it parks, the next miss
// flight consults and discards it, and the submission falls through to
// the backend without error.
func TestEdgeGossipStaleHint(t *testing.T) {
	srvB, cb := newTestGateway(t, edgeGatewayOpts(Options{CacheEntries: 64}, "gw-b"))
	t.Cleanup(func() { _ = srvB.Close() })

	ctx := context.Background()
	th := addJob(t, cb, 20, 3)

	// A bogus hint for that thunk: the "result" is a non-literal blob
	// handle B's store does not contain, fed through B's replicator as
	// though a peer gossiped it. The hint is keyed the way the submit
	// path keys its flights — bare thunks are Strict-wrapped first.
	strictTh, err := core.Strict(th)
	if err != nil {
		t.Fatal(err)
	}
	bogus := store.New().PutBlob(make([]byte, 256))
	srvB.edge.AttachPeer(feedWarmHint(t, strictTh.AsObject(), bogus))
	waitUntil(t, "bogus hint parked at B", func() bool {
		return srvB.Stats().Edge.HintsPending >= 1
	})

	res, err := cb.SubmitFetch(ctx, th)
	if err != nil {
		t.Fatalf("submission with a stale hint parked: %v", err)
	}
	if v, _ := core.DecodeU64(res.Data); v != 23 {
		t.Fatalf("add(20,3) = %d, want 23", v)
	}
	st := srvB.Stats()
	if st.Edge.HintStale != 1 {
		t.Errorf("stale-hint counter = %d, want 1", st.Edge.HintStale)
	}
	if st.Edge.HintHits != 0 {
		t.Errorf("hint hits = %d, want 0", st.Edge.HintHits)
	}
}

// TestEdgeHintWithoutCache: a gossip hint reaching a gateway whose
// result cache is disabled is consumed as a no-op — not parked for
// retry, and not a nil-cache panic.
func TestEdgeHintWithoutCache(t *testing.T) {
	srv, _ := newTestGateway(t, edgeGatewayOpts(Options{}, "gw-b"))
	t.Cleanup(func() { _ = srv.Close() })
	result := core.LiteralU64(42)
	thunk, err := core.Identification(result)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := core.Strict(thunk)
	if err != nil {
		t.Fatal(err)
	}
	srv.edge.AttachPeer(feedWarmHint(t, enc.AsObject(), result))
	waitUntil(t, "hint consumed", func() bool { return srv.Stats().Edge.WarmApplied == 1 })
	if st := srv.Stats(); st.Edge.HintsPending != 0 || st.Cache.Entries != 0 {
		t.Fatalf("cache-less gateway kept the hint: %d pending, %d cache entries", st.Edge.HintsPending, st.Cache.Entries)
	}
}

// feedWarmHint returns a transport endpoint whose far side has already
// sent one TypeEdgeWarm message (and nothing else), standing in for a
// peer gateway gossiping a hint.
func feedWarmHint(t *testing.T, key, result core.Handle) transport.Conn {
	t.Helper()
	near, far := transport.Pipe(clusterLink())
	go func() {
		// Absorb the hello and subsequent pings the replicator sends.
		for {
			if _, err := far.Recv(); err != nil {
				return
			}
		}
	}()
	msg := &proto.Message{
		Type:   proto.TypeEdgeWarm,
		From:   "gw-fake",
		Handle: key,
		Result: result,
	}
	if err := far.Send(msg.Encode()); err != nil {
		t.Fatal(err)
	}
	return near
}

// TestEdgeShutdownRevertOrderingTakeover is the regression pin for the
// jobs/edge close ordering: Server.Close must fully drain the local
// async queue (revert + backend flights returned) before the edge
// Leave hands the jobs to peers, so the adopting gateway never overlaps
// an evaluation with the departing one.
func TestEdgeShutdownRevertOrderingTakeover(t *testing.T) {
	var inFlight, maxInFlight atomic.Int64
	track := func(eval func(ctx context.Context) (core.Handle, error)) func(context.Context, core.Handle) (core.Handle, error) {
		return func(ctx context.Context, h core.Handle) (core.Handle, error) {
			if n := inFlight.Add(1); n > maxInFlight.Load() {
				maxInFlight.Store(n)
			}
			defer inFlight.Add(-1)
			return eval(ctx)
		}
	}
	aRunning := make(chan struct{}, 1)
	// A's backend wedges until cancelled — the evaluation Close must
	// drain. B's completes immediately.
	backendA := &edgeFakeBackend{storeBackend: storeBackend{store.New()}, eval: track(func(ctx context.Context) (core.Handle, error) {
		select {
		case aRunning <- struct{}{}:
		default:
		}
		<-ctx.Done()
		return core.Handle{}, ctx.Err()
	})}
	backendB := &edgeFakeBackend{storeBackend: storeBackend{store.New()}, eval: track(func(context.Context) (core.Handle, error) {
		return core.LiteralU64(7), nil
	})}

	srvA, ca := newTestGateway(t, edgeGatewayOpts(Options{
		Backend: backendA, CacheEntries: 16, AsyncWorkers: 1, AsyncMaxAttempts: 1,
	}, "gw-a"))
	srvB, _ := newTestGateway(t, edgeGatewayOpts(Options{
		Backend: backendB, CacheEntries: 16, AsyncWorkers: 1,
	}, "gw-b"))
	t.Cleanup(func() { _ = srvB.Close() })
	pa, pb := transport.Pipe(clusterLink())
	srvA.AttachEdgePeer(pa)
	srvB.AttachEdgePeer(pb)

	ctx := context.Background()
	js, err := ca.SubmitAsync(ctx, addJob(t, ca, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	<-aRunning // A's backend is mid-evaluation

	// Clean shutdown: drain first, then Leave. B adopts and completes.
	if err := srvA.Close(); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "B completed the adopted job", func() bool {
		v, ok := srvB.Jobs().Get(js.ID)
		return ok && v.State == jobs.StateDone
	})
	if got := maxInFlight.Load(); got != 1 {
		t.Fatalf("max concurrent backend evaluations = %d across the handoff, want 1 (double-execution window)", got)
	}
}

// edgeFakeBackend is a Backend whose Eval is scripted by the test; the
// ingestion surface rides a plain store.
type edgeFakeBackend struct {
	storeBackend
	eval func(ctx context.Context, h core.Handle) (core.Handle, error)
}

func (f *edgeFakeBackend) Eval(ctx context.Context, h core.Handle) (core.Handle, error) {
	return f.eval(ctx, h)
}
