package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"fixgo/internal/cluster"
	"fixgo/internal/codelet"
	"fixgo/internal/core"
	"fixgo/internal/durable"
	"fixgo/internal/gateway"
	"fixgo/internal/jobs"
	"fixgo/internal/runtime"
	"fixgo/internal/store"
	"fixgo/internal/transport"
	"fixgo/internal/wiki"
)

// sizes are the workload parameters that do not depend on the seed. They
// are the same on both commits of any comparison; smoke shrinks them so
// the tests finish in seconds.
type sizes struct {
	thunks       int // gateway_warm: thunks uploaded in set-up
	cacheEntries int // gateway result cache (thunks = 4× this)
	chunks       int // cluster_mapreduce: corpus chunks over the workers
	chunkBytes   int
	jobChunks    int // chunks one job scans
	microDiv     int // divides the call counts of the direct timed calls
}

// tenants is how many tenants the gateway workloads' requests come from,
// and workers how many worker nodes cluster_mapreduce's mesh has.
const (
	tenants = 8
	workers = 3
)

var (
	fullSizes  = sizes{thunks: 16384, cacheEntries: 4096, chunks: 64, chunkBytes: 64 << 10, jobChunks: 16, microDiv: 1}
	smokeSizes = sizes{thunks: 512, cacheEntries: 128, chunks: 12, chunkBytes: 4 << 10, jobChunks: 4, microDiv: 10}
)

// config is one run's inputs.
type config struct {
	seed   int64
	nproc  int
	outDir string
	sz     sizes
	rec    *recorder // nil: tracing off

	corpusOnce sync.Once
	corpus     [][]byte
}

// chunks is cluster_mapreduce's corpus: seeded text, generated once per
// run because making it is the benchmark's work, not the program's
// set-up.
func (c *config) chunks() [][]byte {
	c.corpusOnce.Do(func() {
		c.corpus = make([][]byte, c.sz.chunks)
		for k := range c.corpus {
			c.corpus[k] = wiki.Chunk(c.seed*1000+int64(k), c.sz.chunkBytes, "", 0)
		}
	})
	return c.corpus
}

// system is one set-up instance of a workload.
type system struct {
	op    opFunc
	close func()
	// verify re-checks sampled outputs after the timed phases (nil when
	// every op checks its own output in full).
	verify func() (checked, wrong int64)
	// layers adds the workload's own per-layer values (counter snapshots
	// of the program); ops counts every op since set-up ended.
	layers func(vals map[string]float64, ops int64)
	// reconcile compares the benchmark's handler spans with the
	// program's own traces (gateway workloads only).
	reconcile func() float64
	// engines lists the engines whose CPU accounting and in-flight
	// count the traced run reads.
	engines func() []*runtime.Engine
}

// workload describes one traffic mix.
type workload struct {
	name  string
	why   string
	setup func(*config) (*system, error)
	// rate is the open loop's arrival rate: about 60 % of the seed
	// commit's closed-loop throughput on 2 cores, then frozen.
	rate float64
	// limit is the open loop's latency limit; a slower, failed or shed
	// request misses it.
	limit time.Duration
	// sampleEvery thins the spans the traced run keeps.
	sampleEvery uint64
	// sliceOps is the op count of one closed-loop slice (about a second
	// on 2 cores), and slicesPerSystem how many slices one set-up
	// instance serves before it is replaced (0: the whole run).
	sliceOps        uint64
	slicesPerSystem int
}

// smoke returns the workload with slices shrunk for the smoke tests.
func (w workload) smoke() workload {
	w.sliceOps = max(w.sliceOps/50, 20)
	return w
}

var workloads = []workload{
	{
		name:  "invoke_hot",
		why:   "engine-bound: hashing, store, runtime bookkeeping and the codelet VM are the whole op; no gateway, proto or transport",
		setup: setupInvoke, rate: 20000, limit: time.Millisecond, sampleEvery: 64, sliceOps: 100_000, slicesPerSystem: 1,
	},
	{
		name:  "gateway_warm",
		why:   "gateway read path: HTTP/JSON, cache, admission and ledger dominate; Zipf reuse over 4x the cache gives hits and warm misses",
		setup: setupGateway, rate: 5000, limit: 5 * time.Millisecond, sampleEvery: 8, sliceOps: 30_000,
	},
	{
		name:  "cluster_mapreduce",
		why:   "cluster-bound: each job is ~16 worker delegations over loopback TCP (proto, transport, placement); no HTTP at all",
		setup: setupCluster, rate: 150, limit: 50 * time.Millisecond, sampleEvery: 4, sliceOps: 1000, slicesPerSystem: 3,
	},
	{
		name:  "jobs_async_durable",
		why:   "write side of the gateway and store: job journal, pack write-through, memo journal and the job state machine; no duplicates",
		setup: setupJobs, rate: 1500, limit: 20 * time.Millisecond, sampleEvery: 8, sliceOps: 6000, slicesPerSystem: 4,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// mix is the splitmix64 finalizer; with opRand it gives every op its
// own reproducible random stream, independent of which worker runs it.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

type opRand struct{ s uint64 }

func newOpRand(seed int64, i uint64) opRand {
	return opRand{mix(uint64(seed)+0x9e3779b97f4a7c15) ^ mix(i)}
}

func (r *opRand) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix(r.s)
}

func (r *opRand) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// operandBase spreads the seeds' operands apart; base+2^33 cannot
// overflow when 7 is added.
func operandBase(seed int64) uint64 { return mix(uint64(seed)) >> 20 }

// zipf is the cumulative distribution of ranks 1..n with exponent s.
type zipf []float64

func newZipf(n int, s float64) zipf {
	z := make(zipf, n)
	sum := 0.0
	for k := range z {
		sum += 1 / math.Pow(float64(k+1), s)
		z[k] = sum
	}
	for k := range z {
		z[k] /= sum
	}
	return z
}

func (z zipf) draw(u float64) int {
	k := sort.SearchFloat64s(z, u)
	if k >= len(z) {
		k = len(z) - 1
	}
	return k
}

// Each workload derives request i of its list from the seed alone, in a
// function of its own (operand, gatewayPlan.request, clusterPlan.request),
// so that the list is the same whichever worker sends which request and
// however many the run gets through; bench_test.go hashes these lists.

// operand is the first addend of the add(a, 7) that op i computes.
func operand(seed int64, i uint64) uint64 { return operandBase(seed) + i }

// addInvocation is the tree of one add(a, 7) invocation.
func addInvocation(lim, fn core.Handle, a uint64) []core.Handle {
	return core.InvocationTree(lim, fn, core.LiteralU64(a), core.LiteralU64(7))
}

func checkSum(got core.Handle, a uint64) error {
	if want := core.LiteralU64(a + 7); got != want {
		return fmt.Errorf("add(%d, 7) = %v, want %v", a, got, want)
	}
	return nil
}

// ---- invoke_hot ----

func setupInvoke(cfg *config) (*system, error) {
	var (
		st  = store.New()
		eng = runtime.New(st, runtime.Options{})
		fn  = st.PutBlob(codelet.AddFunctionBlob())
		lim = core.DefaultLimits.Handle()
		rec = cfg.rec
	)
	op := func(ctx context.Context, w int, i uint64) error {
		a := operand(cfg.seed, i)
		ctx, traced := rec.sampled(ctx, i)
		var t0, t1 time.Time
		if traced {
			t0 = time.Now()
		}
		tree, err := st.PutTree(addInvocation(lim, fn, a))
		if err != nil {
			return err
		}
		thunk, err := core.Application(tree)
		if err != nil {
			return err
		}
		if traced {
			t1 = time.Now()
		}
		res, err := eng.Eval(ctx, thunk)
		if traced {
			t2 := time.Now()
			rec.add("op", i, t0, t2)
			rec.add("store.put_tree", i, t0, t1)
			rec.add("runtime.eval", i, t1, t2)
		}
		if err != nil {
			return err
		}
		return checkSum(res, a)
	}
	// The first invocation loads the codelet: lazy set-up, paid here.
	if err := op(context.Background(), 0, 1<<40+1); err != nil { // an op number no run reaches or samples
		return nil, err
	}
	sizeBefore := sizeOf(st)
	return &system{
		op:      op,
		close:   func() {},
		layers:  func(vals map[string]float64, ops int64) { storeLayers(vals, ops, sizeBefore, st) },
		engines: func() []*runtime.Engine { return []*runtime.Engine{eng} },
	}, nil
}

// storeSize is what stores held when set-up ended.
type storeSize struct {
	objects int
	bytes   uint64
}

func sizeOf(stores ...*store.Store) storeSize {
	var s storeSize
	for _, st := range stores {
		s.objects += st.Len()
		s.bytes += st.TotalBytes()
	}
	return s
}

// storeLayers reports how much ops ops added to the stores.
func storeLayers(vals map[string]float64, ops int64, before storeSize, stores ...*store.Store) {
	if ops <= 0 {
		return
	}
	now := sizeOf(stores...)
	vals["store.objects_per_op"] = float64(now.objects-before.objects) / float64(ops)
	vals["store.bytes_per_op"] = float64(now.bytes-before.bytes) / float64(ops)
}

// ---- gateway_warm and jobs_async_durable ----

// edge is a gateway server on loopback with one SDK client per worker
// and tenant; each worker keeps its own connection.
type edge struct {
	st      *store.Store
	eng     *runtime.Engine
	srv     *gateway.Server
	hs      *http.Server
	base    string
	clients [][]*gateway.Client // [worker][tenant]
	conns   []*http.Transport   // one per worker
	fn      core.Handle
}

func startEdge(cfg *config, opts gateway.Options, st *store.Store) (*edge, error) {
	e := &edge{st: st}
	e.eng = runtime.New(st, runtime.Options{})
	opts.Backend = cfg.rec.wrapBackend(gateway.NewEngineBackend(e.eng))
	opts.CacheEntries = cfg.sz.cacheEntries
	opts.PersistErrors = st.PersistErrors
	srv, err := gateway.NewServer(opts)
	if err != nil {
		return nil, err
	}
	e.srv = srv
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Close()
		return nil, err
	}
	e.hs = &http.Server{Handler: cfg.rec.middleware(srv.Handler())}
	go func() { _ = e.hs.Serve(l) }() // returns ErrServerClosed when close() shuts it down
	e.base = "http://" + l.Addr().String()
	for w := 0; w < cfg.nproc; w++ {
		tr := &http.Transport{MaxIdleConnsPerHost: 1}
		e.conns = append(e.conns, tr)
		hc := &http.Client{Transport: cfg.rec.wrapTransport(tr)}
		row := make([]*gateway.Client, tenants)
		for t := range row {
			row[t] = gateway.NewClient(e.base, gateway.WithHTTPClient(hc), gateway.WithTenant(fmt.Sprintf("tenant-%d", t)))
		}
		e.clients = append(e.clients, row)
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	e.fn, err = e.clients[0][0].PutBlob(ctx, codelet.AddFunctionBlob())
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *edge) close() {
	_ = e.hs.Close()
	_ = e.srv.Close()
	for _, tr := range e.conns {
		tr.CloseIdleConnections()
	}
}

// layers reports the gateway's own counters since before.
func (e *edge) layers(vals map[string]float64, before gateway.Stats) {
	s := e.srv.Stats()
	hits := float64(s.Cache.Hits - before.Cache.Hits)
	misses := float64(s.Cache.Misses - before.Cache.Misses)
	collapsed := float64(s.Cache.Collapsed - before.Cache.Collapsed)
	if n := hits + misses + collapsed; n > 0 {
		vals["gateway.cache_hit_share"] = hits / n
		vals["gateway.collapsed_share"] = collapsed / n
	}
	admitted := float64(s.Admission.Admitted - before.Admission.Admitted)
	rejected := float64(s.Admission.Rejected - before.Admission.Rejected)
	if n := admitted + rejected; n > 0 {
		vals["gateway.shed_share"] = rejected / n
	}
	vals["durable.persist_errors"] = float64(s.PersistErrors)
	if s.Jobs != nil {
		vals["jobs.retries"] = float64(s.Jobs.Retried)
	}
}

// gatewayPlan is the seeded shape of gateway_warm's traffic.
type gatewayPlan struct {
	seed    int64
	base    uint64
	byRank  []int // which uploaded thunk has which popularity rank
	thunkZ  zipf
	tenantZ zipf
}

func newGatewayPlan(cfg *config) *gatewayPlan {
	return &gatewayPlan{
		seed:    cfg.seed,
		base:    operandBase(cfg.seed),
		byRank:  rand.New(rand.NewSource(cfg.seed)).Perm(cfg.sz.thunks),
		thunkZ:  newZipf(cfg.sz.thunks, 1.1),
		tenantZ: newZipf(tenants, 1.1),
	}
}

// gatewayRequest is one op of gateway_warm: submit uploaded thunk number
// thunk, or (fresh) upload a new invocation and submit that; a is the
// invocation's operand either way.
type gatewayRequest struct {
	fresh  bool
	tenant int
	thunk  int
	a      uint64
}

func (p *gatewayPlan) request(i uint64) gatewayRequest {
	r := newOpRand(p.seed, i)
	q := gatewayRequest{fresh: r.float() < 0.05, tenant: p.tenantZ.draw(r.float())}
	if q.fresh {
		q.a = p.base + 1<<32 + i
	} else {
		q.thunk = p.byRank[p.thunkZ.draw(r.float())]
		q.a = p.base + uint64(q.thunk)
	}
	return q
}

func setupGateway(cfg *config) (*system, error) {
	e, err := startEdge(cfg, gateway.Options{}, store.New())
	if err != nil {
		return nil, err
	}
	var (
		n      = cfg.sz.thunks
		plan   = newGatewayPlan(cfg)
		base   = plan.base
		lim    = core.DefaultLimits.Handle()
		thunks = make([]core.Handle, n)
		rec    = cfg.rec
	)
	// Upload the working set through the API, as a client would.
	var wg sync.WaitGroup
	errs := make([]error, cfg.nproc)
	for w := 0; w < cfg.nproc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < n; k += cfg.nproc {
				ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
				tree, err := e.clients[w][0].PutTree(ctx, addInvocation(lim, e.fn, base+uint64(k)))
				cancel()
				if err == nil {
					thunks[k], err = core.Application(tree)
				}
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			e.close()
			return nil, fmt.Errorf("upload working set: %w", err)
		}
	}
	before, sizeBefore := e.srv.Stats(), sizeOf(e.st)

	op := func(ctx context.Context, w int, i uint64) error {
		q := plan.request(i)
		c := e.clients[w][q.tenant]
		ctx, traced := rec.sampled(ctx, i)
		if traced {
			defer rec.spanFrom("op", i, time.Now())
		}
		thunk := thunks[q.thunk]
		if q.fresh {
			entries := addInvocation(lim, e.fn, q.a)
			if traced {
				h := core.TreeHandle(entries)
				rec.register(i, h)
				defer rec.forget(h)
			}
			t0 := time.Now()
			tree, err := c.PutTree(ctx, entries)
			if traced {
				rec.add("sdk.put_tree", i, t0, time.Now())
			}
			if err != nil {
				return err
			}
			if thunk, err = core.Application(tree); err != nil {
				return err
			}
		}
		t0 := time.Now()
		res, err := c.Submit(ctx, thunk)
		if traced {
			rec.add("sdk.submit", i, t0, time.Now())
		}
		if err != nil {
			return err
		}
		return checkSum(res.Result, q.a)
	}
	return &system{
		op:    op,
		close: e.close,
		layers: func(vals map[string]float64, ops int64) {
			e.layers(vals, before)
			storeLayers(vals, ops, sizeBefore, e.st)
		},
		reconcile: func() float64 { return reconcileTraces(rec, e.base) },
		engines:   func() []*runtime.Engine { return []*runtime.Engine{e.eng} },
	}, nil
}

func setupJobs(cfg *config) (*system, error) {
	dir, err := os.MkdirTemp(cfg.outDir, "data-")
	if err != nil {
		return nil, err
	}
	st := store.New()
	dopts := durable.Options{}
	if rec := cfg.rec; rec != nil {
		dopts.Observe = func(op string, took time.Duration) { rec.observe("durable.persist", took) }
	}
	dur, _, err := durable.Attach(dir, dopts, st)
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, err
	}
	journal := filepath.Join(dir, "jobs.journal")
	e, err := startEdge(cfg, gateway.Options{
		AsyncWorkers:    cfg.nproc,
		JobsJournalPath: journal,
		DurableStats:    dur.Stats,
	}, st)
	if err != nil {
		_ = dur.Close()
		_ = os.RemoveAll(dir)
		return nil, err
	}
	var (
		lim = core.DefaultLimits.Handle()
		rec = cfg.rec
	)
	op := func(ctx context.Context, w int, i uint64) error {
		a := operand(cfg.seed, i)
		c := e.clients[w][int(i)%tenants]
		entries := addInvocation(lim, e.fn, a)
		ctx, traced := rec.sampled(ctx, i)
		if traced {
			defer rec.spanFrom("op", i, time.Now())
			tree := core.TreeHandle(entries)
			thunk, _ := core.Application(tree)
			enc, _ := core.Strict(thunk)
			rec.register(i, tree, enc)
			defer rec.forget(tree, enc)
		}
		t0 := time.Now()
		tree, err := c.PutTree(ctx, entries)
		if traced {
			rec.add("sdk.put_tree", i, t0, time.Now())
		}
		if err != nil {
			return err
		}
		thunk, err := core.Application(tree)
		if err != nil {
			return err
		}
		t0 = time.Now()
		js, err := c.SubmitAsync(ctx, thunk)
		if traced {
			rec.add("sdk.submit_async", i, t0, time.Now())
		}
		if err != nil {
			return err
		}
		t0 = time.Now()
		js, err = c.AwaitJob(ctx, js.ID)
		if traced {
			rec.add("sdk.await_job", i, t0, time.Now())
		}
		if err != nil {
			return err
		}
		if js.State != jobs.StateDone {
			return fmt.Errorf("job %s ended %s: %s", js.ID, js.State, js.Err)
		}
		if rec != nil {
			rec.observe("jobs.queue_wait", js.Started.Sub(js.Enqueued))
			rec.observe("jobs.run", js.Finished.Sub(js.Started))
		}
		return checkSum(js.Result, a)
	}
	before, sizeBefore := e.srv.Stats(), sizeOf(e.st)
	dirBefore, journalBefore := dirBytes(dir), fileBytes(journal)
	return &system{
		op: op,
		close: func() {
			e.close()
			_ = dur.Close()
			_ = os.RemoveAll(dir)
		},
		layers: func(vals map[string]float64, ops int64) {
			e.layers(vals, before)
			storeLayers(vals, ops, sizeBefore, e.st)
			if ops > 0 {
				vals["jobs.journal_bytes_per_op"] = float64(fileBytes(journal)-journalBefore) / float64(ops)
				vals["durable.bytes_per_op"] = float64(dirBytes(dir)-dirBefore) / float64(ops)
			}
		},
		engines: func() []*runtime.Engine { return []*runtime.Engine{e.eng} },
	}, nil
}

func fileBytes(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}

// ---- cluster_mapreduce ----

// clusterPlan is the seeded shape of cluster_mapreduce's jobs. Jobs take
// their search strings in a seeded order: every 3-gram of a..z once, then
// every 4-gram, so each job is a distinct thunk and (a 3-gram occurs ~29
// times in 1 MiB of the corpus) has real matches to count.
type clusterPlan struct {
	seed      int64
	chunks    int
	jobChunks int
	three     []int
	four      []int
}

func newClusterPlan(cfg *config) *clusterPlan {
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x6e6565646c65))
	return &clusterPlan{seed: cfg.seed, chunks: cfg.sz.chunks, jobChunks: cfg.sz.jobChunks,
		three: rng.Perm(26 * 26 * 26), four: rng.Perm(26 * 26 * 26 * 26)}
}

// clusterRequest is one job: count needle in the chunks numbered chunks;
// verify says whether the count is recomputed after the run.
type clusterRequest struct {
	needle string
	chunks []int
	verify bool
}

func (p *clusterPlan) request(i uint64) clusterRequest {
	gram := func(v, width int) string {
		b := make([]byte, width)
		for k := range b {
			b[k] = byte('a' + v%26)
			v /= 26
		}
		return string(b)
	}
	var q clusterRequest
	if i < uint64(len(p.three)) {
		q.needle = gram(p.three[i], 3)
	} else {
		q.needle = gram(p.four[(i-uint64(len(p.three)))%uint64(len(p.four))], 4)
	}
	// A seeded draw of jobChunks distinct chunks.
	r := newOpRand(p.seed, i)
	for len(q.chunks) < p.jobChunks {
		c := int(r.next() % uint64(p.chunks))
		if !slices.Contains(q.chunks, c) {
			q.chunks = append(q.chunks, c)
		}
	}
	q.verify = r.next()%32 == 0
	return q
}

func setupCluster(cfg *config) (*system, error) {
	reg := runtime.NewRegistry()
	wiki.Register(reg, wiki.Config{}) // ComputePerByte 0: the scan is real work
	reg = cfg.rec.wrapRegistry(reg)
	rec := cfg.rec

	// Node settings are the fixpoint daemon's defaults.
	newNode := func(id string, clientOnly bool) *cluster.Node {
		return cluster.NewNode(id, cluster.NodeOptions{Cores: 32, Registry: reg, ClientOnly: clientOnly, HeartbeatInterval: time.Second})
	}
	var (
		nodes     []*cluster.Node
		listeners []*transport.Listener
	)
	closeAll := func() {
		for _, l := range listeners {
			_ = l.Close()
		}
		for _, n := range nodes {
			n.Close()
		}
	}
	// The corpus goes onto the workers before they connect, so their
	// Hellos advertise it.
	data := cfg.chunks()
	handles := make([]core.Handle, len(data))
	for w := 0; w < workers; w++ {
		nodes = append(nodes, newNode(fmt.Sprintf("w%d", w), false))
	}
	for c := range data {
		handles[c] = nodes[c%workers].Store().PutBlob(data[c])
	}
	client := newNode("client", true)
	nodes = append(nodes, client)
	for w := 0; w < workers; w++ {
		l, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			closeAll()
			return nil, err
		}
		listeners = append(listeners, l)
		n := nodes[w]
		go func() {
			// Returns net.ErrClosed when closeAll closes the listener.
			_ = transport.Serve(l, func(c transport.Conn) { n.AttachPeer(rec.wrapConn(c)) })
		}()
	}
	// Full mesh over real loopback TCP: every node dials the workers
	// listed before it.
	for i, n := range nodes {
		for j := 0; j < i && j < workers; j++ {
			c, err := transport.Dial(listeners[j].Addr().String())
			if err != nil {
				closeAll()
				return nil, err
			}
			n.AttachPeer(rec.wrapConn(c))
		}
	}
	deadline := time.Now().Add(opTimeout)
	for _, n := range nodes {
		for len(n.Peers()) < len(nodes)-1 {
			if time.Now().After(deadline) {
				closeAll()
				return nil, fmt.Errorf("node %s joined %d of %d peers", n.ID(), len(n.Peers()), len(nodes)-1)
			}
			time.Sleep(time.Millisecond)
		}
	}

	var (
		plan    = newClusterPlan(cfg)
		mu      sync.Mutex
		sampled []clusterSample
	)
	op := func(ctx context.Context, w int, i uint64) error {
		q := plan.request(i)
		chunks := make([]core.Handle, len(q.chunks))
		for k, c := range q.chunks {
			chunks[k] = handles[c]
		}
		ctx, traced := rec.sampled(ctx, i)
		t0 := time.Now()
		job, err := wiki.BuildJob(client.Store(), q.needle, chunks)
		if err != nil {
			return err
		}
		t1 := time.Now()
		if traced {
			hs := jobHandles(client.Store(), job)
			rec.register(i, hs...)
			defer rec.forget(hs...)
		}
		res, err := client.Eval(ctx, job)
		t2 := time.Now()
		if rec != nil {
			rec.nodeEvalNS.Add(int64(t2.Sub(t1)))
		}
		if traced {
			rec.add("op", i, t0, t2)
			rec.add("wiki.build_job", i, t0, t1)
			rec.add("cluster.eval", i, t1, t2)
		}
		if err != nil {
			return err
		}
		if !res.IsLiteral() || res.Kind() != core.KindBlob {
			return fmt.Errorf("job %q: result %v is not a count", q.needle, res)
		}
		got, err := core.DecodeU64(res.LiteralData())
		if err != nil {
			return fmt.Errorf("job %q: %w", q.needle, err)
		}
		if q.verify {
			mu.Lock()
			sampled = append(sampled, clusterSample{clusterRequest: q, got: got})
			mu.Unlock()
		}
		return nil
	}
	stores := make([]*store.Store, len(nodes))
	for k, n := range nodes {
		stores[k] = n.Store()
	}
	netBefore, sizeBefore := clusterNet(nodes), sizeOf(stores...)
	return &system{
		op:    op,
		close: closeAll,
		verify: func() (checked, wrong int64) {
			mu.Lock()
			defer mu.Unlock()
			for _, s := range sampled {
				var want uint64
				for _, c := range s.chunks {
					want += wiki.CountNonOverlapping(data[c], []byte(s.needle))
				}
				checked++
				if want != s.got {
					wrong++
				}
			}
			return
		},
		layers: func(vals map[string]float64, ops int64) {
			net := clusterNet(nodes)
			if ops > 0 {
				vals["cluster.delegations_per_op"] = float64(net.JobsDelegated-netBefore.JobsDelegated) / float64(ops)
			}
			vals["cluster.jobs_replaced"] = float64(net.JobsReplaced - netBefore.JobsReplaced)
			vals["cluster.local_fallbacks"] = float64(net.JobsLocalFallback - netBefore.JobsLocalFallback)
			storeLayers(vals, ops, sizeBefore, stores...)
		},
		engines: func() []*runtime.Engine {
			out := make([]*runtime.Engine, len(nodes))
			for k, n := range nodes {
				out[k] = n.Engine()
			}
			return out
		},
	}, nil
}

// clusterSample is one job kept for recomputation after the timed phases.
type clusterSample struct {
	clusterRequest
	got uint64
}

// clusterNet sums the nodes' delegation counters.
func clusterNet(nodes []*cluster.Node) cluster.NetStats {
	var sum cluster.NetStats
	for _, n := range nodes {
		s := n.NetStats()
		sum.JobsDelegated += s.JobsDelegated
		sum.JobsReplaced += s.JobsReplaced
		sum.JobsLocalFallback += s.JobsLocalFallback
	}
	return sum
}

// jobHandles lists the encodes and invocation trees of a job's dataflow,
// the handles a delegation or a result frame is addressed by.
func jobHandles(st *store.Store, job core.Handle) []core.Handle {
	var out []core.Handle
	var walk func(h core.Handle)
	walk = func(h core.Handle) {
		if h.RefKind() != core.RefEncode {
			return
		}
		thunk, err := core.EncodedThunk(h)
		if err != nil {
			return
		}
		tree, err := core.ThunkDefinition(thunk)
		if err != nil {
			return
		}
		out = append(out, h, tree)
		entries, err := st.Tree(tree)
		if err != nil {
			return
		}
		for _, e := range entries {
			walk(e)
		}
	}
	walk(job)
	return out
}
