package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode"

	"fixgo/internal/cluster"
	"fixgo/internal/core"
	"fixgo/internal/durable"
	"fixgo/internal/obsv"
	"fixgo/internal/runtime"
	"fixgo/internal/storage"
	"fixgo/internal/transport"
)

// scrape fetches /metrics through the client's transport and returns the
// response plus body.
func scrape(t *testing.T, c *Client) (*http.Response, string) {
	t.Helper()
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	return resp, string(body)
}

// familiesOf extracts the family names from an exposition body, in
// encounter order, from the # TYPE lines.
func familiesOf(body string) []string {
	var names []string
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			if parts := strings.Fields(line); len(parts) >= 3 {
				names = append(names, parts[2])
			}
		}
	}
	return names
}

// TestMetricsContentTypeAndOrder pins the scrape contract: the exact
// Prometheus text content type, # HELP before # TYPE for every family,
// and a deterministic sorted family order that holds across scrapes.
func TestMetricsContentTypeAndOrder(t *testing.T) {
	srv, c := newTestGateway(t, Options{CacheEntries: 64})
	ctx := context.Background()
	th := addJob(t, c, 40, 2)
	if _, err := c.Submit(ctx, th); err != nil {
		t.Fatal(err)
	}

	resp, body := scrape(t, c)
	if got := resp.Header.Get("Content-Type"); got != obsv.ContentType {
		t.Errorf("Content-Type = %q, want %q", got, obsv.ContentType)
	}

	names := familiesOf(body)
	if len(names) == 0 {
		t.Fatal("no families in scrape")
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("families are not sorted: %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i] == names[i-1] {
			t.Errorf("family %q emitted twice", names[i])
		}
	}
	for _, n := range names {
		if !strings.Contains(body, "# HELP "+n+" ") {
			t.Errorf("family %q has no # HELP line", n)
		}
	}

	// The core families the docs promise are present.
	for _, want := range []string{
		"fixgate_request_seconds",
		"fixgate_stage_seconds",
		"fixgate_cache_hits_total",
		"fixgate_cache_misses_total",
		"fixgate_admission_waiting",
		"fixgate_traces_retained",
	} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("scrape is missing family %q", want)
		}
	}
	// The sync submission above fed the stage histogram.
	if !strings.Contains(body, `stage="gateway"`) {
		t.Error("fixgate_stage_seconds has no gateway stage after a sync submission")
	}

	// Determinism: an immediately repeated scrape with no intervening
	// traffic is byte-identical.
	if _, again := scrape(t, c); again != body {
		t.Error("two idle scrapes differ; encoding is not deterministic")
	}
	_ = srv
}

// toSnake converts a Go field name to its snake_case metric fragment
// (GCPasses → gc_passes), for structs whose fields carry no json tags.
func toSnake(name string) string {
	runes := []rune(name)
	var b strings.Builder
	for i, r := range runes {
		if unicode.IsUpper(r) {
			if i > 0 && (!unicode.IsUpper(runes[i-1]) || (i+1 < len(runes) && unicode.IsLower(runes[i+1]))) {
				b.WriteByte('_')
			}
			r = unicode.ToLower(r)
		}
		b.WriteRune(r)
	}
	return b.String()
}

func isNumericKind(k reflect.Kind) bool {
	switch k {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		return true
	}
	return false
}

// TestStatsMetricsParity walks every numeric field of the /v1/stats
// report by reflection and demands a corresponding fixgate_* family in
// the registry, so a counter added to Stats cannot silently miss the
// scrape. Aliases cover the few fields whose family names diverge from
// their json tags for Prometheus-idiom reasons.
func TestStatsMetricsParity(t *testing.T) {
	// The edge carries a storage tier so the stats report's storage
	// section (and its fixgate_storage_* families) is exercised too.
	remote, err := storage.NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tier, err := storage.NewLFC(t.TempDir(), 1<<20, remote)
	if err != nil {
		t.Fatal(err)
	}
	edge := cluster.NewNode("edge", cluster.NodeOptions{Cores: 1, ClientOnly: true})
	edge.SetTier(tier, 0)
	defer edge.Close()
	srv, c := newTestGateway(t, Options{
		Backend:       edge,
		CacheEntries:  16,
		AsyncWorkers:  2,
		EdgeID:        "gw-parity",
		DurableStats:  func() durable.Stats { return durable.Stats{} },
		PersistErrors: func() uint64 { return 0 },
	})
	// One tenant-attributed job so the tenant-labeled families emit: a
	// literal evaluates to itself.
	alice := NewClient(c.base, WithTenant("alice"), WithHTTPClient(c.hc))
	if _, err := alice.Submit(context.Background(), core.LiteralU64(5)); err != nil {
		t.Fatal(err)
	}

	families := map[string]bool{}
	for _, f := range srv.Metrics().Snapshot() {
		families[f.Name] = true
	}

	st := srv.Stats()
	if st.Jobs == nil || st.Cluster == nil || st.Durable == nil || st.Storage == nil || st.Edge == nil {
		t.Fatalf("stats sections missing: jobs=%v cluster=%v durable=%v storage=%v edge=%v",
			st.Jobs != nil, st.Cluster != nil, st.Durable != nil, st.Storage != nil, st.Edge != nil)
	}

	aliases := map[string]string{
		"fixgate_cluster_evicted": "fixgate_cluster_peers_evicted_total",
		"fixgate_async_depth":     "fixgate_async_queue_depth",
	}

	check := func(prefix string, v reflect.Value) {
		tp := v.Type()
		for i := 0; i < tp.NumField(); i++ {
			f := tp.Field(i)
			if !isNumericKind(f.Type.Kind()) {
				continue
			}
			tag := strings.Split(f.Tag.Get("json"), ",")[0]
			if tag == "" {
				tag = toSnake(f.Name)
			}
			base := prefix + tag
			candidates := []string{base, base + "_total"}
			if strings.HasSuffix(tag, "_ns") {
				candidates = append(candidates, prefix+strings.TrimSuffix(tag, "_ns")+"_seconds")
			}
			if alias, ok := aliases[base]; ok {
				candidates = []string{alias}
			}
			found := false
			for _, cand := range candidates {
				if families[cand] {
					found = true
				}
			}
			if !found {
				t.Errorf("stats field %s.%s has no metric family (tried %v)", tp.Name(), f.Name, candidates)
			}
		}
	}
	check("fixgate_", reflect.ValueOf(st))
	check("fixgate_cache_", reflect.ValueOf(st.Cache))
	check("fixgate_admission_", reflect.ValueOf(st.Admission))
	check("fixgate_batch_", reflect.ValueOf(st.Batch))
	check("fixgate_async_", reflect.ValueOf(*st.Jobs))
	check("fixgate_cluster_", reflect.ValueOf(*st.Cluster))
	check("fixgate_durable_", reflect.ValueOf(*st.Durable))
	check("fixgate_storage_", reflect.ValueOf(*st.Storage))
	check("fixgate_edge_", reflect.ValueOf(*st.Edge))

	for _, want := range []string{"fixgate_tenant_jobs_total", "fixgate_tenant_rejected_total"} {
		if !families[want] {
			t.Errorf("tenant family %q missing after tenant activity", want)
		}
	}
}

// traceWorkRegistry registers a native function that sleeps a bit and
// doubles its argument — enough compute for a visible remote_eval span.
func traceWorkRegistry(name string) *runtime.Registry {
	reg := runtime.NewRegistry()
	reg.RegisterFunc(name, func(api core.API, input core.Handle) (core.Handle, error) {
		entries, err := api.AttachTree(input)
		if err != nil {
			return core.Handle{}, err
		}
		b, err := api.AttachBlob(entries[2])
		if err != nil {
			return core.Handle{}, err
		}
		time.Sleep(5 * time.Millisecond)
		v, _ := core.DecodeU64(b)
		return api.CreateBlob(core.LiteralU64(v * 2).LiteralData()), nil
	})
	return reg
}

// TestTraceEndToEndOverCluster is the PR's acceptance check: one thunk
// submitted through the HTTP gateway over a two-worker cluster yields a
// resolvable trace whose gateway, queue, delegation, and remote-eval
// spans all have non-zero durations, and the worker that ran the job
// retains the same trace ID in its own ring.
func TestTraceEndToEndOverCluster(t *testing.T) {
	link := transport.LinkConfig{Latency: 200 * time.Microsecond}
	edge := cluster.NewNode("edge", cluster.NodeOptions{Cores: 1, ClientOnly: true})
	defer edge.Close()
	reg := traceWorkRegistry("tracework")
	workerTracers := map[string]*obsv.Tracer{}
	var workers []*cluster.Node
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("w%d", i)
		w := cluster.NewNode(name, cluster.NodeOptions{Cores: 2, Registry: reg})
		defer w.Close()
		_, wt := cluster.NewNodeMetrics(w, nil)
		w.SetTracer(wt)
		cluster.Connect(edge, w, link)
		workerTracers[name] = wt
		workers = append(workers, w)
	}
	cluster.FullMesh(link, workers...)

	srv, c := newTestGateway(t, Options{Backend: edge, CacheEntries: 64})
	ctx := context.Background()
	fn, err := c.PutBlob(ctx, core.NativeFunctionBlob("tracework"))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := c.PutTree(ctx, core.InvocationTree(core.DefaultLimits.Handle(), fn, core.LiteralU64(21)))
	if err != nil {
		t.Fatal(err)
	}
	th, err := core.Application(tree)
	if err != nil {
		t.Fatal(err)
	}

	// Raw POST so the reply's trace ID and the response header are both
	// visible (the SDK client hides them).
	body, err := json.Marshal(JobRequest{Handle: core.FormatHandle(th)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.hc.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var reply JobReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if reply.Trace == "" {
		t.Fatal("JobReply carries no trace ID")
	}
	if got := resp.Header.Get(TraceHeader); got != reply.Trace {
		t.Errorf("%s header = %q, reply trace = %q", TraceHeader, got, reply.Trace)
	}

	// The trace is published to the ring when the handler unwinds, which
	// may race the response bytes by a hair — poll briefly.
	var view obsv.TraceView
	deadline := time.Now().Add(2 * time.Second)
	for {
		tr, err := c.hc.Get(c.base + "/v1/trace/" + reply.Trace)
		if err != nil {
			t.Fatal(err)
		}
		if tr.StatusCode == http.StatusOK {
			if err := json.NewDecoder(tr.Body).Decode(&view); err != nil {
				t.Fatal(err)
			}
			tr.Body.Close()
			break
		}
		io.Copy(io.Discard, tr.Body)
		tr.Body.Close()
		if time.Now().After(deadline) {
			t.Fatalf("GET /v1/trace/%s never resolved (last status %d)", reply.Trace, tr.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if view.ID != reply.Trace || view.Op != "sync" {
		t.Errorf("trace view id=%q op=%q, want id=%q op=sync", view.ID, view.Op, reply.Trace)
	}
	if view.Outcome != string(OutcomeMiss) {
		t.Errorf("trace outcome = %q, want %q", view.Outcome, OutcomeMiss)
	}
	if view.TotalNS <= 0 {
		t.Errorf("trace total = %d ns, want > 0", view.TotalNS)
	}
	spans := map[string]obsv.SpanView{}
	for _, sp := range view.Spans {
		spans[sp.Name] = sp
	}
	for _, want := range []string{"gateway", "queue_wait", "backend_eval", "placement", "delegate", "remote_eval"} {
		sp, ok := spans[want]
		if !ok {
			t.Errorf("trace is missing span %q (have %v)", want, view.Spans)
			continue
		}
		if sp.DurNS <= 0 {
			t.Errorf("span %q duration = %d ns, want > 0", want, sp.DurNS)
		}
	}
	worker := spans["delegate"].Node
	if workerTracers[worker] == nil {
		t.Fatalf("delegate span names unknown worker %q", worker)
	}
	if re := spans["remote_eval"]; re.Node != worker {
		t.Errorf("remote_eval ran on %q, delegate went to %q", re.Node, worker)
	}
	if re := spans["remote_eval"]; re.DurNS < (5 * time.Millisecond).Nanoseconds() {
		t.Errorf("remote_eval = %d ns, want ≥ the 5ms service time", re.DurNS)
	}

	// Wire propagation: the chosen worker retains the same ID in its own
	// ring, with its local eval span attributed to itself.
	wview, ok := workerTracers[worker].Get(reply.Trace)
	if !ok {
		t.Fatalf("worker %s has no trace %s", worker, reply.Trace)
	}
	if wview.Op != "remote_job" {
		t.Errorf("worker trace op = %q, want remote_job", wview.Op)
	}
	evalSeen := false
	for _, sp := range wview.Spans {
		if sp.Name == "eval" && sp.Node == worker && sp.DurNS > 0 {
			evalSeen = true
		}
	}
	if !evalSeen {
		t.Errorf("worker trace has no local eval span: %v", wview.Spans)
	}

	// The digest endpoint surfaces the finished trace and its stage
	// quantiles.
	dr, err := c.hc.Get(c.base + "/v1/trace?slowest=5")
	if err != nil {
		t.Fatal(err)
	}
	var digest obsv.Digest
	if err := json.NewDecoder(dr.Body).Decode(&digest); err != nil {
		t.Fatal(err)
	}
	dr.Body.Close()
	if digest.Retained < 1 {
		t.Errorf("digest retained = %d, want ≥ 1", digest.Retained)
	}
	found := false
	for _, s := range digest.Slowest {
		if s.ID == reply.Trace {
			found = true
		}
	}
	if !found {
		t.Errorf("digest slowest does not include trace %s", reply.Trace)
	}
	if len(digest.Stages) == 0 {
		t.Error("digest has no stage quantiles after a finished trace")
	}
	_ = srv
}

// TestStatsScrapeUnderShardLoad is the regression for the stats race
// the sharding pass fixed: /v1/stats used to read per-tenant maps and
// admission counters without a lock while handlers mutated them. Now
// every source is atomic or shard-locked; this hammers mixed-tenant
// single and batch submissions from many goroutines while scraping
// Stats(), /v1/stats, and /metrics concurrently (run under -race), then
// checks the final snapshot adds up.
func TestStatsScrapeUnderShardLoad(t *testing.T) {
	srv, c := newTestGateway(t, Options{CacheEntries: 128})
	ctx := context.Background()
	const clients, perClient, batchN = 6, 20, 4

	tenants := make([]*Client, clients)
	for i := range tenants {
		tenants[i] = NewClient(c.base, WithTenant(fmt.Sprintf("t%d", i%3)), WithHTTPClient(c.hc))
	}

	done := make(chan struct{})
	var scrapers sync.WaitGroup
	for g := 0; g < 3; g++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				st := srv.Stats() // direct in-process snapshot
				if n := tenantJobs(st); n > uint64(clients*perClient*(1+batchN)) {
					t.Errorf("snapshot overcounts: %d jobs", n)
					return
				}
				for _, path := range []string{"/v1/stats", "/metrics"} {
					resp, err := c.hc.Get(c.base + path)
					if err != nil {
						t.Errorf("GET %s: %v", path, err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cl := tenants[ci]
			for i := 0; i < perClient; i++ {
				// Overlapping keyspace across clients: hits, collapses,
				// and misses all exercised concurrently.
				if _, err := cl.Submit(ctx, key(uint64(ci*perClient+i)%17)); err != nil {
					t.Errorf("client %d submit: %v", ci, err)
					return
				}
				hs := make([]core.Handle, batchN)
				for j := range hs {
					hs[j] = key(uint64(i*batchN+j) % 29)
				}
				if _, err := cl.SubmitBatch(ctx, hs); err != nil {
					t.Errorf("client %d batch: %v", ci, err)
					return
				}
			}
		}(ci)
	}
	wg.Wait()
	close(done)
	scrapers.Wait()

	st := srv.Stats()
	total := uint64(clients * perClient * (1 + batchN))
	if n := tenantJobs(st); n != total {
		t.Errorf("tenant job totals %d != %d submissions", n, total)
	}
	if st.Batch.Requests != uint64(clients*perClient) || st.Batch.Items != uint64(clients*perClient*batchN) {
		t.Errorf("batch stats = %+v, want %d requests / %d items", st.Batch, clients*perClient, clients*perClient*batchN)
	}
}

// tenantJobs sums the job submissions of every tenant in st.
func tenantJobs(st Stats) uint64 {
	var n uint64
	for _, ts := range st.Tenants {
		n += ts.Jobs
	}
	return n
}

// TestScrapeWhileServing hammers /metrics, /v1/stats, and the trace
// digest while concurrent submissions mutate the cache, admission,
// tracer, and the backend node's NetStats — the data-race check for the
// whole observability path over a real cluster backend (run under
// -race).
func TestScrapeWhileServing(t *testing.T) {
	link := transport.LinkConfig{Latency: 100 * time.Microsecond}
	edge := cluster.NewNode("edge", cluster.NodeOptions{Cores: 1, ClientOnly: true})
	defer edge.Close()
	worker := cluster.NewNode("w0", cluster.NodeOptions{Cores: 4, Registry: traceWorkRegistry("scrapework")})
	defer worker.Close()
	_, wt := cluster.NewNodeMetrics(worker, nil)
	worker.SetTracer(wt)
	cluster.Connect(edge, worker, link)

	_, c := newTestGateway(t, Options{
		Backend: edge, CacheEntries: 64, AsyncWorkers: 2,
		DurableStats: func() durable.Stats { return durable.Stats{} },
	})
	ctx := context.Background()

	// Build distinct jobs up front; the goroutines below only submit.
	fn, err := c.PutBlob(ctx, core.NativeFunctionBlob("scrapework"))
	if err != nil {
		t.Fatal(err)
	}
	const perClient, clients = 10, 3
	thunks := make([]core.Handle, perClient*clients)
	for i := range thunks {
		tree, err := c.PutTree(ctx, core.InvocationTree(core.DefaultLimits.Handle(), fn, core.LiteralU64(uint64(i))))
		if err != nil {
			t.Fatal(err)
		}
		if thunks[i], err = core.Application(tree); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if _, err := c.Submit(ctx, thunks[ci*perClient+i]); err != nil {
					t.Errorf("submit: %v", err)
				}
			}
		}(ci)
	}
	var scrapers sync.WaitGroup
	for g := 0; g < 2; g++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, path := range []string{"/metrics", "/v1/stats", "/v1/trace?slowest=3"} {
					resp, err := c.hc.Get(c.base + path)
					if err != nil {
						t.Errorf("GET %s: %v", path, err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("GET %s: status %d", path, resp.StatusCode)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	scrapers.Wait()
}
