package docgate

import (
	"bytes"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"fixgo/internal/cluster"
	"fixgo/internal/core"
	"fixgo/internal/durable"
	"fixgo/internal/gateway"
	"fixgo/internal/storage"
)

// familyName is the naming contract for every metric family this repo
// serves: a fixgate_/fixpoint_ prefix and lowercase snake_case.
var familyName = regexp.MustCompile(`^(fixgate|fixpoint)_[a-z0-9]+(_[a-z0-9]+)*$`)

// familyToken finds family names in a document; a label suffix such as
// `{stage}` ends the match.
var familyToken = regexp.MustCompile(`\b(fixgate|fixpoint)_[a-z0-9]+(_[a-z0-9]+)*\b`)

// emittedFamilies builds the real registries — the gateway's (with
// cluster, async, durable, storage, edge and tenant sections active)
// and a worker's — and returns the families each emits. Families are
// assembled at scrape time ("fixgate_" + name inside the collectors), so
// only constructing the registries sees them all; a source scan would
// not.
func emittedFamilies(t *testing.T) (gw, worker []string) {
	t.Helper()
	newTier := func() storage.Storage {
		remote, err := storage.NewDir(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		tier, err := storage.NewLFC(t.TempDir(), 1<<20, remote)
		if err != nil {
			t.Fatal(err)
		}
		return tier
	}
	edge := cluster.NewNode("edge", cluster.NodeOptions{Cores: 1, ClientOnly: true})
	edge.SetTier(newTier(), 0)
	t.Cleanup(edge.Close)
	srv, err := gateway.NewServer(gateway.Options{
		Backend:       edge,
		CacheEntries:  16,
		AsyncWorkers:  1,
		EdgeID:        "lint-gw", // joins a (peerless) replicated edge so the fixgate_edge_* families emit
		DurableStats:  func() durable.Stats { return durable.Stats{} },
		PersistErrors: func() uint64 { return 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	// One tenant-attributed job so the tenant-labeled families emit: a
	// literal evaluates to itself.
	body := `{"handle":"` + core.FormatHandle(core.LiteralU64(1)) + `"}`
	req := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body))
	req.Header.Set(gateway.TenantHeader, "lint")
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("tenant probe job: %d %s", rec.Code, rec.Body)
	}

	// A worker's registry, durable and storage sections included.
	w := cluster.NewNode("w0", cluster.NodeOptions{Cores: 1})
	w.SetTier(newTier(), 0)
	t.Cleanup(w.Close)
	workerReg, _ := cluster.NewNodeMetrics(w, func() durable.Stats { return durable.Stats{} })

	for _, f := range srv.Metrics().Snapshot() {
		gw = append(gw, f.Name)
	}
	for _, f := range workerReg.Snapshot() {
		worker = append(worker, f.Name)
	}
	if len(gw) == 0 || len(worker) == 0 {
		t.Fatalf("registries emitted %d gateway and %d worker families", len(gw), len(worker))
	}
	return gw, worker
}

// twin names the same family on the other daemon when both render it
// from one cluster.Emit* function (the *_cluster_*, *_storage_* and
// *_durable_* sections), and "" otherwise.
func twin(name string) string {
	prefix, rest, _ := strings.Cut(name, "_")
	for _, section := range []string{"cluster_", "storage_", "durable_"} {
		if strings.HasPrefix(rest, section) {
			if prefix == "fixgate" {
				return "fixpoint_" + rest
			}
			return "fixgate_" + rest
		}
	}
	return ""
}

// tokens returns the set of family names doc mentions.
func tokens(doc []byte) map[string]bool {
	out := map[string]bool{}
	for _, m := range familyToken.FindAll(doc, -1) {
		out[string(m)] = true
	}
	return out
}

// metricTable returns the family names listed in the rows of
// ARCHITECTURE.md's "### Metric families" table.
func metricTable(t *testing.T, arch []byte) map[string]bool {
	t.Helper()
	_, rest, ok := bytes.Cut(arch, []byte("\n### Metric families\n"))
	if !ok {
		t.Fatal(`ARCHITECTURE.md has no "### Metric families" section`)
	}
	rows := map[string]bool{}
	for _, line := range strings.Split(string(rest), "\n") {
		if strings.HasPrefix(line, "#") {
			break
		}
		if cells := strings.Split(line, "|"); len(cells) > 2 && strings.HasPrefix(line, "| `") {
			for name := range tokens([]byte(cells[1])) {
				rows[name] = true
			}
		}
	}
	if len(rows) == 0 {
		t.Fatal("ARCHITECTURE.md's metric table lists no family")
	}
	return rows
}

// TestMetricFamiliesNamedAndDocumented holds every family the two
// daemons emit to three rules: the naming contract; a row in
// ARCHITECTURE.md's metric table, which lists exactly the emitted set
// (a stale row fails like a missing one); and a mention in
// OPERATIONS.md, because a family no runbook step reads answers no
// operator question. A family both daemons render from one Emit*
// function counts as named when the runbook names it on either daemon.
// A family the runbook names must be emitted.
func TestMetricFamiliesNamedAndDocumented(t *testing.T) {
	arch, err := os.ReadFile("../../ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	ops, err := os.ReadFile("../../OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	gw, worker := emittedFamilies(t)
	t.Logf("%d families: fixgate %d, fixpoint %d", len(gw)+len(worker), len(gw), len(worker))
	emitted := map[string]bool{}
	for _, name := range append(gw, worker...) {
		if !familyName.MatchString(name) {
			t.Errorf("family %q violates the fixgate_/fixpoint_ snake_case naming contract", name)
		}
		emitted[name] = true
	}

	table := metricTable(t, arch)
	runbook := tokens(ops)
	for _, name := range sortedKeys(emitted) {
		if !table[name] {
			t.Errorf("family %q is emitted but has no row in ARCHITECTURE.md's metric table", name)
		}
		if !runbook[name] && !runbook[twin(name)] {
			t.Errorf("family %q is emitted but no OPERATIONS.md step names it: name it in the runbook or delete it", name)
		}
	}
	for _, name := range sortedKeys(table) {
		if !emitted[name] {
			t.Errorf("ARCHITECTURE.md's metric table lists %q, which neither daemon emits", name)
		}
	}
	for _, name := range sortedKeys(runbook) {
		if !emitted[name] && !emitted[twin(name)] {
			t.Errorf("OPERATIONS.md names %q, which neither daemon emits", name)
		}
	}

	// The batch, storage and edge families are pinned by name, not just
	// by emission: if a collector refactor stops emitting one, the checks
	// above go silent, but operators' dashboards still reference these —
	// so both the registry and the doc table must keep them.
	required := []string{
		"fixgate_batch_requests_total",
		"fixgate_batch_items_total",
		"fixgate_batch_max_items",
		"fixgate_batch_size",
		"fixgate_storage_lfc_hits_total",
		"fixgate_storage_lfc_bytes",
		"fixgate_storage_lfc_budget_bytes",
		"fixgate_storage_remote_gets_total",
		"fixgate_storage_remote_errors_total",
		"fixgate_storage_demoted_total",
		"fixgate_storage_tier_fetches_total",
		"fixgate_edge_live",
		"fixgate_edge_undrained",
		"fixgate_edge_peer_lag",
		"fixgate_edge_quorum_timeouts_total",
		"fixgate_edge_takeovers_total",
		"fixgate_edge_adopted_total",
		"fixgate_edge_warm_applied_total",
		"fixgate_edge_hint_stale_total",
	}
	gateway := map[string]bool{}
	for _, name := range gw {
		gateway[name] = true
	}
	for _, name := range required {
		if !gateway[name] {
			t.Errorf("gateway registry no longer emits required family %q", name)
		}
		if !table[name] {
			t.Errorf("required family %q is not documented in ARCHITECTURE.md's metric table", name)
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
