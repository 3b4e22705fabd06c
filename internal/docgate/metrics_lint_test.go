package docgate

import (
	"bytes"
	"net/http/httptest"
	"os"
	"regexp"
	"testing"

	"fixgo/internal/cluster"
	"fixgo/internal/durable"
	"fixgo/internal/gateway"
	"fixgo/internal/obsv"
	"fixgo/internal/storage"
)

// familyName is the naming contract for every metric family this repo
// serves: a fixgate_/fixpoint_ prefix and lowercase snake_case.
var familyName = regexp.MustCompile(`^(fixgate|fixpoint)_[a-z0-9]+(_[a-z0-9]+)*$`)

// TestMetricFamiliesNamedAndDocumented builds the real registries — the
// gateway's (with cluster, async, durable, and tenant sections active)
// and a worker's — and requires every family they emit to follow the
// naming contract and to appear in ARCHITECTURE.md's metric table.
// Families are assembled at scrape time ("fixgate_" + name inside the
// collectors), so only constructing the registries sees them all; a
// source scan would not.
func TestMetricFamiliesNamedAndDocumented(t *testing.T) {
	arch, err := os.ReadFile("../../ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}

	// The gateway over a client-only cluster node, with every optional
	// stats section switched on — a storage tier included, so the
	// fixgate_storage_* families emit.
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
	defer edge.Close()
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
	defer srv.Close()
	// One tenant-attributed upload so the tenant-labeled families emit.
	req := httptest.NewRequest("POST", "/v1/blobs", bytes.NewReader([]byte("lint-probe")))
	req.Header.Set(gateway.TenantHeader, "lint")
	srv.Handler().ServeHTTP(httptest.NewRecorder(), req)

	// A worker's registry, durable and storage sections included.
	worker := cluster.NewNode("w0", cluster.NodeOptions{Cores: 1})
	worker.SetTier(newTier(), 0)
	defer worker.Close()
	workerReg, _ := cluster.NewNodeMetrics(worker, func() durable.Stats { return durable.Stats{} })

	lint := func(origin string, reg *obsv.Registry) {
		fams := reg.Snapshot()
		if len(fams) == 0 {
			t.Fatalf("%s: registry emitted no families", origin)
		}
		for _, f := range fams {
			if !familyName.MatchString(f.Name) {
				t.Errorf("%s: family %q violates the fixgate_/fixpoint_ snake_case naming contract", origin, f.Name)
			}
			if !bytes.Contains(arch, []byte(f.Name)) {
				t.Errorf("%s: family %q is not documented in ARCHITECTURE.md's metric table", origin, f.Name)
			}
		}
	}
	lint("gateway", srv.Metrics())
	lint("worker", workerReg)

	// The batch, storage and edge families are pinned by name, not just
	// by emission: if a collector refactor stops emitting one, the implicit
	// loop above goes silent, but operators' dashboards still reference
	// these — so both the registry and the doc table must keep them.
	required := []string{
		"fixgate_batch_requests_total",
		"fixgate_batch_items_total",
		"fixgate_batch_max_items",
		"fixgate_batch_size",
		"fixgate_storage_lfc_hits_total",
		"fixgate_storage_lfc_bytes",
		"fixgate_storage_lfc_budget_bytes",
		"fixgate_storage_remote_gets_total",
		"fixgate_storage_uploads_pending",
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
	emitted := map[string]bool{}
	for _, f := range srv.Metrics().Snapshot() {
		emitted[f.Name] = true
	}
	for _, name := range required {
		if !emitted[name] {
			t.Errorf("gateway registry no longer emits required family %q", name)
		}
		if !bytes.Contains(arch, []byte(name)) {
			t.Errorf("required family %q is not documented in ARCHITECTURE.md's metric table", name)
		}
	}
}
