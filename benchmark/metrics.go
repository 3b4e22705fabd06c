package main

// metricDef names one reported metric. The two tables below are the
// single source for what a run prints; BENCHMARK.json mirrors them and
// bench_test.go fails when the two drift apart.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees; every workload reports all
// of them with --trace 0. Bound is the share of the parent's median by
// which the metric may worsen before a change is rejected (README.md
// records the spread that justified each).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "1/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"latency_p99_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.01},
	{"alloc_bytes_per_op", "B", "lower", 0.06},
	{"peak_rss_mib", "MiB", "lower", 0.20},
}

// perLayer is printed only by the traced run (--trace 1), one value per
// metric per workload; a layer the workload does not cross reports 0.
// ns and allocs are medians per call.
var perLayer = []metricDef{
	{Name: "bench.sched_lag_p99_us", Unit: "us", Better: "lower"},
	{Name: "bench.trace_overhead_share", Unit: "share", Better: "lower"},
	{Name: "bench.slice_iqr_share", Unit: "share", Better: "lower"},
	{Name: "bench.unaccounted_share", Unit: "share", Better: "lower"},
	{Name: "bench.failed_share", Unit: "share", Better: "lower"},
	{Name: "bench.open_p50_us", Unit: "us", Better: "lower"},
	{Name: "bench.open_p99_us", Unit: "us", Better: "lower"},
	{Name: "bench.open_slo_miss_share", Unit: "share", Better: "lower"},

	{Name: "core.blob_handle_4k_ns", Unit: "ns", Better: "lower"},
	{Name: "core.tree_handle_ns", Unit: "ns", Better: "lower"},
	{Name: "core.tree_decode_ns", Unit: "ns", Better: "lower"},

	{Name: "store.put_tree_ns", Unit: "ns", Better: "lower"},
	{Name: "store.put_tree_allocs", Unit: "count", Better: "lower"},
	{Name: "store.get_tree_ns", Unit: "ns", Better: "lower"},
	{Name: "store.memo_lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "store.memo_set_ns", Unit: "ns", Better: "lower"},
	{Name: "store.objects_per_op", Unit: "count", Better: "lower"},
	{Name: "store.bytes_per_op", Unit: "B", Better: "lower"},

	{Name: "runtime.eval_ns", Unit: "ns", Better: "lower"},
	{Name: "runtime.eval_allocs", Unit: "count", Better: "lower"},
	{Name: "runtime.self_ns", Unit: "ns", Better: "lower"},
	{Name: "runtime.memo_hit_eval_ns", Unit: "ns", Better: "lower"},
	{Name: "runtime.cpu_waiting_share", Unit: "share", Better: "lower"},
	{Name: "runtime.inflight_max", Unit: "count", Better: "lower"},

	{Name: "codelet.load_ns", Unit: "ns", Better: "lower"},
	{Name: "codelet.run_ns", Unit: "ns", Better: "lower"},
	{Name: "codelet.run_allocs", Unit: "count", Better: "lower"},

	{Name: "proto.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "proto.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "proto.decode_allocs", Unit: "count", Better: "lower"},
	{Name: "proto.frame_bytes_mean", Unit: "B", Better: "lower"},

	{Name: "transport.send_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.rtt_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.frames_per_op", Unit: "count", Better: "lower"},
	{Name: "transport.bytes_per_op", Unit: "B", Better: "lower"},

	{Name: "cluster.eval_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.delegations_per_op", Unit: "count", Better: "lower"},
	{Name: "cluster.fetches_per_op", Unit: "count", Better: "lower"},
	{Name: "cluster.apply_share", Unit: "share", Better: "higher"},
	{Name: "cluster.jobs_replaced", Unit: "count", Better: "lower"},
	{Name: "cluster.local_fallbacks", Unit: "count", Better: "lower"},

	{Name: "objstore.ring_owners_ns", Unit: "ns", Better: "lower"},

	{Name: "gateway.handler_ns", Unit: "ns", Better: "lower"},
	{Name: "gateway.self_ns", Unit: "ns", Better: "lower"},
	{Name: "gateway.backend_eval_ns", Unit: "ns", Better: "lower"},
	{Name: "gateway.http_overhead_ns", Unit: "ns", Better: "lower"},
	{Name: "gateway.put_tree_ns", Unit: "ns", Better: "lower"},
	{Name: "gateway.cache_hit_share", Unit: "share", Better: "higher"},
	{Name: "gateway.collapsed_share", Unit: "share", Better: "higher"},
	{Name: "gateway.shed_share", Unit: "share", Better: "lower"},
	{Name: "gateway.trace_gap_share", Unit: "share", Better: "lower"},

	{Name: "jobs.accept_ns", Unit: "ns", Better: "lower"},
	{Name: "jobs.queue_wait_ns", Unit: "ns", Better: "lower"},
	{Name: "jobs.run_ns", Unit: "ns", Better: "lower"},
	{Name: "jobs.journal_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "jobs.retries", Unit: "count", Better: "lower"},

	{Name: "durable.persist_ns", Unit: "ns", Better: "lower"},
	{Name: "durable.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "durable.persist_errors", Unit: "count", Better: "lower"},
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill builds the printed metric map from measured values, and reports
// the names in defs that were not measured.
func fill(defs []metricDef, vals map[string]float64) (map[string]metricValue, []string) {
	out := make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, missing
}
