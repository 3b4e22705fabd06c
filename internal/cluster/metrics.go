package cluster

import (
	"fixgo/internal/durable"
	"fixgo/internal/obsv"
	"fixgo/internal/storage"
)

// NewNodeMetrics builds a worker's observability surface: a registry of
// fixpoint_-prefixed families sampled from the node's NetStats, CPU
// accounting, and (optionally) durable store, plus a tracer whose stage
// histogram lives in the same registry. cmd/fixpoint mounts the pair on
// its -debug-addr listener and passes the tracer as NodeOptions.Tracer
// so delegated jobs are recorded under the gateway's propagated trace
// IDs. durableStats may be nil (no -data-dir).
func NewNodeMetrics(n *Node, durableStats func() durable.Stats) (*obsv.Registry, *obsv.Tracer) {
	reg := obsv.NewRegistry()
	stages := reg.HistogramVec("fixpoint_stage_seconds",
		"Latency of traced pipeline stages on this worker, by span name", "stage")
	tr := obsv.NewTracer(256, stages)
	reg.GaugeFunc("fixpoint_traces_retained",
		"Finished traces currently held in the trace ring",
		func() float64 { return float64(tr.Retained()) })
	reg.Collect(func(emit func(obsv.Sample)) {
		counter := func(name, help string, v float64) {
			emit(obsv.Sample{Name: "fixpoint_" + name, Help: help, Type: obsv.TypeCounter, Value: v})
		}
		gauge := func(name, help string, v float64) {
			emit(obsv.Sample{Name: "fixpoint_" + name, Help: help, Type: obsv.TypeGauge, Value: v})
		}

		ns := n.NetStats()
		EmitNetStats(&ns, counter, gauge)

		// Usage(0) yields the raw accumulated core-time (Wall/Idle are
		// meaningless without an interval, and not emitted).
		u := n.Stats().Usage(0)
		counter("cpu_user_seconds_total", "Core-time spent running user code", u.User.Seconds())
		counter("cpu_iowait_seconds_total", "Core-time a claimed slot sat waiting for I/O", u.IOWait.Seconds())

		if ss := n.StorageStats(); ss != nil {
			EmitStorageStats(ss, counter, gauge)
		}

		if durableStats != nil {
			ds := durableStats()
			EmitDurableStats(&ds, counter, gauge)
		}
	})
	return reg, tr
}

// EmitNetStats renders a NetStats snapshot as the *_cluster_* metric
// family set, under the caller's prefix like EmitStorageStats.
func EmitNetStats(ns *NetStats, counter, gauge func(name, help string, v float64)) {
	gauge("cluster_peers", "Live cluster peers", float64(ns.Peers))
	counter("cluster_peers_evicted_total", "Peers evicted on link error or heartbeat timeout", float64(ns.Evicted))
	counter("cluster_jobs_delegated_total", "Jobs shipped to peers", float64(ns.JobsDelegated))
	counter("cluster_jobs_replaced_total", "Delegations re-placed after their worker died", float64(ns.JobsReplaced))
	counter("cluster_jobs_local_fallback_total", "Jobs evaluated locally after delegation failed", float64(ns.JobsLocalFallback))
	counter("cluster_replace_failures_total", "Jobs that could not be re-placed", float64(ns.ReplaceFailures))
	gauge("cluster_replicas", "Configured replication factor", float64(ns.Replicas))
	gauge("cluster_ring_members", "Consistent-hash ring size", float64(ns.RingMembers))
	counter("cluster_replicas_sent_total", "Replica pushes for fresh writes", float64(ns.ReplicasSent))
	counter("cluster_replicas_acked_total", "Replica push acknowledgements", float64(ns.ReplicasAcked))
	counter("cluster_repair_passes_total", "Anti-entropy repair passes", float64(ns.RepairPasses))
	counter("cluster_repair_replicas_sent_total", "Replica pushes sent by repair passes", float64(ns.RepairReplicasSent))
}

// EmitDurableStats renders a durable.Stats snapshot as the *_durable_*
// metric family set, under the caller's prefix like EmitStorageStats.
func EmitDurableStats(ds *durable.Stats, counter, gauge func(name, help string, v float64)) {
	gauge("durable_objects", "Distinct objects in the durable index", float64(ds.Objects))
	gauge("durable_memo_entries", "Thunk and encode journal entries", float64(ds.MemoEntries))
	gauge("durable_pack_bytes", "On-disk pack footprint", float64(ds.PackBytes))
	gauge("durable_truncated_tail", "Torn records dropped during recovery", float64(ds.TruncatedTail))
	counter("durable_gc_passes_total", "Durable store GC passes", float64(ds.GCPasses))
	counter("durable_gc_dropped_total", "Records dropped by durable GC", float64(ds.GCDropped))
}

// EmitStorageStats renders a storage.Stats snapshot through the given
// counter/gauge emitters as the *_storage_* metric family set. The
// worker registry above and the gateway's collector (internal/gateway)
// both call it — under their respective fixpoint_/fixgate_ prefixes — so
// dashboards read the same shape on both daemons.
func EmitStorageStats(ss *storage.Stats, counter, gauge func(name, help string, v float64)) {
	counter("storage_lfc_hits_total", "Reads served by the local file cache", float64(ss.LFCHits))
	counter("storage_lfc_misses_total", "Reads that fell through the local file cache", float64(ss.LFCMisses))
	counter("storage_lfc_evictions_total", "Local file cache evictions under the byte budget", float64(ss.LFCEvictions))
	gauge("storage_lfc_bytes", "Resident local file cache volume", float64(ss.LFCBytes))
	gauge("storage_lfc_budget_bytes", "Configured local file cache byte budget", float64(ss.LFCBudget))
	counter("storage_remote_gets_total", "Reads served by the remote tier", float64(ss.RemoteGets))
	counter("storage_remote_errors_total", "Remote tier operation failures", float64(ss.RemoteErrors))
	counter("storage_demoted_total", "Hot copies evicted after demotion to the tier", float64(ss.Demoted))
	counter("storage_tier_fetches_total", "Fetch misses recovered from the tier", float64(ss.TierFetches))
	counter("storage_tier_fetch_misses_total", "Fetch misses the tier could not recover", float64(ss.TierFetchMisses))
}
