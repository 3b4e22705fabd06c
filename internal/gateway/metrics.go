package gateway

import (
	"net/http"
	"time"

	"fixgo/internal/cluster"
	"fixgo/internal/obsv"
)

// This file is the gateway's side of the obsv migration: one Registry
// holds every fixgate_* family — the request/stage/persist histograms
// instrumented directly, and everything the Stats() snapshot already
// counts emitted through a scrape-time Collector so no counter is kept
// twice. The hand-rolled /metrics printer this replaces emitted the same
// family names; dashboards keyed on them keep working, and the encoder
// adds # HELP/# TYPE headers, sorted family order, and the proper
// content type on top.

// initMetrics builds the registry and tracer. Called once from
// NewServer, before the jobs manager (whose Trace hook closes over
// s.tracer).
func (s *Server) initMetrics() {
	reg := obsv.NewRegistry()
	s.stageHist = reg.HistogramVec("fixgate_stage_seconds",
		"Latency of traced pipeline stages, by span name", "stage")
	s.reqHist = reg.Histogram("fixgate_request_seconds",
		"End-to-end latency of synchronous job submissions")
	s.persistHist = reg.HistogramVec("fixgate_persist_seconds",
		"Durable write-through latency, by record kind", "op")
	s.batchSize = reg.SizeHistogram("fixgate_batch_size",
		"Items per accepted POST /v1/jobs:batch submission")
	s.tracer = obsv.NewTracer(s.opts.TraceEntries, s.stageHist)
	reg.GaugeFunc("fixgate_traces_retained",
		"Finished traces currently held in the trace ring",
		func() float64 { return float64(s.tracer.Retained()) })
	reg.Collect(s.collectStats)
	s.reg = reg
}

// Metrics exposes the gateway's registry — cmd/fixgate mounts it on the
// debug listener, and tests scrape it directly.
func (s *Server) Metrics() *obsv.Registry { return s.reg }

// Tracer exposes the gateway's trace ring (GET /v1/trace serves it).
func (s *Server) Tracer() *obsv.Tracer { return s.tracer }

// PersistObserver returns a recorder compatible with
// durable.Options.Observe, feeding the fixgate_persist_seconds
// histogram. The boot path wires it into the durable store it opened
// before the server existed.
func (s *Server) PersistObserver() func(op string, took time.Duration) {
	return func(op string, took time.Duration) {
		s.persistHist.With(persistOpLabel(op)).ObserveDuration(took)
	}
}

// persistOpLabel maps durable's human-readable op names ("thunk memo")
// onto label-safe snake_case.
func persistOpLabel(op string) string {
	switch op {
	case "thunk memo":
		return "thunk_memo"
	case "encode memo":
		return "encode_memo"
	default:
		return op // "blob", "tree"
	}
}

// collectStats emits every snapshot-derived family from one Stats()
// call per scrape. Family names are frozen API: they predate the
// registry (the old fmt.Fprintf printer), and the parity test pins a
// family for every numeric /v1/stats field.
func (s *Server) collectStats(emit func(obsv.Sample)) {
	st := s.Stats()
	counter := func(name, help string, v float64) {
		emit(obsv.Sample{Name: "fixgate_" + name, Help: help, Type: obsv.TypeCounter, Value: v})
	}
	gauge := func(name, help string, v float64) {
		emit(obsv.Sample{Name: "fixgate_" + name, Help: help, Type: obsv.TypeGauge, Value: v})
	}

	counter("cache_hits_total", "Result-cache hits", float64(st.Cache.Hits))
	counter("cache_misses_total", "Result-cache misses that led an evaluation", float64(st.Cache.Misses))
	counter("cache_collapsed_total", "Submissions that joined an in-flight identical evaluation", float64(st.Cache.Collapsed))
	counter("cache_evicted_total", "Result-cache LRU evictions", float64(st.Cache.Evicted))
	counter("cache_errors_total", "Evaluations that failed while leading a flight", float64(st.Cache.Errors))
	gauge("cache_entries", "Result-cache entries resident", float64(st.Cache.Entries))
	gauge("cache_capacity", "Result-cache capacity", float64(st.Cache.Capacity))

	gauge("admission_waiting", "Submissions queued for an evaluation slot", float64(st.Admission.Waiting))
	gauge("admission_waiting_async", "Async workers parked for an evaluation slot", float64(st.Admission.WaitingAsync))
	counter("admission_admitted_total", "Evaluations granted a slot", float64(st.Admission.Admitted))
	counter("admission_rejected_total", "Submissions shed with 429", float64(st.Admission.Rejected))

	counter("persist_errors_total", "Failed durable write-throughs on the backing store", float64(st.PersistErrors))

	counter("batch_requests_total", "Batch submissions that reached the evaluator", float64(st.Batch.Requests))
	counter("batch_items_total", "Thunks submitted inside batch requests", float64(st.Batch.Items))
	gauge("batch_max_items", "Configured per-batch item bound", float64(st.Batch.MaxItems))

	if st.Cluster != nil {
		cluster.EmitNetStats(st.Cluster, counter, gauge)
	}

	if st.Storage != nil {
		cluster.EmitStorageStats(st.Storage, counter, gauge)
	}

	if st.Jobs != nil {
		js := st.Jobs
		gauge("async_queue_depth", "Pending async jobs (queued plus retry-waiting)", float64(js.Depth))
		gauge("async_running", "Async jobs evaluating now", float64(js.Running))
		gauge("async_oldest_pending_age_seconds", "Age of the oldest queued async job", float64(js.OldestPendingAgeNS)/1e9)
		counter("async_retried_total", "Async jobs re-queued after a failed attempt", float64(js.Retried))
	}

	if st.Edge != nil {
		es := st.Edge
		gauge("edge_live", "Peer gateways currently passing liveness", float64(es.Live))
		gauge("edge_undrained", "Accepted entries not yet settled (takeover exposure)", float64(es.Undrained))
		counter("edge_quorum_timeouts_total", "Appends acked to the client before a peer quorum confirmed", float64(es.QuorumTimeouts))
		counter("edge_takeovers_total", "Dead-peer events handled", float64(es.Takeovers))
		counter("edge_adopted_total", "Undrained jobs adopted from dead peers", float64(es.Adopted))
		counter("edge_warm_applied_total", "Received hints applied to the result cache", float64(es.WarmApplied))
		gauge("edge_peer_lag", "Largest unacknowledged append backlog across live peers", float64(es.PeerLag))
		counter("edge_hint_stale_total", "Deferred hints still unresolvable at flight time", float64(es.HintStale))
	}

	if st.Durable != nil {
		cluster.EmitDurableStats(st.Durable, counter, gauge)
	}

	// Tenants arrive as a map; the registry's encoder sorts samples by
	// label value, so scrape order stays deterministic regardless of map
	// iteration.
	tc := func(name, help, tenant string, v uint64) {
		emit(obsv.Sample{Name: "fixgate_" + name, Help: help, Type: obsv.TypeCounter,
			Value: float64(v), Labels: []obsv.Label{{Key: "tenant", Value: tenant}}})
	}
	for name, t := range st.Tenants {
		tc("tenant_jobs_total", "Job submissions, by tenant", name, t.Jobs)
		tc("tenant_rejected_total", "Submissions shed with 429, by tenant", name, t.Rejected)
	}
}

// handleMetrics serves the registry in Prometheus text exposition
// format: sorted families, # HELP/# TYPE headers, versioned content
// type.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obsv.ContentType)
	_, _ = s.reg.WritePrometheus(w)
}

// handleTraceGet serves one finished trace by ID.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	obsv.ServeTrace(s.tracer, w, r.PathValue("id"))
}

// handleTraceDigest serves the slow-request digest (?slowest=N).
func (s *Server) handleTraceDigest(w http.ResponseWriter, r *http.Request) {
	obsv.ServeTraceDigest(s.tracer, w, r)
}
