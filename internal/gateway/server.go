package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"fixgo/internal/cluster"
	"fixgo/internal/core"
	"fixgo/internal/durable"
	"fixgo/internal/edgelog"
	"fixgo/internal/jobs"
	"fixgo/internal/obsv"
	"fixgo/internal/storage"
)

// Options configures a gateway Server.
type Options struct {
	// Backend executes submitted jobs. Required.
	Backend Backend
	// CacheEntries bounds the result LRU. 0 disables the cache and
	// single-flight collapsing (every submission reaches the backend).
	CacheEntries int
	// MaxInFlight bounds concurrent backend evaluations (default 64).
	MaxInFlight int
	// MaxBatchItems bounds one POST /v1/jobs:batch submission (default
	// 256); larger batches are refused with 413.
	MaxBatchItems int
	// MaxQueue bounds submissions waiting for an evaluation slot before
	// the gateway sheds load with 429 (default 4×MaxInFlight).
	MaxQueue int
	// MaxBlobBytes bounds one uploaded Blob (default 64 MiB).
	MaxBlobBytes int64
	// MaxJSONBytes bounds the request body of the JSON endpoints
	// (/v1/trees, /v1/jobs; default 8 MiB). Without a bound, a single
	// oversized upload is a trivial memory-exhaustion vector.
	MaxJSONBytes int64
	// PersistErrors, when set, reports the backing store's write-through
	// failure count (store.Store.PersistErrors) so silent durability
	// loss is visible in /v1/stats and /metrics.
	PersistErrors func() uint64
	// AsyncWorkers sizes the asynchronous job-lifecycle worker pool
	// (internal/jobs). 0 disables the async endpoints (501).
	AsyncWorkers int
	// AsyncQueueDepth bounds pending async jobs before submissions shed
	// with 429 (default 1024).
	AsyncQueueDepth int
	// AsyncMaxAttempts bounds evaluation attempts before an async job
	// dead-letters (default 3).
	AsyncMaxAttempts int
	// JobsJournalPath, when non-empty, makes the async queue durable:
	// transitions journal there and replay on restart (usually
	// <data-dir>/jobs.journal next to the durable store).
	JobsJournalPath string
	// JobsFsync selects the jobs journal's durability policy.
	JobsFsync durable.FsyncPolicy
	// EdgeID, when non-empty, joins this gateway to a replicated edge
	// (internal/edgelog): accepted async jobs replicate to peer gateways
	// for takeover on death, and memoized results gossip as cache-warm
	// hints. Must be stable across restarts. Peers attach via
	// AttachEdgePeer.
	EdgeID string
	// EdgeHeartbeatInterval / EdgeHeartbeatTimeout tune the edge
	// membership view (defaults 1s / 5×interval).
	EdgeHeartbeatInterval time.Duration
	EdgeHeartbeatTimeout  time.Duration
	// TraceEntries bounds the in-memory ring of finished request traces
	// served at GET /v1/trace (default 512).
	TraceEntries int
	// DurableStats, when set, reports the durable store's snapshot so
	// the fixgate_durable_* families and /v1/stats cover the persistence
	// layer.
	DurableStats func() durable.Stats
	// Logf, when set, receives one line per request error.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 64
	}
	if o.MaxBatchItems <= 0 {
		o.MaxBatchItems = 256
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 4 * o.MaxInFlight
	}
	if o.MaxBlobBytes <= 0 {
		o.MaxBlobBytes = 64 << 20
	}
	if o.MaxJSONBytes <= 0 {
		o.MaxJSONBytes = 8 << 20
	}
	if o.TraceEntries <= 0 {
		o.TraceEntries = 512
	}
	return o
}

// Server is the HTTP serving frontend. Create with NewServer, mount via
// Handler, release with Close.
type Server struct {
	opts  Options
	cache *resultCache        // nil when disabled
	jobs  *jobs.Manager       // nil when async serving is disabled
	edge  *edgelog.Replicator // nil when not part of a replicated edge
	adm   *admission
	mux   *http.ServeMux

	// closeCtx bounds every detached backend flight to the server's
	// lifetime: Close cancels it first, so no evaluation survives into
	// the window where an edge peer adopts this gateway's jobs.
	closeCtx    context.Context
	closeCancel context.CancelFunc
	flights     atomic.Int64 // backend evaluations currently in flight

	// Observability (initMetrics): every fixgate_* family lives in reg;
	// tracer retains finished per-request traces for GET /v1/trace.
	reg         *obsv.Registry
	tracer      *obsv.Tracer
	stageHist   *obsv.HistogramVec // fixgate_stage_seconds{stage}
	reqHist     *obsv.Histogram    // fixgate_request_seconds
	persistHist *obsv.HistogramVec // fixgate_persist_seconds{op}
	batchSize   *obsv.Histogram    // fixgate_batch_size

	// Request accounting is all-atomics: handlers on every shard bump
	// these without a lock, and the /v1/stats snapshot loads them while
	// traffic is in flight.
	tenants    *tenantLedger
	jobsOK     atomic.Uint64
	jobsFailed atomic.Uint64
	batches    atomic.Uint64
	batchItems atomic.Uint64
	hintHits   atomic.Uint64
	hintStale  atomic.Uint64
}

// BatchStats is the /v1/jobs:batch accounting slice of the stats report.
type BatchStats struct {
	// Requests counts batch submissions that reached the evaluator (past
	// decode and size validation).
	Requests uint64 `json:"requests"`
	// Items counts thunks submitted inside those batches.
	Items uint64 `json:"items"`
	// MaxItems is the configured per-batch bound (413 beyond it).
	MaxItems int `json:"max_items"`
}

// Stats is the full observability snapshot served at /v1/stats.
type Stats struct {
	Cache     CacheStats     `json:"cache"`
	Admission AdmissionStats `json:"admission"`
	JobsOK    uint64         `json:"jobs_ok"`
	JobsFail  uint64         `json:"jobs_failed"`
	// PersistErrors counts failed durable write-throughs on the backing
	// store (0 when persistence is not configured).
	PersistErrors uint64 `json:"persist_errors"`
	// Batch is the /v1/jobs:batch accounting slice.
	Batch BatchStats `json:"batch"`
	// Jobs is the async queue's snapshot (nil when async serving is
	// disabled): depth, oldest-pending age, per-state counters.
	Jobs *jobs.Stats `json:"jobs,omitempty"`
	// Cluster is the backend node's peer/failure-handling and
	// replication snapshot (nil when the backend is not a cluster node):
	// live peers, evictions, heartbeats, job re-placements, ring size,
	// replica pushes and repair activity.
	Cluster *cluster.NetStats `json:"cluster,omitempty"`
	// Durable is the durable store's snapshot (nil when persistence is
	// not configured): object/memo counts, pack footprint, GC activity.
	Durable *durable.Stats `json:"durable,omitempty"`
	// Storage is the tiered-storage snapshot (nil when the backend has no
	// cold tier): LFC hit/miss/eviction counters, remote tier traffic,
	// async upload queue, and demotion activity.
	Storage *storage.Stats `json:"storage,omitempty"`
	// Edge is the replicated-edge snapshot (nil when this gateway is not
	// part of one): membership, log size, replication and takeover
	// counters, warm-hint gossip, and peer replication lag.
	Edge    *EdgeStats              `json:"edge,omitempty"`
	Tenants map[string]*TenantStats `json:"tenants"`
}

// netStatser is the optional Backend facet a cluster node implements;
// the gateway surfaces it in /v1/stats and /metrics when present.
type netStatser interface {
	NetStats() cluster.NetStats
}

// storageStatser is the optional Backend facet a tiered cluster node
// implements (StorageStats returns nil without a tier); the gateway
// surfaces it in /v1/stats and as the fixgate_storage_* families.
type storageStatser interface {
	StorageStats() *storage.Stats
}

// OwnedBlobPutter is the optional Backend facet for the streaming upload
// path: the gateway hashes the body incrementally while reading it and
// hands over an owned slice plus its precomputed Handle, so the backend
// can insert without copying or re-hashing. cluster.Node and
// *EngineBackend implement it.
type OwnedBlobPutter interface {
	PutBlobOwned(h core.Handle, data []byte) core.Handle
}

// NewServer builds a gateway over opts.Backend.
func NewServer(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if opts.Backend == nil {
		return nil, errors.New("gateway: Options.Backend is required")
	}
	s := &Server{
		opts:    opts,
		adm:     newAdmission(opts.MaxInFlight, opts.MaxQueue),
		tenants: newTenantLedger(),
	}
	s.closeCtx, s.closeCancel = context.WithCancel(context.Background())
	if opts.CacheEntries > 0 {
		s.cache = newResultCache(opts.CacheEntries, cacheShards)
	}
	s.initMetrics()
	if opts.EdgeID != "" {
		if err := s.initEdge(opts); err != nil {
			return nil, err
		}
		if s.cache != nil {
			// Every miss-path insert gossips as a cache-warm hint; warm()
			// inserts (journal replay, applied hints) deliberately do not,
			// or two gateways would echo each other's hints forever.
			s.cache.onInsert = s.edge.GossipWarm
		}
	}
	if opts.AsyncWorkers > 0 {
		m, err := jobs.New(jobs.Options{
			// The worker pool drains into the same evaluate path the
			// sync handlers use, so async jobs share the result cache,
			// single-flight collapsing, and admission bounds.
			Eval: func(ctx context.Context, h core.Handle) (core.Handle, error) {
				res, _, err := s.evaluate(ctx, h, true)
				return res, err
			},
			// Async traces are anchored at enqueue, so the queue wait —
			// the dominant stage under backlog — is the first span.
			Trace: func(ctx context.Context, j jobs.Job) (context.Context, func(error)) {
				t := s.tracer.StartAt("async", j.Enqueued)
				t.AddSpanAt("queue_wait", "", j.Enqueued, time.Since(j.Enqueued))
				return obsv.WithTrace(ctx, t), func(err error) {
					if err != nil {
						t.SetOutcome("error")
					}
					s.tracer.Finish(t)
				}
			},
			// Terminal transitions replicate to peer gateways (no-op
			// without an edge), settling the job's entry so no peer
			// adopts finished work.
			Observe:     s.observeSettled,
			Workers:     opts.AsyncWorkers,
			MaxQueue:    opts.AsyncQueueDepth,
			MaxAttempts: opts.AsyncMaxAttempts,
			JournalPath: opts.JobsJournalPath,
			Fsync:       opts.JobsFsync,
			Logf:        opts.Logf,
		})
		if err != nil {
			return nil, err
		}
		s.jobs = m
		s.restoreEdge()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/blobs", s.handlePutBlob)
	mux.HandleFunc("GET /v1/blobs/{handle}", s.handleGetBlob)
	mux.HandleFunc("POST /v1/trees", s.handlePutTree)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("POST /v1/jobs:batch", s.handleSubmitBatch)
	mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/trace", s.handleTraceDigest)
	mux.HandleFunc("GET /v1/trace/{id}", s.handleTraceGet)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	return s, nil
}

// Handler returns the gateway's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Jobs exposes the async job manager (nil when disabled) — the boot path
// in cmd/fixgate reads its recovery stats.
func (s *Server) Jobs() *jobs.Manager { return s.jobs }

// Close shuts the serving paths down in the only order that gives a
// takeover peer clean handoff semantics: cancel every detached backend
// flight, drain the local queue (running jobs revert to pending and
// stay journaled for the next boot), wait out the in-flight evaluations
// (up to closeGrace), and only then leave the replicated edge and close
// both journals. The Leave is what triggers peer adoption, so everything
// this gateway might still be executing must have stopped first —
// otherwise the adopter and this gateway overlap on the same job. The
// HTTP handler must not be used after Close.
func (s *Server) Close() error {
	s.closeCancel()
	var err error
	if s.jobs != nil {
		err = s.jobs.Close()
	}
	s.awaitFlights()
	if s.edge != nil {
		if eerr := s.edge.Close(); err == nil {
			err = eerr
		}
	}
	return err
}

// closeGrace bounds how long Close waits for cancelled backend flights
// to unwind (the jobs manager's own default CloseGrace is the same).
const closeGrace = 5 * time.Second

// awaitFlights waits for cancelled backend flights to unwind, bounded
// by closeGrace — a backend that ignores cancellation must not wedge
// Close (the jobs manager takes the same stance).
func (s *Server) awaitFlights() {
	deadline := time.Now().Add(closeGrace)
	for s.flights.Load() > 0 {
		if time.Now().After(deadline) {
			if s.opts.Logf != nil {
				s.opts.Logf("gateway: close: abandoning %d in-flight evaluations after %v grace", s.flights.Load(), closeGrace)
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// Stats snapshots all counters (also served at /v1/stats). Every source
// is either atomic or snapshotted under its own shard lock, so scraping
// while handlers mutate is race-free by construction.
func (s *Server) Stats() Stats {
	out := Stats{
		Admission: s.adm.Stats(),
		JobsOK:    s.jobsOK.Load(),
		JobsFail:  s.jobsFailed.Load(),
		Batch: BatchStats{
			Requests: s.batches.Load(),
			Items:    s.batchItems.Load(),
			MaxItems: s.opts.MaxBatchItems,
		},
		Tenants: s.tenants.snapshot(),
	}
	if s.cache != nil {
		out.Cache = s.cache.Stats()
	}
	if s.opts.PersistErrors != nil {
		out.PersistErrors = s.opts.PersistErrors()
	}
	if s.jobs != nil {
		js := s.jobs.Stats()
		out.Jobs = &js
	}
	if ns, ok := s.opts.Backend.(netStatser); ok {
		cs := ns.NetStats()
		out.Cluster = &cs
	}
	if ss, ok := s.opts.Backend.(storageStatser); ok {
		out.Storage = ss.StorageStats()
	}
	if s.edge != nil {
		out.Edge = &EdgeStats{
			Stats:     s.edge.Stats(),
			HintHits:  s.hintHits.Load(),
			HintStale: s.hintStale.Load(),
		}
	}
	if s.opts.DurableStats != nil {
		ds := s.opts.DurableStats()
		out.Durable = &ds
	}
	return out
}

func (s *Server) tenant(r *http.Request) *tenantCounters {
	return s.tenants.get(tenantName(r))
}

// TenantHeader names the header carrying the submitting tenant's
// identity.
const TenantHeader = "X-Fix-Tenant"

// TraceHeader names the response header carrying the request's trace ID
// (resolve it at GET /v1/trace/{id}).
const TraceHeader = "X-Fix-Trace"

// Wire types of the JSON API.
type (
	// HandleReply carries a newly ingested object's Handle.
	HandleReply struct {
		Handle string `json:"handle"`
	}
	// TreeRequest uploads a Tree as a list of entry Handles.
	TreeRequest struct {
		Entries []string `json:"entries"`
	}
	// JobRequest submits a job by Handle. A Thunk is wrapped in a
	// Strict Encode automatically. IncludeData asks for the result
	// Blob's bytes inline (base64) when the result is a Blob.
	JobRequest struct {
		Handle      string `json:"handle"`
		IncludeData bool   `json:"include_data,omitempty"`
	}
	// JobReply reports a completed job.
	JobReply struct {
		Result    string `json:"result"`
		Outcome   string `json:"outcome"` // hit | miss | collapsed | bypass
		ElapsedNS int64  `json:"elapsed_ns"`
		// Trace is the request's trace ID; GET /v1/trace/{id} returns
		// the per-stage timing breakdown (also in the X-Fix-Trace
		// response header).
		Trace string `json:"trace,omitempty"`
		Data  []byte `json:"data,omitempty"` // base64 via encoding/json
	}
	// ErrorReply reports a failed request.
	ErrorReply struct {
		Error string `json:"error"`
	}
)

func (s *Server) handlePutBlob(w http.ResponseWriter, r *http.Request) {
	t := s.tenant(r)
	// Stream the body in fixed-size chunk reads through an incremental
	// hasher instead of slurping it whole into one pooled buffer: the
	// transient footprint per upload is one pooled chunk, and the handle
	// is already computed when the last byte arrives. The destination
	// slice is owned (the backend retains it past this request), sized
	// from Content-Length when the client declared one within bounds.
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBlobBytes)
	hasher := core.NewBlobHasher()
	var data []byte
	if cl := r.ContentLength; cl > 0 && cl <= s.opts.MaxBlobBytes {
		data = make([]byte, 0, cl)
	}
	chunk := getChunk()
	defer putChunk(chunk)
	for {
		n, err := body.Read(chunk)
		if n > 0 {
			hasher.Write(chunk[:n])
			data = append(data, chunk[:n]...)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				s.fail(w, http.StatusRequestEntityTooLarge,
					fmt.Errorf("blob exceeds %d-byte limit", s.opts.MaxBlobBytes))
				return
			}
			s.fail(w, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
			return
		}
	}
	h := hasher.Handle()
	if op, ok := s.opts.Backend.(OwnedBlobPutter); ok {
		h = op.PutBlobOwned(h, data)
	} else {
		h = s.opts.Backend.PutBlob(data)
	}
	t.uploads.Add(1)
	replyHandle(w, h)
}

func (s *Server) handleGetBlob(w http.ResponseWriter, r *http.Request) {
	h, err := parseHandle(r.PathValue("handle"))
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	data, err := s.opts.Backend.ObjectBytes(r.Context(), h)
	if err != nil {
		s.fail(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(data)
}

func (s *Server) handlePutTree(w http.ResponseWriter, r *http.Request) {
	t := s.tenant(r)
	body, ok := s.readJSON(w, r)
	if !ok {
		return
	}
	entries, err := decodeTreeRequest(body.Bytes())
	putBuf(body)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	h, err := s.opts.Backend.PutTree(entries)
	if err != nil {
		s.fail(w, http.StatusUnprocessableEntity, err)
		return
	}
	t.uploads.Add(1)
	replyHandle(w, h)
}

// decodeTreeRequest reads a TreeRequest body into its entry Handles: in
// place when it is in appendTreeRequest's form, through encoding/json
// otherwise. An error reads as the reply's message.
func decodeTreeRequest(b []byte) ([]core.Handle, error) {
	var views [8][]byte
	texts, ok := readTreeRequest(b, views[:0])
	if !ok {
		var req TreeRequest
		if err := json.Unmarshal(b, &req); err != nil {
			return nil, fmt.Errorf("decode request: %w", err)
		}
		texts = texts[:0]
		for _, e := range req.Entries {
			texts = append(texts, []byte(e))
		}
	}
	entries := make([]core.Handle, len(texts))
	for i, e := range texts {
		h, err := parseHandleBytes(e)
		if err != nil {
			return nil, fmt.Errorf("entry %d: %w", i, err)
		}
		entries[i] = h
	}
	return entries, nil
}

// decodeJobRequest reads a JobRequest body: in place when it is in
// appendJobRequest's form (handle then aliases b), through encoding/json
// otherwise. An error reads as the reply's message.
func decodeJobRequest(b []byte) (handle []byte, includeData bool, err error) {
	if handle, includeData, ok := readJobRequest(b); ok {
		return handle, includeData, nil
	}
	var req JobRequest
	if err := json.Unmarshal(b, &req); err != nil {
		return nil, false, fmt.Errorf("decode request: %w", err)
	}
	return []byte(req.Handle), req.IncludeData, nil
}

// readJSON reads a bounded JSON request body into a pooled buffer, which
// the caller returns with putBuf. On failure it writes the error reply
// (413 for an oversized body, 400 otherwise) itself.
func (s *Server) readJSON(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, bool) {
	buf := getBuf()
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.opts.MaxJSONBytes))
	if err == nil {
		return buf, true
	}
	putBuf(buf)
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		s.fail(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds %d-byte limit", s.opts.MaxJSONBytes))
	} else {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
	}
	return nil, false
}

// decodeJSON decodes a bounded JSON request body with encoding/json,
// writing the error reply itself (readJSON's, or 400 for malformed JSON)
// and reporting false when it did. The body is slurped into a pooled
// scratch buffer before the one-shot Unmarshal, so the decode path's
// transient allocations amortize across requests.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	buf, ok := s.readJSON(w, r)
	if !ok {
		return false
	}
	defer putBuf(buf)
	if err := json.Unmarshal(buf.Bytes(), v); err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return false
	}
	return true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	t := s.tenant(r)
	body, ok := s.readJSON(w, r)
	if !ok {
		return
	}
	defer putBuf(body)
	handle, includeData, err := decodeJobRequest(body.Bytes())
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if wantsAsync(r) {
		if !s.requireJobs(w) {
			return
		}
		s.handleSubmitAsync(w, r, t, handle)
		return
	}
	h, err := parseHandleBytes(handle)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if h.RefKind() == core.RefThunk {
		// Submitting a bare Thunk means "force it all the way".
		h, _ = core.Strict(h)
	}

	start := time.Now()
	tc := s.tracer.Start("sync")
	// The trace ID goes out as a header even on failure, so a client
	// holding an error reply can still pull the timing breakdown.
	w.Header().Set(TraceHeader, tc.ID)
	defer s.tracer.Finish(tc)
	result, outcome, err := s.evaluate(obsv.WithTrace(r.Context(), tc), h, false)
	elapsed := time.Since(start)
	s.reqHist.ObserveDuration(elapsed)
	tc.AddSpanAt("gateway", "", start, elapsed)
	if err != nil {
		tc.SetOutcome("error")
	} else {
		tc.SetOutcome(string(outcome))
	}

	t.jobs.Add(1)
	if err == nil && (outcome == OutcomeHit || outcome == OutcomeCollapsed) {
		t.hits.Add(1)
	}
	if err != nil {
		s.jobsFailed.Add(1)
		if errors.Is(err, ErrOverloaded) {
			t.rejected.Add(1)
		}
	} else {
		s.jobsOK.Add(1)
	}

	if err != nil {
		switch {
		case errors.Is(err, ErrOverloaded):
			s.fail(w, http.StatusTooManyRequests, err)
		case errors.Is(err, cluster.ErrNoWorkers):
			// The cluster has no live worker to run the job: the typed
			// "service degraded" answer, distinct from a job error.
			s.fail(w, http.StatusServiceUnavailable, err)
		case r.Context().Err() != nil:
			s.fail(w, http.StatusGatewayTimeout, err)
		default:
			s.fail(w, http.StatusInternalServerError, err)
		}
		return
	}
	var data []byte
	if includeData && result.Kind() == core.KindBlob {
		sp := tc.StartSpan("result_fetch", "")
		data, err = s.opts.Backend.ObjectBytes(r.Context(), result)
		sp.End()
		if err != nil {
			s.fail(w, http.StatusInternalServerError, fmt.Errorf("result fetch: %w", err))
			return
		}
	}
	// The request body is spent (h is parsed), so its buffer frames the
	// reply.
	body.Reset()
	replyFrame(w, body, appendJobReply(body.AvailableBuffer(), result, outcome, elapsed.Nanoseconds(), tc.ID, data))
}

// evaluate routes a submission through the result cache (hit or collapse
// when possible) and admission control (only evaluations that actually
// reach the backend take a slot). Both the sync handlers (with the
// request's context) and the async worker pool (with the job's context)
// land here, so the two paths share one collapse domain. wait selects
// the admission discipline: the sync path's shedding Acquire, or the
// async pool's AcquireWait (its work was already admitted with a 202,
// so overload means waiting, not burning the job's retry budget).
func (s *Server) evaluate(ctx context.Context, h core.Handle, wait bool) (core.Handle, CacheOutcome, error) {
	t := obsv.FromContext(ctx)
	if h.IsData() {
		// Data evaluates to itself; don't spend cache or slots on it.
		return h, OutcomeHit, nil
	}
	if s.cache == nil {
		sp := t.StartSpan("queue_wait", "")
		err := s.adm.acquire(ctx, wait)
		sp.End()
		if err != nil {
			return core.Handle{}, OutcomeBypass, err
		}
		defer s.adm.Release()
		defer t.StartSpan("backend_eval", "").End()
		res, err := s.opts.Backend.Eval(ctx, h)
		return res, OutcomeBypass, err
	}
	// The flight is shared: collapsed waiters ride on the leader's
	// evaluation, so it must not die with the leader's connection.
	// Detach it from the request's cancellation (the admission queue
	// bounds how many detached evaluations can pile up), and let each
	// waiter's own ctx govern only its wait. The flight context keeps
	// the leader's values — so its trace rides into the flight and
	// collects the queue_wait/backend_eval (and cluster) spans — but
	// takes its cancellation from the server's lifetime: Server.Close
	// cancels every flight before leaving the replicated edge, so an
	// adopting peer never runs a job this gateway is still evaluating.
	doStart := time.Now()
	// A hit returns before Do, whose evaluation closure is made only for
	// a submission that may have to lead a flight.
	res, hit := s.cache.hit(h.AsObject())
	outcome := OutcomeHit
	var err error
	if !hit {
		res, outcome, err = s.cache.Do(ctx, h, func() (core.Handle, error) {
			return s.lead(ctx, t, h, wait)
		})
	}
	// Only the stages the *caller* experienced are attributed here: a
	// hit spent its time in the lookup, a collapsed join spent it
	// waiting on the leader's flight (whose own trace carries the
	// evaluation spans).
	switch outcome {
	case OutcomeHit:
		t.AddSpanAt("cache_lookup", "", doStart, time.Since(doStart))
	case OutcomeCollapsed:
		t.AddSpanAt("collapse_wait", "", doStart, time.Since(doStart))
	}
	return res, outcome, err
}

// lead runs the backend flight of a cache miss on behalf of every
// submission collapsed onto it.
func (s *Server) lead(ctx context.Context, t *obsv.Trace, h core.Handle, wait bool) (core.Handle, error) {
	flightCtx := flightContext{Context: s.closeCtx, values: ctx}
	s.flights.Add(1)
	defer s.flights.Add(-1)
	// A deferred warm hint (gossiped while its result was not yet
	// resolvable here) gets one last look before the backend is paid:
	// resolvable now → the flight is the hint; still stale → fall
	// through, and the evaluation replaces the hint.
	if s.edge != nil {
		if hint, ok := s.edge.TakeHint(h.AsObject()); ok {
			if s.resolvableHint(hint) {
				s.hintHits.Add(1)
				return hint, nil
			}
			s.hintStale.Add(1)
		}
	}
	sp := t.StartSpan("queue_wait", "")
	err := s.adm.acquire(flightCtx, wait)
	sp.End()
	if err != nil {
		return core.Handle{}, err
	}
	defer s.adm.Release()
	bs := t.StartSpan("backend_eval", "")
	res, err := s.opts.Backend.Eval(flightCtx, h)
	bs.End()
	return res, err
}

// flightContext detaches a backend flight from its leader's request:
// Done/Err/Deadline come from the server's close context (the flight
// dies with the server, not with the request), Value from the leader's
// context (the trace rides along).
type flightContext struct {
	context.Context                 // the server's close context
	values          context.Context // the leader's request context
}

func (c flightContext) Value(k any) any { return c.values.Value(k) }

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.reply(w, http.StatusOK, s.Stats())
}

// reply encodes v into a pooled buffer and writes it out in one shot.
// Encoding off-wire (rather than streaming json.NewEncoder(w)) reuses
// scratch across requests and never leaves a half-written body behind an
// encode error. The ResponseWriter copies the bytes during Write, so the
// buffer is safe to recycle on return.
func (s *Server) reply(w http.ResponseWriter, code int, v any) {
	buf := getBuf()
	defer putBuf(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, code, buf.Bytes())
}

// replyHandle writes a 200 HandleReply naming h.
func replyHandle(w http.ResponseWriter, h core.Handle) {
	buf := getBuf()
	defer putBuf(buf)
	replyFrame(w, buf, appendHandleReply(buf.AvailableBuffer(), h))
}

// replyFrame writes a 200 reply that an append function framed into
// buf's free space, adding the Encoder's trailing newline. Writing the
// frame back into buf keeps its capacity in the pool when it grew.
func replyFrame(w http.ResponseWriter, buf *bytes.Buffer, frame []byte) {
	buf.Write(append(frame, '\n'))
	writeJSON(w, http.StatusOK, buf.Bytes())
}

// autoLengthMax is the largest body writeJSON leaves to net/http to
// declare. A handler that writes all of a body under a few KB and does
// not flush gets its Content-Length from net/http (ResponseWriter.Write),
// formatted into the connection's own buffer; declaring it here would
// cost a string and a header slice per reply.
const autoLengthMax = 1 << 10

// writeJSON writes a JSON reply body in one Write.
func writeJSON(w http.ResponseWriter, code int, body []byte) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	if len(body) > autoLengthMax {
		h.Set("Content-Length", strconv.Itoa(len(body)))
	}
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

func (s *Server) fail(w http.ResponseWriter, code int, err error) {
	if s.opts.Logf != nil {
		s.opts.Logf("gateway: %d: %v", code, err)
	}
	s.reply(w, code, ErrorReply{Error: err.Error()})
}
