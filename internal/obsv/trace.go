package obsv

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sort"
	"sync"
	"time"
)

// Trace is one request's per-stage timing record. A trace is minted at
// the serving edge (or at async dequeue), travels down the evaluation
// path inside the context, and collects one Span per pipeline stage —
// including stages that ran on a remote worker, whose durations arrive
// in proto Result headers and are recorded against the worker's node ID.
//
// All methods are safe for concurrent use and no-ops on a nil receiver,
// so instrumented code never branches on whether tracing is enabled.
type Trace struct {
	// ID is the 16-hex-digit span/trace identifier minted at Start (or
	// adopted from a proto header on a worker).
	ID string
	// Op names what the trace covers ("sync", "async", "remote_job").
	Op string
	// Start anchors every span's offset.
	Start time.Time

	mu      sync.Mutex
	spans   []Span // inline[:0] at mint, so the first spans cost nothing
	inline  [inlineSpans]Span
	total   time.Duration
	outcome string
}

// inlineSpans is how many spans a Trace holds before its span slice
// moves to the heap: a gateway hit records two, a miss three or four.
const inlineSpans = 4

// newTrace mints a trace whose span slice starts in its inline array.
func newTrace(id, op string, start time.Time) *Trace {
	t := &Trace{ID: id, Op: op, Start: start}
	t.spans = t.inline[:0]
	return t
}

// Span is one recorded stage of a trace.
type Span struct {
	// Name is the stage ("cache_lookup", "queue_wait", "remote_eval", …).
	Name string
	// Node attributes work that ran elsewhere (empty: this process).
	Node string
	// Offset is the span's start relative to the trace start. A span
	// that began before the trace was minted (an async job's queue wait)
	// has a negative offset.
	Offset time.Duration
	// Dur is the span's length.
	Dur time.Duration
}

// SpanHandle ends one in-progress span.
type SpanHandle struct {
	t     *Trace
	name  string
	node  string
	start time.Time
}

// newTraceID mints a 16-hex-digit random identifier. Both arrays stay
// on the stack; the string is the one allocation.
func newTraceID() string {
	var b [8]byte
	var text [16]byte
	_, _ = rand.Read(b[:])
	hex.Encode(text[:], b[:])
	return string(text[:])
}

// StartSpan opens a stage; call End on the handle when it completes.
func (t *Trace) StartSpan(name, node string) *SpanHandle {
	if t == nil {
		return nil
	}
	return &SpanHandle{t: t, name: name, node: node, start: time.Now()}
}

// End closes the span and records it.
func (sp *SpanHandle) End() {
	if sp == nil {
		return
	}
	sp.t.AddSpanAt(sp.name, sp.node, sp.start, time.Since(sp.start))
}

// AddSpanAt records a stage with an explicit start time and duration
// (for work measured outside this process, e.g. a worker-reported eval).
func (t *Trace) AddSpanAt(name, node string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Node: node, Offset: start.Sub(t.Start), Dur: d})
	t.mu.Unlock()
}

// AddSpanDur records a stage that ended now and lasted d.
func (t *Trace) AddSpanDur(name, node string, d time.Duration) {
	if t == nil {
		return
	}
	t.AddSpanAt(name, node, time.Now().Add(-d), d)
}

// SetOutcome annotates the trace ("hit", "miss", "collapsed", "error").
func (t *Trace) SetOutcome(o string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.outcome = o
	t.mu.Unlock()
}

// traceKey carries the active trace in a context.
type traceKey struct{}

// WithTrace attaches t to the context (nil t returns ctx unchanged).
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, t)
}

// FromContext returns the context's trace, or nil.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// Tracer owns a process's finished traces: a bounded in-memory ring
// indexed by ID, plus an optional per-stage histogram vec fed on finish
// (the source of the slow digest's stage quantiles).
type Tracer struct {
	stages *HistogramVec // optional: Observe(span) per stage on Finish

	mu   sync.Mutex
	ring []*Trace // circular, nil until written
	next int
	byID map[string]*Trace
}

// NewTracer returns a tracer retaining the last capacity finished
// traces (minimum 16). stages, when non-nil, receives every finished
// span's duration labeled by stage name.
func NewTracer(capacity int, stages *HistogramVec) *Tracer {
	if capacity < 16 {
		capacity = 16
	}
	return &Tracer{
		stages: stages,
		ring:   make([]*Trace, capacity),
		byID:   make(map[string]*Trace, capacity),
	}
}

// Start mints a trace beginning now.
func (tr *Tracer) Start(op string) *Trace {
	if tr == nil {
		return nil
	}
	return newTrace(newTraceID(), op, time.Now())
}

// StartAt mints a trace anchored at an earlier instant (an async job's
// enqueue time, so its queue wait is span offset 0).
func (tr *Tracer) StartAt(op string, at time.Time) *Trace {
	if tr == nil {
		return nil
	}
	return newTrace(newTraceID(), op, at)
}

// StartWithID adopts an identifier propagated from another node, so a
// worker's local record of a delegated job shares the gateway's trace
// ID.
func (tr *Tracer) StartWithID(id, op string) *Trace {
	if tr == nil {
		return nil
	}
	return newTrace(id, op, time.Now())
}

// Finish seals the trace (total = since Start), feeds the stage
// histograms, and retains it in the ring, evicting the oldest entry.
// The histograms read the spans in place: a span added after Finish (a
// detached flight outliving its request) only ever writes past the
// length read here, or into a new array when the slice grows.
func (tr *Tracer) Finish(t *Trace) {
	if tr == nil || t == nil {
		return
	}
	t.mu.Lock()
	t.total = time.Since(t.Start)
	spans := t.spans
	t.mu.Unlock()
	if tr.stages != nil {
		for _, sp := range spans {
			tr.stages.With(sp.Name).ObserveDuration(sp.Dur)
		}
	}
	tr.mu.Lock()
	if old := tr.ring[tr.next]; old != nil && tr.byID[old.ID] == old {
		delete(tr.byID, old.ID)
	}
	tr.ring[tr.next] = t
	tr.byID[t.ID] = t
	tr.next = (tr.next + 1) % len(tr.ring)
	tr.mu.Unlock()
}

// TraceView is the JSON form of a finished trace.
type TraceView struct {
	// ID is the trace identifier.
	ID string `json:"id"`
	// Op names what the trace covers.
	Op string `json:"op"`
	// Outcome is the cache outcome or error annotation (may be empty).
	Outcome string `json:"outcome,omitempty"`
	// StartUnixNS is the trace's anchor instant.
	StartUnixNS int64 `json:"start_unix_ns"`
	// TotalNS is the end-to-end duration.
	TotalNS int64 `json:"total_ns"`
	// Spans are the recorded stages in chronological order.
	Spans []SpanView `json:"spans"`
}

// SpanView is the JSON form of one span.
type SpanView struct {
	// Name is the stage name.
	Name string `json:"name"`
	// Node attributes remote work (empty: the serving process).
	Node string `json:"node,omitempty"`
	// OffsetNS is the span start relative to the trace start (negative
	// when the stage began before the trace was minted).
	OffsetNS int64 `json:"offset_ns"`
	// DurNS is the span length.
	DurNS int64 `json:"dur_ns"`
}

func (t *Trace) view() TraceView {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := TraceView{
		ID:          t.ID,
		Op:          t.Op,
		Outcome:     t.outcome,
		StartUnixNS: t.Start.UnixNano(),
		TotalNS:     t.total.Nanoseconds(),
	}
	spans := append([]Span(nil), t.spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Offset < spans[j].Offset })
	for _, sp := range spans {
		v.Spans = append(v.Spans, SpanView{
			Name: sp.Name, Node: sp.Node,
			OffsetNS: sp.Offset.Nanoseconds(), DurNS: sp.Dur.Nanoseconds(),
		})
	}
	return v
}

// Get returns a finished trace by ID.
func (tr *Tracer) Get(id string) (TraceView, bool) {
	if tr == nil {
		return TraceView{}, false
	}
	tr.mu.Lock()
	t := tr.byID[id]
	tr.mu.Unlock()
	if t == nil {
		return TraceView{}, false
	}
	return t.view(), true
}

// Retained reports how many finished traces the ring currently holds
// (the fixgate_traces_retained gauge).
func (tr *Tracer) Retained() int {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.byID)
}

// StageQuantiles is one stage's latency distribution in the digest.
type StageQuantiles struct {
	// Stage is the span name.
	Stage string `json:"stage"`
	// Count is the number of observations.
	Count uint64 `json:"count"`
	// P50NS / P95NS / P99NS are derived from the stage histogram's
	// exponential buckets by linear interpolation.
	P50NS int64 `json:"p50_ns"`
	P95NS int64 `json:"p95_ns"`
	P99NS int64 `json:"p99_ns"`
}

// Digest is the GET /v1/trace?slowest=N report: the N slowest retained
// traces plus per-stage quantiles over every finished trace.
type Digest struct {
	// Retained is how many finished traces the ring currently holds.
	Retained int `json:"retained"`
	// Slowest lists the slowest retained traces, slowest first.
	Slowest []TraceView `json:"slowest"`
	// Stages summarizes per-stage latency over all finished traces.
	Stages []StageQuantiles `json:"stages,omitempty"`
}

// Slowest builds the slow-request digest over the retained ring.
func (tr *Tracer) Slowest(n int) Digest {
	if tr == nil {
		return Digest{}
	}
	if n <= 0 {
		n = 10
	}
	tr.mu.Lock()
	all := make([]*Trace, 0, len(tr.byID))
	for _, t := range tr.byID {
		all = append(all, t)
	}
	tr.mu.Unlock()
	sort.Slice(all, func(i, j int) bool {
		ti, tj := all[i], all[j]
		ti.mu.Lock()
		di := ti.total
		ti.mu.Unlock()
		tj.mu.Lock()
		dj := tj.total
		tj.mu.Unlock()
		if di != dj {
			return di > dj
		}
		return ti.ID < tj.ID
	})
	d := Digest{Retained: len(all)}
	if n > len(all) {
		n = len(all)
	}
	for _, t := range all[:n] {
		d.Slowest = append(d.Slowest, t.view())
	}
	if tr.stages != nil {
		tr.stages.Children(func(values []string, h *Histogram) {
			if h.Count() == 0 {
				return
			}
			d.Stages = append(d.Stages, StageQuantiles{
				Stage: values[0],
				Count: h.Count(),
				P50NS: int64(h.Quantile(0.50) * 1e9),
				P95NS: int64(h.Quantile(0.95) * 1e9),
				P99NS: int64(h.Quantile(0.99) * 1e9),
			})
		})
	}
	return d
}
