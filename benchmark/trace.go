package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fixgo/internal/core"
	"fixgo/internal/gateway"
	"fixgo/internal/proto"
	"fixgo/internal/runtime"
	"fixgo/internal/transport"
)

// span is one timed call at a layer seam. Spans of one op share Req. The
// wrappers only know which op a call belongs to, so Parent is filled in
// by link(): the tightest span of the same op that encloses this one.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: root
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was made
	End    int64  `json:"end_ns"`
}

// recorder collects spans and counts in memory during a traced run. It
// exists only in the benchmark: the program under test is not changed,
// the wrappers below sit at its public seams. A nil *recorder means
// tracing is off and every wrapper constructor returns its argument.
type recorder struct {
	t0          time.Time
	sampleEvery uint64 // ops whose spans are kept: 1 in sampleEvery

	mu    sync.Mutex
	spans []span
	durs  map[string][]int64 // op-less timings (durable persists, job stages)

	// ops maps a handle the program will see at a ctx-less seam (tree
	// uploaded, encode evaluated or delegated, invocation applied) to
	// the sampled op that made it. Clients register before sending and
	// forget after the reply.
	ops sync.Map // core.Handle → uint64

	frames, frameBytes, fetchFrames atomic.Int64
	frameSample                     [][]byte // first 256 frames of sampled ops, for the proto timings
	applyNS, nodeEvalNS             atomic.Int64
	traceIDs                        []tracePair // last handler spans with the program's own trace id
}

// tracePair is one sampled request seen from both sides: the handler
// span this benchmark measured and the id of the trace the program kept.
type tracePair struct {
	id        string
	handlerNS int64
}

func newRecorder(sampleEvery uint64) *recorder {
	return &recorder{t0: time.Now(), sampleEvery: sampleEvery, durs: map[string][]int64{}}
}

type reqKey struct{}

// sampled reports whether op i's spans are kept, and if so returns a
// context that carries the op to the in-process and HTTP wrappers.
func (r *recorder) sampled(ctx context.Context, i uint64) (context.Context, bool) {
	if r == nil || i%r.sampleEvery != 0 {
		return ctx, false
	}
	return context.WithValue(ctx, reqKey{}, i), true
}

func reqOf(ctx context.Context) (uint64, bool) {
	i, ok := ctx.Value(reqKey{}).(uint64)
	return i, ok
}

func (r *recorder) add(name string, req uint64, start, end time.Time) {
	r.mu.Lock()
	r.spans = append(r.spans, span{Req: req, Name: name, Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))})
	r.mu.Unlock()
}

// spanFrom records a span that ends now; deferred with time.Now() as its
// argument, it times the rest of the calling function.
func (r *recorder) spanFrom(name string, req uint64, start time.Time) {
	r.add(name, req, start, time.Now())
}

func (r *recorder) observe(name string, d time.Duration) {
	r.mu.Lock()
	r.durs[name] = append(r.durs[name], int64(d))
	r.mu.Unlock()
}

func (r *recorder) register(req uint64, hs ...core.Handle) {
	for _, h := range hs {
		r.ops.Store(h, req)
	}
}

func (r *recorder) forget(hs ...core.Handle) {
	for _, h := range hs {
		r.ops.Delete(h)
	}
}

func (r *recorder) reqOfHandle(h core.Handle) (uint64, bool) {
	v, ok := r.ops.Load(h)
	if !ok {
		return 0, false
	}
	return v.(uint64), true
}

// reqHeader carries a sampled op's number from the client wrapper to the
// server wrapper. The program ignores it.
const reqHeader = "X-Bench-Req"

// roundTripper is the client-side HTTP seam: its span is what the SDK
// waited for the network and the gateway.
type roundTripper struct {
	rec  *recorder
	next http.RoundTripper
}

func (r *recorder) wrapTransport(next http.RoundTripper) http.RoundTripper {
	if r == nil {
		return next
	}
	return &roundTripper{rec: r, next: next}
}

func (t *roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	i, ok := reqOf(req.Context())
	if !ok {
		return t.next.RoundTrip(req)
	}
	req.Header.Set(reqHeader, strconv.FormatUint(i, 10))
	start := time.Now()
	resp, err := t.next.RoundTrip(req)
	t.rec.add("http.roundtrip", i, start, time.Now())
	return resp, err
}

// middleware is the server-side HTTP seam: its span is everything the
// gateway did for one request, named by route.
func (r *recorder) middleware(next http.Handler) http.Handler {
	if r == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		i, err := strconv.ParseUint(req.Header.Get(reqHeader), 10, 64)
		if err != nil {
			next.ServeHTTP(w, req)
			return
		}
		name := "gateway.other"
		switch {
		case req.Method == http.MethodPost && req.URL.Path == "/v1/trees":
			name = "gateway.put_tree"
		case req.Method == http.MethodPost && req.URL.Path == "/v1/jobs" && req.URL.RawQuery == "":
			name = "gateway.submit"
		case req.Method == http.MethodPost && req.URL.Path == "/v1/jobs":
			name = "gateway.submit_async"
		case req.Method == http.MethodGet:
			name = "gateway.job_wait"
		}
		start := time.Now()
		next.ServeHTTP(w, req.WithContext(context.WithValue(req.Context(), reqKey{}, i)))
		end := time.Now()
		r.add(name, i, start, end)
		if id := w.Header().Get(gateway.TraceHeader); id != "" {
			r.mu.Lock()
			// The program retains its last 512 traces; keep fewer.
			if len(r.traceIDs) == 256 {
				r.traceIDs = r.traceIDs[1:]
			}
			r.traceIDs = append(r.traceIDs, tracePair{id: id, handlerNS: int64(end.Sub(start))})
			r.mu.Unlock()
		}
	})
}

// backend is the gateway→engine seam.
type backend struct {
	gateway.Backend
	rec *recorder
}

func (r *recorder) wrapBackend(b gateway.Backend) gateway.Backend {
	if r == nil {
		return b
	}
	return &backend{Backend: b, rec: r}
}

func (b *backend) Eval(ctx context.Context, h core.Handle) (core.Handle, error) {
	i, ok := reqOf(ctx)
	if !ok {
		// Async jobs run on the job's context, not the request's.
		i, ok = b.rec.reqOfHandle(h)
	}
	if !ok {
		return b.Backend.Eval(ctx, h)
	}
	start := time.Now()
	res, err := b.Backend.Eval(ctx, h)
	b.rec.add("backend.eval", i, start, time.Now())
	return res, err
}

func (b *backend) PutTree(entries []core.Handle) (core.Handle, error) {
	start := time.Now()
	h, err := b.Backend.PutTree(entries)
	if i, ok := b.rec.reqOfHandle(h); ok {
		b.rec.add("backend.put_tree", i, start, time.Now())
	}
	return h, err
}

func (b *backend) ObjectBytes(ctx context.Context, h core.Handle) ([]byte, error) {
	i, ok := reqOf(ctx)
	if !ok {
		return b.Backend.ObjectBytes(ctx, h)
	}
	start := time.Now()
	data, err := b.Backend.ObjectBytes(ctx, h)
	b.rec.add("backend.object_bytes", i, start, time.Now())
	return data, err
}

// conn is the seam on every TCP link between nodes: it times Send,
// counts frames and bytes, and decodes each frame once (with the
// program's own decoder, so a wire-format change cannot mislead it) to
// find the op and to count object fetches.
type conn struct {
	transport.Conn
	rec *recorder
}

func (r *recorder) wrapConn(c transport.Conn) transport.Conn {
	if r == nil {
		return c
	}
	return &conn{Conn: c, rec: r}
}

func (c *conn) Send(msg []byte) error {
	start := time.Now()
	err := c.Conn.Send(msg)
	end := time.Now()
	r := c.rec
	r.frames.Add(1)
	r.frameBytes.Add(int64(len(msg)))
	m, derr := proto.Decode(msg)
	if derr != nil {
		return err
	}
	if m.Type == proto.TypeRequest {
		r.fetchFrames.Add(1)
	}
	if i, ok := r.reqOfHandle(m.Handle); ok {
		r.add("transport.send", i, start, end)
		r.mu.Lock()
		if len(r.frameSample) < 256 {
			r.frameSample = append(r.frameSample, append([]byte(nil), msg...))
		}
		r.mu.Unlock()
	}
	return err
}

// wrapRegistry returns a registry whose procedures are reg's, timed: the
// native apply time is the useful work of a cluster job.
func (r *recorder) wrapRegistry(reg *runtime.Registry) *runtime.Registry {
	if r == nil {
		return reg
	}
	out := runtime.NewRegistry()
	for _, name := range reg.Names() {
		inner, err := reg.Lookup(name)
		if err != nil {
			continue // listed a moment ago; cannot be missing
		}
		out.RegisterFunc(name, func(api core.API, input core.Handle) (core.Handle, error) {
			start := time.Now()
			res, err := inner.Apply(api, input)
			end := time.Now()
			r.applyNS.Add(int64(end.Sub(start)))
			if i, ok := r.reqOfHandle(input); ok {
				r.add("runtime.apply", i, start, end)
			}
			return res, err
		})
	}
	return out
}

// link fills in every span's ID and Parent and returns the spans ordered
// by op and start.
func (r *recorder) link() []span {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	// Within an op, an enclosing span starts no later and ends no
	// earlier; sorting by (start asc, end desc) puts parents first.
	sort.SliceStable(spans, func(a, b int) bool {
		x, y := spans[a], spans[b]
		if x.Req != y.Req {
			return x.Req < y.Req
		}
		if x.Start != y.Start {
			return x.Start < y.Start
		}
		return x.End > y.End
	})
	var open []int // indices of spans that may still enclose the next one
	for k := range spans {
		spans[k].ID = k + 1
		if k > 0 && spans[k-1].Req != spans[k].Req {
			open = open[:0]
		}
		// Parallel siblings (a job's map invocations) overlap without
		// nesting, so search the whole chain, innermost first.
		for j := len(open) - 1; j >= 0; j-- {
			if p := spans[open[j]]; p.Start <= spans[k].Start && spans[k].End <= p.End {
				spans[k].Parent = p.ID
				break
			}
		}
		open = append(open, k)
	}
	return spans
}

// selfTimes returns, per span name, each span's duration minus the part
// of it that its children cover, and the same for total durations.
func selfTimes(spans []span) (self, total map[string][]int64) {
	self, total = map[string][]int64{}, map[string][]int64{}
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range spans {
		covered, at := int64(0), s.Start
		kids := children[s.ID] // already in start order
		for _, c := range kids {
			if c.End <= at {
				continue
			}
			from := c.Start
			if from < at {
				from = at
			}
			covered += c.End - from
			at = c.End
		}
		self[s.Name] = append(self[s.Name], s.End-s.Start-covered)
		total[s.Name] = append(total[s.Name], s.End-s.Start)
	}
	return self, total
}

func medianInt64(vals []int64) float64 {
	s := append([]int64(nil), vals...)
	sortInt64(s)
	return quantile(s, 0.5)
}

// writeTrace writes the linked spans of the first maxOps sampled ops.
func writeTrace(dir, workload string, seed int64, spans []span, maxOps int) error {
	seen := map[uint64]bool{}
	cut := len(spans)
	for k, s := range spans {
		if !seen[s.Req] {
			if len(seen) == maxOps {
				cut = k
				break
			}
			seen[s.Req] = true
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans[:cut]})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace_"+workload+".json"), data, 0o644)
}
