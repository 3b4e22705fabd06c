// Package obsv is the unified observability layer of the deployment: a
// typed metrics registry with a deterministic Prometheus text encoder,
// and a per-request trace layer that attributes a submission's latency
// to pipeline stages (cache lookup, queue wait, placement, remote eval,
// object fetch, persist) across cluster hops.
//
// The registry replaces the gateway's original hand-rolled /metrics
// printer. Every family is registered once — as a directly instrumented
// Histogram, a Func metric sampled at scrape time, or via a Collector
// that emits snapshot-derived samples — and the encoder
// renders the union in sorted family order with # HELP/# TYPE headers,
// so scrapes are byte-stable for identical states and diffable across
// them. Family names are validated at registration: lowercase
// snake_case, by convention prefixed with the owning daemon (fixgate_,
// fixpoint_); internal/docgate lints both the prefix and that every
// family appears in ARCHITECTURE.md's metric table.
//
// Histograms use fixed exponential latency buckets and derive
// p50/p95/p99 by linear interpolation within the winning bucket — the
// same derivation the trace digest (GET /v1/trace) reports per stage.
package obsv

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Type classifies a metric family for the # TYPE header.
type Type string

// The three family types the registry encodes.
const (
	// TypeCounter is a monotonically increasing value.
	TypeCounter Type = "counter"
	// TypeGauge is a value that can go up and down.
	TypeGauge Type = "gauge"
	// TypeHistogram is a bucketed latency distribution.
	TypeHistogram Type = "histogram"
)

// Label is one key=value dimension on a sample.
type Label struct {
	// Key is the label name (snake_case).
	Key string
	// Value is the label value (rendered quoted).
	Value string
}

// Sample is one measurement emitted by a Collector.
type Sample struct {
	// Name is the full family name (prefix included).
	Name string
	// Help is the family's one-line description.
	Help string
	// Type is the family type.
	Type Type
	// Value is the measurement.
	Value float64
	// Labels are the sample's dimensions (may be nil).
	Labels []Label
}

// Collector contributes snapshot-derived samples at scrape time. It is
// how subsystems that already keep their own counters (gateway stats,
// cluster NetStats, jobs.Stats, durable.Stats) join the registry without
// double-counting: one snapshot per scrape, one emit per family.
type Collector func(emit func(Sample))

// familyMeta is the registered identity of one family.
type familyMeta struct {
	name string
	help string
	typ  Type
}

// Registry holds every metric family of one process and renders them in
// Prometheus text exposition format. All methods are safe for concurrent
// use; registration methods panic on a name conflict or an invalid name
// (programmer error, caught at boot).
type Registry struct {
	mu         sync.Mutex
	hists      map[string]*Histogram
	histVec    map[string]*HistogramVec
	funcs      map[string]funcMetric
	collectors []Collector
	meta       map[string]familyMeta // every registered family, by name
}

type funcMetric struct {
	meta familyMeta
	fn   func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		hists:   make(map[string]*Histogram),
		histVec: make(map[string]*HistogramVec),
		funcs:   make(map[string]funcMetric),
		meta:    make(map[string]familyMeta),
	}
}

// metricName is the accepted family/label shape: lowercase snake_case.
var metricName = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

func (r *Registry) register(name, help string, typ Type) familyMeta {
	if !metricName.MatchString(name) {
		panic(fmt.Sprintf("obsv: metric name %q is not lowercase snake_case", name))
	}
	if _, dup := r.meta[name]; dup {
		panic(fmt.Sprintf("obsv: metric %q registered twice", name))
	}
	m := familyMeta{name: name, help: help, typ: typ}
	r.meta[name] = m
	return m
}

// GaugeFunc registers a gauge sampled by calling fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.register(name, help, TypeGauge)
	r.funcs[name] = funcMetric{meta: m, fn: fn}
}

// Histogram registers (and returns) a latency family with the default
// exponential buckets.
func (r *Registry) Histogram(name, help string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, help, TypeHistogram)
	h := newHistogram()
	r.hists[name] = h
	return h
}

// SizeHistogram registers (and returns) a count-valued family with
// power-of-two buckets (1 doubling to 4096) — batch sizes, fan-outs, and
// other small-integer distributions that the latency buckets would
// squash into their lowest bound.
func (r *Registry) SizeHistogram(name, help string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, help, TypeHistogram)
	h := newHistogramWith(sizeBuckets)
	r.hists[name] = h
	return h
}

// HistogramVec registers a labeled histogram family with the default
// exponential buckets.
func (r *Registry) HistogramVec(name, help string, labels ...string) *HistogramVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, l := range labels {
		if !metricName.MatchString(l) {
			panic(fmt.Sprintf("obsv: label name %q is not lowercase snake_case", l))
		}
	}
	r.register(name, help, TypeHistogram)
	v := &HistogramVec{labels: labels, children: make(map[string]*Histogram)}
	r.histVec[name] = v
	return v
}

// Collect adds a scrape-time collector. Samples a collector emits must
// keep one (name → help, type) identity across emissions; the encoder
// groups them into families alongside the statically registered ones.
func (r *Registry) Collect(c Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, c)
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct {
	labels   []string
	mu       sync.Mutex
	children map[string]*Histogram
}

// With returns the child histogram for the given label values (created
// on first use).
func (v *HistogramVec) With(values ...string) *Histogram {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obsv: histogram vec wants %d label values, got %d", len(v.labels), len(values)))
	}
	key := labelKey(values)
	v.mu.Lock()
	defer v.mu.Unlock()
	h := v.children[key]
	if h == nil {
		h = newHistogram()
		v.children[key] = h
	}
	return h
}

// Children snapshots the vec's (label values → histogram) map — the
// trace digest walks it to derive per-stage quantiles.
func (v *HistogramVec) Children(visit func(values []string, h *Histogram)) {
	v.mu.Lock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	hs := make([]*Histogram, len(keys))
	for i, k := range keys {
		hs[i] = v.children[k]
	}
	v.mu.Unlock()
	for i, k := range keys {
		visit(splitLabelKey(k), hs[i])
	}
}

// labelKey joins label values with a separator that cannot occur in a
// rendered value (0x00 is rejected nowhere, but collisions only merge
// metrics — acceptable for adversarial-free internal use).
func labelKey(values []string) string { return strings.Join(values, "\x00") }

func splitLabelKey(key string) []string { return strings.Split(key, "\x00") }

// Family is one family's scrape-time snapshot.
type Family struct {
	// Name is the family name.
	Name string
	// Help is the # HELP line body.
	Help string
	// Type is the # TYPE line body.
	Type Type
	// Samples are the family's rendered samples in output order. For
	// histograms these are the _bucket/_sum/_count expansion.
	Samples []FlatSample
}

// FlatSample is one output line of a family: the rendered metric name
// (family name plus any _bucket/_sum/_count suffix), its labels, and the
// value.
type FlatSample struct {
	// Name is the rendered metric name.
	Name string
	// Labels are the sample's dimensions in output order.
	Labels []Label
	// Value is the measurement.
	Value float64
}

// Snapshot gathers every family — static metrics, func metrics, and
// collector emissions — sorted by family name with samples in
// deterministic label order.
func (r *Registry) Snapshot() []Family {
	r.mu.Lock()
	// Copy the registration maps so collectors and metric updates are
	// never invoked under the registry lock.
	meta := make(map[string]familyMeta, len(r.meta))
	for k, v := range r.meta {
		meta[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	histVecs := make(map[string]*HistogramVec, len(r.histVec))
	for k, v := range r.histVec {
		histVecs[k] = v
	}
	funcs := make(map[string]funcMetric, len(r.funcs))
	for k, v := range r.funcs {
		funcs[k] = v
	}
	collectors := append([]Collector(nil), r.collectors...)
	r.mu.Unlock()

	families := make(map[string]*Family, len(meta))
	family := func(m familyMeta) *Family {
		f := families[m.name]
		if f == nil {
			f = &Family{Name: m.name, Help: m.help, Type: m.typ}
			families[m.name] = f
		}
		return f
	}
	for name, fm := range funcs {
		family(meta[name]).Samples = append(family(meta[name]).Samples,
			FlatSample{Name: name, Value: fm.fn()})
	}
	for name, h := range hists {
		family(meta[name]).Samples = append(family(meta[name]).Samples, h.flatten(name, nil)...)
	}
	for name, v := range histVecs {
		f := family(meta[name])
		v.Children(func(values []string, h *Histogram) {
			f.Samples = append(f.Samples, h.flatten(name, zipLabels(v.labels, values))...)
		})
	}
	for _, collect := range collectors {
		collect(func(s Sample) {
			if !metricName.MatchString(s.Name) {
				panic(fmt.Sprintf("obsv: collected metric name %q is not lowercase snake_case", s.Name))
			}
			f := families[s.Name]
			if f == nil {
				f = &Family{Name: s.Name, Help: s.Help, Type: s.Type}
				families[s.Name] = f
			}
			f.Samples = append(f.Samples, FlatSample{Name: s.Name, Labels: s.Labels, Value: s.Value})
		})
	}

	out := make([]Family, 0, len(families))
	for _, f := range families {
		sort.SliceStable(f.Samples, func(i, j int) bool {
			return labelSig(f.Samples[i]) < labelSig(f.Samples[j])
		})
		out = append(out, *f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// labelSig orders samples within a family: by rendered name first (so a
// histogram's buckets group before _count/_sum), then by label values.
// The "le" bucket label is excluded — buckets must keep their cumulative
// (insertion) order, which the stable sort preserves for equal sigs.
func labelSig(s FlatSample) string {
	var b strings.Builder
	b.WriteString(s.Name)
	for _, l := range s.Labels {
		if l.Key == "le" {
			continue
		}
		b.WriteByte(0)
		b.WriteString(l.Key)
		b.WriteByte(1)
		b.WriteString(l.Value)
	}
	return b.String()
}

func zipLabels(names, values []string) []Label {
	out := make([]Label, len(names))
	for i := range names {
		out[i] = Label{Key: names[i], Value: values[i]}
	}
	return out
}

// ContentType is the Prometheus text exposition content type the
// /metrics endpoints must serve.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every family in text exposition format:
// families sorted by name, each with # HELP and # TYPE headers, samples
// in deterministic label order. The output is assembled off-wire and
// written once, so a slow scraper never observes a half-rendered family.
func (r *Registry) WritePrometheus(w io.Writer) (int, error) {
	var b strings.Builder
	for _, f := range r.Snapshot() {
		if f.Help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.Name, f.Help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.Name, f.Type)
		for _, s := range f.Samples {
			b.WriteString(s.Name)
			if len(s.Labels) > 0 {
				b.WriteByte('{')
				for i, l := range s.Labels {
					if i > 0 {
						b.WriteByte(',')
					}
					fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
				}
				b.WriteByte('}')
			}
			b.WriteByte(' ')
			b.WriteString(formatValue(s.Value))
			b.WriteByte('\n')
		}
	}
	return io.WriteString(w, b.String())
}

// formatValue renders a sample value: integers without an exponent
// (counters stay grep-able), +Inf for the terminal bucket bound.
func formatValue(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
