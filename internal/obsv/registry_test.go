package obsv

import (
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegisterPanicsOnDupAndBadName(t *testing.T) {
	r := NewRegistry()
	r.Histogram("fixgate_dup_seconds", "x")
	mustPanic(t, "duplicate name", func() { r.GaugeFunc("fixgate_dup_seconds", "y", func() float64 { return 0 }) })
	mustPanic(t, "uppercase name", func() { r.Histogram("Fixgate_Bad", "z") })
	mustPanic(t, "bad label", func() { r.HistogramVec("fixgate_vec_seconds", "v", "Bad-Label") })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", what)
		}
	}()
	fn()
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("fixgate_lat_seconds", "latency")
	// 100 observations at ~1ms: quantiles must land inside the bucket
	// containing 1ms (bounds 800µs..1.6ms).
	for i := 0; i < 100; i++ {
		h.Observe(1e-3)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if got, want := h.Sum(), 0.1; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		v := h.Quantile(q)
		if v < 800e-6 || v > 1600e-6 {
			t.Fatalf("q%v = %g, want within (800µs, 1.6ms]", q, v)
		}
	}
	if h.Quantile(0.99) < h.Quantile(0.5) {
		t.Fatal("quantiles must be monotone")
	}
}

func TestHistogramQuantileSpread(t *testing.T) {
	h := newHistogram()
	// 90 fast + 10 slow: p50 fast, p99 slow.
	for i := 0; i < 90; i++ {
		h.Observe(100e-6)
	}
	for i := 0; i < 10; i++ {
		h.Observe(10e-3)
	}
	if p50 := h.Quantile(0.5); p50 > 1e-3 {
		t.Fatalf("p50 = %g, want fast", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 5e-3 {
		t.Fatalf("p99 = %g, want slow", p99)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := newHistogram()
	h.Observe(1e6) // way past the last bound
	if got := h.Quantile(0.5); got != latencyBuckets[len(latencyBuckets)-1] {
		t.Fatalf("overflow quantile = %g, want saturation at last bound", got)
	}
}

func TestWritePrometheusDeterministicAndSorted(t *testing.T) {
	r := NewRegistry()
	r.Collect(func(emit func(Sample)) {
		emit(Sample{Name: "fixgate_b_total", Help: "b", Type: TypeCounter, Value: 2})
		emit(Sample{Name: "fixgate_a_total", Help: "a", Type: TypeCounter, Value: 1})
		for _, s := range []struct {
			tenant string
			v      float64
		}{{"zeta", 3}, {"alpha", 1}} {
			emit(Sample{Name: "fixgate_tenant_total", Help: "per tenant", Type: TypeCounter,
				Value: s.v, Labels: []Label{{Key: "tenant", Value: s.tenant}}})
		}
	})
	r.GaugeFunc("fixgate_depth", "queue depth", func() float64 { return 7 })
	h := r.Histogram("fixgate_lat_seconds", "lat")
	h.Observe(1e-3)

	var b1, b2 strings.Builder
	if _, err := r.WritePrometheus(&b1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	out := b1.String()
	if out != b2.String() {
		t.Fatal("two scrapes of identical state differ")
	}

	// Families sorted by name.
	var familyOrder []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			familyOrder = append(familyOrder, strings.Fields(line)[2])
		}
	}
	if !sort.StringsAreSorted(familyOrder) {
		t.Fatalf("families not sorted: %v", familyOrder)
	}
	// Labeled samples sorted by label value.
	ai := strings.Index(out, `fixgate_tenant_total{tenant="alpha"} 1`)
	zi := strings.Index(out, `fixgate_tenant_total{tenant="zeta"} 3`)
	if ai < 0 || zi < 0 || ai > zi {
		t.Fatalf("tenant samples missing or unsorted:\n%s", out)
	}
	// Histogram expansion: buckets cumulative and in bound order, then
	// _count and _sum.
	bi := strings.Index(out, `fixgate_lat_seconds_bucket{le="5e-05"} 0`)
	ci := strings.Index(out, `fixgate_lat_seconds_bucket{le="+Inf"} 1`)
	ki := strings.Index(out, "fixgate_lat_seconds_count 1")
	if bi < 0 || ci < 0 || ki < 0 || !(bi < ci && ci < ki) {
		t.Fatalf("histogram expansion wrong:\n%s", out)
	}
}

func TestHistogramBucketOrderCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("fixgate_lat_seconds", "lat")
	for _, s := range []float64{60e-6, 1e-3, 1e-3, 30} {
		h.Observe(s)
	}
	fams := r.Snapshot()
	var buckets []float64
	for _, f := range fams {
		for _, s := range f.Samples {
			if strings.HasSuffix(s.Name, "_bucket") {
				buckets = append(buckets, s.Value)
			}
		}
	}
	if len(buckets) != len(latencyBuckets)+1 {
		t.Fatalf("bucket count = %d", len(buckets))
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] < buckets[i-1] {
			t.Fatalf("bucket counts not cumulative at %d: %v", i, buckets)
		}
	}
	if buckets[len(buckets)-1] != 4 {
		t.Fatalf("+Inf bucket = %g, want 4", buckets[len(buckets)-1])
	}
}

func TestCollectorSamples(t *testing.T) {
	r := NewRegistry()
	hits := 0
	r.Collect(func(emit func(Sample)) {
		hits++
		emit(Sample{Name: "fixgate_snap_total", Help: "snap", Type: TypeCounter, Value: 42})
		emit(Sample{Name: "fixgate_snap_labeled_total", Help: "snap labeled", Type: TypeCounter,
			Value: 1, Labels: []Label{{Key: "tenant", Value: "t1"}}})
	})
	var b strings.Builder
	if _, err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if hits != 1 {
		t.Fatalf("collector called %d times per scrape", hits)
	}
	out := b.String()
	for _, want := range []string{
		"fixgate_snap_total 42",
		`fixgate_snap_labeled_total{tenant="t1"} 1`,
		"# TYPE fixgate_snap_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestConcurrentMutationWhileScraping(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("fixgate_hammer_seconds", "hammer lat")
	v := r.HistogramVec("fixgate_hammer_vec_seconds", "hammer vec", "tenant")

	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Scrapers run concurrently with the mutators.
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var b strings.Builder
				if _, err := r.WritePrometheus(&b); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	var mut sync.WaitGroup
	for w := 0; w < workers; w++ {
		mut.Add(1)
		go func(w int) {
			defer mut.Done()
			tenant := string(rune('a' + w%4))
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(i%10+1) * 1e-4)
				v.With(tenant).Observe(1e-3)
			}
		}(w)
	}
	mut.Wait()
	close(stop)
	wg.Wait()

	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
	var sum uint64
	for _, tenant := range []string{"a", "b", "c", "d"} {
		sum += v.With(tenant).Count()
	}
	if sum != workers*perWorker {
		t.Fatalf("vec total = %d, want %d", sum, workers*perWorker)
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		0:            "0",
		5:            "5",
		2.5:          "2.5",
		5e-05:        "5e-05",
		math.Inf(+1): "+Inf",
	}
	for in, want := range cases {
		if got := formatValue(in); got != want {
			t.Fatalf("formatValue(%g) = %q, want %q", in, got, want)
		}
	}
}

func TestObserveDuration(t *testing.T) {
	h := newHistogram()
	h.ObserveDuration(2 * time.Millisecond)
	if h.Count() != 1 {
		t.Fatal("duration not observed")
	}
	if got := h.Sum(); math.Abs(got-2e-3) > 1e-9 {
		t.Fatalf("sum = %g", got)
	}
}
