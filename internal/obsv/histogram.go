package obsv

import (
	"math"
	"sync/atomic"
	"time"
)

// latencyBuckets are the fixed exponential upper bounds (seconds) every
// Histogram uses: 50µs doubling to ~26s, which brackets everything from
// a cache hit at the edge to a multi-hop cold dataflow. Fixed buckets
// keep scrapes byte-comparable across processes and make the p50/p95/p99
// derivation deterministic.
var latencyBuckets = func() []float64 {
	out := make([]float64, 20)
	b := 50e-6
	for i := range out {
		out[i] = b
		b *= 2
	}
	return out
}()

// sizeBuckets are the fixed power-of-two upper bounds for count-valued
// histograms (batch sizes, fan-outs): 1 doubling to 4096. Like the
// latency buckets, they are fixed so scrapes stay byte-comparable.
var sizeBuckets = func() []float64 {
	out := make([]float64, 13)
	b := 1.0
	for i := range out {
		out[i] = b
		b *= 2
	}
	return out
}()

// Histogram is a fixed-bucket distribution: per-bucket counts, a running
// sum, and a total count, all maintained with atomics so Observe never
// takes a lock on the hot path. The default bounds are the exponential
// latency buckets; size-valued families use the power-of-two size
// buckets instead (Registry.SizeHistogram).
type Histogram struct {
	bounds []float64       // upper bounds, +Inf implied last
	counts []atomic.Uint64 // one per bucket, +Inf last
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
	count  atomic.Uint64
}

func newHistogram() *Histogram { return newHistogramWith(latencyBuckets) }

func newHistogramWith(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one measurement (seconds for latency histograms, a
// count for size histograms).
func (h *Histogram) Observe(seconds float64) {
	i := 0
	for i < len(h.bounds) && seconds > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+seconds)) {
			return
		}
	}
}

// ObserveDuration records one measurement.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count reports the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum reports the sum of observations in seconds.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-quantile (0 < q < 1) in seconds by linear
// interpolation within the bucket the target rank falls in. The +Inf
// bucket reports the last finite bound (the estimate saturates rather
// than extrapolating). Zero observations report 0.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum uint64
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			cum += n
			continue
		}
		if float64(cum+n) >= target {
			if i >= len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (target - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// flatten expands the histogram into the _bucket/_sum/_count exposition
// samples with the given base labels.
func (h *Histogram) flatten(name string, labels []Label) []FlatSample {
	out := make([]FlatSample, 0, len(h.counts)+2)
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatValue(h.bounds[i])
		}
		out = append(out, FlatSample{
			Name:   name + "_bucket",
			Labels: append(append([]Label{}, labels...), Label{Key: "le", Value: le}),
			Value:  float64(cum),
		})
	}
	out = append(out,
		FlatSample{Name: name + "_count", Labels: labels, Value: float64(h.count.Load())},
		FlatSample{Name: name + "_sum", Labels: labels, Value: h.Sum()},
	)
	return out
}
