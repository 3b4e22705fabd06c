// Command benchmark measures the serving system end to end and layer by
// layer, from outside: it generates seeded requests, sends them through
// the program's public entry points in one process over loopback, checks
// every output, and prints the metrics BENCHMARK.json names. README.md
// explains the workloads, the metrics and how to read the numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"sort"
	"time"
)

// maxFailedShare is the share of ops that may fail, be refused, time out
// or answer wrongly before the command itself fails.
const maxFailedShare = 0.001

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed of the generated requests")
		seconds = flag.Float64("seconds", 24, "how long one run measures")
		trace   = flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
		scale   = flag.String("scale", "full", "full or smoke (small inputs, for tests)")
		rate    = flag.Float64("rate", 0, "open-loop arrival rate in ops/s (0: the workload's fixed rate)")
		outDir  = flag.String("out", "benchmark/out", "directory for traces, results and the durable data-dir")
		repeat  = flag.Int("repeat", 1, "with -workload all: run the full set this many times and compare the runs")
		compare = flag.Bool("compare", false, "compare two result files given as arguments, run no workload")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: -compare a.json b.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	if *name == "all" {
		os.Exit(runAll(*seed, *seconds, *scale, *outDir, *repeat))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatalf("unknown workload %q", *name)
	}
	if *rate > 0 {
		w.rate = *rate
	}
	cfg := &config{seed: *seed, nproc: runtime.NumCPU(), outDir: *outDir, sz: fullSizes}
	if *scale == "smoke" {
		cfg.sz = smokeSizes
		w = w.smoke()
	}
	// No run may hang: a stuck op fails on its own deadline, and a stuck
	// run is killed here, with the stacks that show where. A healthy run
	// ends a few seconds after its length.
	d := time.Duration(*seconds * float64(time.Second))
	watchdog := time.AfterFunc(d*3/2+60*time.Second, func() {
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		fatalf("watchdog: run did not finish")
	})
	defer watchdog.Stop()

	run, defs := runTimed, endToEnd
	if *trace != 0 {
		run, defs = runTraced, perLayer
	}
	vals, attempted, failed, err := run(w, cfg, d)
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	metrics, missing := fill(defs, vals)
	res := result{Correct: failed == 0 && len(missing) == 0, Attempted: attempted, Failed: failed, Metrics: metrics}
	for _, d := range defs {
		if m, ok := metrics[d.Name]; ok {
			fmt.Printf("%-20s %-32s %16.4f %s\n", w.name, d.Name, m.Value, m.Unit)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if len(missing) > 0 {
		fatalf("%s: metrics not measured: %v", w.name, missing)
	}
	if float64(failed) > maxFailedShare*float64(attempted) {
		fatalf("%s: %d of %d ops failed", w.name, failed, attempted)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}

// runner drives one workload through a run: it owns the current system,
// replaces it when it has served its share of slices, and keeps the op
// numbering going across systems so no request is sent twice.
type runner struct {
	w      workload
	cfg    *config
	g      *loadGen
	sys    *system
	served int       // slices the current system has served
	setups []float64 // seconds each set-up of timeSetUp took
	// attempted and failed add up every timed op of the run.
	attempted, failed int64
	firstErr          error
}

func newRunner(w workload, cfg *config) *runner {
	r := &runner{w: w, cfg: cfg, g: newLoadGen(cfg.nproc, nil)}
	r.g.reserve(int(w.sliceOps))
	return r
}

// fresh replaces the current system with a newly set-up one and warms it:
// caches fill and lazy set-up finishes before anything is timed.
func (r *runner) fresh() error {
	r.close()
	sys, err := r.w.setup(r.cfg)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	r.sys, r.served, r.g.op = sys, 0, sys.op
	if warm := r.g.closed(r.w.sliceOps / 10); warm.ok() == 0 {
		return fmt.Errorf("warm-up: no op succeeded: %v", warm.firstErr)
	}
	return nil
}

// close checks the current system's deferred outputs and shuts it down.
func (r *runner) close() {
	if r.sys == nil {
		return
	}
	if r.sys.verify != nil {
		_, wrong := r.sys.verify()
		r.failed += wrong
	}
	r.sys.close()
	r.sys = nil
	// The next system starts from an empty heap, so that peak memory is
	// one system's, whatever the collector's timing.
	debug.FreeOSMemory()
}

// count adds a timed phase to the run's totals.
func (r *runner) count(p phase) {
	r.attempted += p.attempted
	r.failed += p.failed
	if r.firstErr == nil {
		r.firstErr = p.firstErr
	}
}

// slices runs closed-loop slices of the workload's fixed op count until
// the next one would not fit in d, at least two. A slice is the same work
// on every commit and machine; how many fit is what varies. Each system
// serves slicesPerSystem of them and is then replaced (outside any
// slice), because the program's stores and memo tables only grow: this
// keeps per-op cost and peak memory independent of how long, or how fast,
// the run is.
func (r *runner) slices(d time.Duration) ([]phase, error) {
	var out []phase
	start := time.Now()
	var longest time.Duration
	for len(out) < 2 || time.Since(start)+longest < d {
		if r.sys == nil || (r.w.slicesPerSystem > 0 && r.served == r.w.slicesPerSystem) {
			if err := r.fresh(); err != nil {
				return nil, err
			}
		}
		p := r.g.closed(r.w.sliceOps)
		r.count(p)
		r.served++
		longest = max(longest, p.wall)
		out = append(out, p)
	}
	return out, nil
}

// timeSetUp sets the workload up and tears it down again repeatedly, at
// least three times and for about d, so that a run reports the median of
// several set-ups: one is too short to time steadily.
func (r *runner) timeSetUp(d time.Duration) error {
	start := time.Now()
	for len(r.setups) < 3 || (time.Since(start) < d && len(r.setups) < 201) {
		t0 := time.Now()
		sys, err := r.w.setup(r.cfg)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())
		sys.close()
	}
	return nil
}

func throughput(p phase) float64 { return float64(p.ok()) / p.wall.Seconds() }

// best is the mean of the best quarter (at least two) of the per-slice
// values. Noise on a shared machine is one-sided: a neighbour only ever
// takes CPU away, for seconds at a time, and the median over the slices
// of a run then moves by 15 to 30 % from run to run, twice as much as the
// best quarter does. What the program can do shows in the slices that
// were left alone, so every closed-loop metric is read from those. A
// slice is a second or so long, enough to hold the program's own periodic
// work (fsync ticks, GC cycles, journal compaction) in every one of them.
func best(vals []float64, higherIsBetter bool) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if higherIsBetter {
		slices.Reverse(s)
	}
	s = s[:min(len(s), max(2, len(s)/4))]
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// over collects one value per slice.
func over(ps []phase, f func(p phase) float64) []float64 {
	out := make([]float64, len(ps))
	for k, p := range ps {
		out[k] = f(p)
	}
	return out
}

// runTimed is the --trace 0 run: repeated set-up, then timed closed-loop
// slices with no wrapper installed.
func runTimed(w workload, cfg *config, d time.Duration) (map[string]float64, int64, int64, error) {
	r := newRunner(w, cfg)
	defer r.close()
	if err := r.timeSetUp(d / 20); err != nil {
		return nil, 0, 0, err
	}
	closed, err := r.slices(d)
	if err != nil {
		return nil, 0, 0, err
	}
	r.close() // runs the deferred output checks
	if r.attempted == r.failed {
		return nil, 0, 0, fmt.Errorf("no op succeeded: %v", r.firstErr)
	}
	perOp := func(f func(p phase) float64) func(p phase) float64 {
		return func(p phase) float64 { return f(p) / float64(p.attempted) }
	}
	vals := map[string]float64{
		"setup_s":            median(r.setups),
		"throughput_ops_s":   best(over(closed, throughput), true),
		"latency_p50_us":     best(over(closed, func(p phase) float64 { return quantile(p.lat, 0.50) / 1e3 }), false),
		"latency_p99_us":     best(over(closed, func(p phase) float64 { return quantile(p.lat, 0.99) / 1e3 }), false),
		"cpu_us_per_op":      best(over(closed, perOp(func(p phase) float64 { return float64(p.cpu.Nanoseconds()) / 1e3 })), false),
		"allocs_per_op":      best(over(closed, perOp(func(p phase) float64 { return float64(p.mallocs) })), false),
		"alloc_bytes_per_op": best(over(closed, perOp(func(p phase) float64 { return float64(p.bytes) })), false),
		"peak_rss_mib":       peakRSSMiB(),
	}
	fmt.Fprintf(os.Stderr, "%s seed=%d nproc=%d gomaxprocs=%d %s: %d set-ups, %d slices, percentiles per slice over n=%d ops (%d beyond p99), slice throughput spread %.1f%%\n",
		w.name, cfg.seed, cfg.nproc, runtime.GOMAXPROCS(0), runtime.Version(), len(r.setups),
		len(closed), w.sliceOps, w.sliceOps/100, 100*iqrShare(over(closed, throughput)))
	if r.firstErr != nil {
		fmt.Fprintf(os.Stderr, "%s: first failed op: %v\n", w.name, r.firstErr)
	}
	return vals, r.attempted, r.failed, nil
}

// runTraced is the --trace 1 run. On plain systems: closed-loop slices
// and the open loop. Then the same kind of slices on systems built with
// the benchmark's wrappers installed, whose slowdown is what tracing
// costs. Last, direct timed calls into the layers.
func runTraced(w workload, cfg *config, d time.Duration) (map[string]float64, int64, int64, error) {
	vals := map[string]float64{}
	for _, m := range perLayer {
		vals[m.Name] = 0 // a layer this workload does not cross
	}
	plain := newRunner(w, cfg)
	defer plain.close()
	untraced, err := plain.slices(d / 4)
	if err != nil {
		return nil, 0, 0, err
	}
	if err := plain.fresh(); err != nil {
		return nil, 0, 0, err
	}
	open := plain.g.open(poissonSchedule(cfg.seed, w.rate, d/5))
	plain.count(open)
	plain.close()
	vals["bench.slice_iqr_share"] = iqrShare(over(untraced, throughput))
	vals["bench.sched_lag_p99_us"] = quantile(open.lag, 0.99) / 1e3
	vals["bench.open_p50_us"] = quantile(open.lat, 0.50) / 1e3
	vals["bench.open_p99_us"] = quantile(open.lat, 0.99) / 1e3
	missed := open.failed
	for _, l := range open.lat {
		if time.Duration(l) > w.limit {
			missed++
		}
	}
	vals["bench.open_slo_miss_share"] = float64(missed) / float64(open.attempted)

	rec := newRecorder(w.sampleEvery)
	tcfg := &config{seed: cfg.seed, nproc: cfg.nproc, outDir: cfg.outDir, sz: cfg.sz, rec: rec}
	tr := newRunner(w, tcfg)
	tr.g.next.Store(plain.g.next.Load())
	defer tr.close()
	// One traced system serves the whole phase, so that its counters
	// cover every traced op.
	tr.w.slicesPerSystem = 0
	first := tr.g.next.Load()
	if err := tr.fresh(); err != nil {
		return nil, 0, 0, err
	}
	engines := tr.sys.engines()
	for _, e := range engines {
		e.Stats().Reset()
	}
	inflight := watchInFlight(engines)
	tracedStart := time.Now()
	traced, err := tr.slices(d / 4)
	if err != nil {
		return nil, 0, 0, err
	}
	tracedWall := time.Since(tracedStart)
	vals["runtime.inflight_max"] = float64(inflight())
	var waiting []float64
	for _, e := range engines {
		waiting = append(waiting, e.Stats().Usage(tracedWall).WaitingPct()/100)
	}
	vals["runtime.cpu_waiting_share"] = median(waiting)
	vals["bench.trace_overhead_share"] = 1 - best(over(traced, throughput), true)/best(over(untraced, throughput), true)
	if tr.sys.reconcile != nil {
		vals["gateway.trace_gap_share"] = tr.sys.reconcile()
	}
	ops := int64(tr.g.next.Load() - first)
	tr.sys.layers(vals, ops)
	tr.close()
	attempted, failed := plain.attempted+tr.attempted, plain.failed+tr.failed
	vals["bench.failed_share"] = float64(failed) / float64(attempted)

	spans := rec.link()
	spanLayers(vals, rec, spans, ops)
	if err := writeTrace(cfg.outDir, w.name, cfg.seed, spans, 500); err != nil {
		return nil, 0, 0, fmt.Errorf("write trace: %w", err)
	}
	rec.mu.Lock()
	frames := rec.frameSample
	rec.mu.Unlock()
	if err := microLayers(vals, cfg.seed, frames, cfg.sz.microDiv); err != nil {
		return nil, 0, 0, err
	}
	fmt.Fprintf(os.Stderr, "%s seed=%d nproc=%d gomaxprocs=%d %s: open loop n=%d at %.0f ops/s, limit %v; %d traced slices, %d spans of 1 op in %d\n",
		w.name, cfg.seed, cfg.nproc, runtime.GOMAXPROCS(0), runtime.Version(), open.attempted, w.rate, w.limit, len(traced), len(spans), w.sampleEvery)
	for _, r := range []*runner{plain, tr} {
		if r.firstErr != nil {
			fmt.Fprintf(os.Stderr, "%s: first failed op: %v\n", w.name, r.firstErr)
		}
	}
	return vals, attempted, failed, nil
}
