package fixgo_test

import (
	"os"
	"testing"

	"fixgo/internal/bench"
)

// TestMain lets the Fig. 7a "Linux process" row re-exec this binary as
// the add child.
func TestMain(m *testing.M) {
	bench.RunChildIfRequested()
	os.Exit(m.Run())
}

// Each benchmark regenerates one of the paper's tables/figures at the
// default (laptop) scale; set FIXGO_SCALE=paper for parameters closer to
// the paper's. The rendered table (measured vs paper, with slowdown
// ratios) is logged once per benchmark — run with -v to see it.

func runExperiment(b *testing.B, fn func(bench.Scale) (bench.Result, error)) {
	b.Helper()
	s := bench.ScaleFromEnv()
	for i := 0; i < b.N; i++ {
		res, err := fn(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
			if base := res.Baseline(); base > 0 {
				b.ReportMetric(base.Seconds(), "fix-s")
			}
		}
	}
}

// BenchmarkFig7a — Fig. 7a / §5.2.1 table: trivial invocation overhead on
// Fixpoint, static/virtual calls, a Linux process, Pheromone, Ray, Faasm,
// and OpenWhisk.
func BenchmarkFig7a(b *testing.B) { runExperiment(b, bench.Fig7a) }

// BenchmarkFig7b — Fig. 7b: a chain of invocations with nearby and remote
// clients (Fixpoint vs Pheromone vs Ray).
func BenchmarkFig7b(b *testing.B) { runExperiment(b, bench.Fig7b) }

// BenchmarkFig8a — Fig. 8a / §5.3.1 table: one-off invocations against
// slow network storage; externalized vs internal I/O.
func BenchmarkFig8a(b *testing.B) { runExperiment(b, bench.Fig8a) }

// BenchmarkFig8b — Fig. 8b: count-string map-reduce across a 10-node
// cluster; Fixpoint (+ no-locality, + internal-I/O ablations), Ray CPS,
// Ray blocking, Pheromone (map only), OpenWhisk.
func BenchmarkFig8b(b *testing.B) { runExperiment(b, bench.Fig8b) }

// BenchmarkFig9 — Fig. 9 / Table 2: B+-tree lookups vs arity; Fixpoint vs
// Ray blocking vs Ray continuation-passing.
func BenchmarkFig9(b *testing.B) { runExperiment(b, bench.Fig9) }

// BenchmarkFig10 — Fig. 10: burst-parallel compile-and-link job; Fixpoint
// vs Ray+MinIO vs OpenWhisk.
func BenchmarkFig10(b *testing.B) { runExperiment(b, bench.Fig10) }
