package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// These tests assert no timing: they check that a run prints what
// BENCHMARK.json promises, that the request list depends on the seed and
// nothing else, and that the harness measures what it says it does.

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestManifestMatchesTables(t *testing.T) {
	m := readManifest(t)
	if !reflect.DeepEqual(m.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from the endToEnd table:\n%v\n%v", m.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the perLayer table")
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the workloads table", len(m.Workloads), len(workloads))
	}
	for k, w := range workloads {
		if m.Workloads[k].Name != w.name || m.Workloads[k].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), table has %q (%q)", k, m.Workloads[k].Name, m.Workloads[k].Why, w.name, w.why)
		}
	}
	if len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics: over 8 / 16 / 128", len(workloads), len(endToEnd), len(perLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	sawSetup := false
	for _, d := range endToEnd {
		check(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v is not in (0, 0.25]", d.Name, d.Bound)
		}
		sawSetup = sawSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !sawSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range perLayer {
		check(d.Name)
	}
}

// TestSmokePrintsEveryMetric runs every workload at smoke scale in both
// modes and checks that each named metric comes out exactly once, with
// its unit, and nothing else does.
func TestSmokePrintsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		w = w.smoke()
		for trace, run := range []func(workload, *config, time.Duration) (map[string]float64, int64, int64, error){runTimed, runTraced} {
			t.Run(fmt.Sprintf("%s/trace%d", w.name, trace), func(t *testing.T) {
				cfg := &config{seed: 7, nproc: 2, outDir: t.TempDir(), sz: smokeSizes}
				defs := endToEnd
				if trace == 1 {
					defs = perLayer
				}
				vals, attempted, failed, err := run(w, cfg, 1500*time.Millisecond)
				if err != nil {
					t.Fatal(err)
				}
				if attempted < 1 || failed != 0 {
					t.Errorf("attempted %d, failed %d", attempted, failed)
				}
				metrics, missing := fill(defs, vals)
				if len(missing) > 0 {
					t.Errorf("not measured: %v", missing)
				}
				if len(vals) != len(defs) {
					t.Errorf("%d values measured, %d metrics named", len(vals), len(defs))
				}
				for _, d := range defs {
					if m := metrics[d.Name]; m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s = %v %q", d.Name, m.Value, m.Unit)
					}
				}
				if trace == 0 {
					for _, d := range defs {
						if metrics[d.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s is %v", d.Name, metrics[d.Name].Value)
						}
					}
					return
				}
				if _, err := os.Stat(cfg.outDir + "/trace_" + w.name + ".json"); err != nil {
					t.Errorf("no trace file: %v", err)
				}
			})
		}
	}
}

// requestListHash hashes the first n requests of every workload's list.
func requestListHash(seed int64, n uint64) [sha256.Size]byte {
	cfg := &config{seed: seed, sz: smokeSizes}
	gw, cl := newGatewayPlan(cfg), newClusterPlan(cfg)
	h := sha256.New()
	for i := uint64(0); i < n; i++ {
		fmt.Fprintln(h, operand(seed, i), gw.request(i), cl.request(i))
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

func TestRequestListDependsOnlyOnSeed(t *testing.T) {
	if requestListHash(11, 2000) != requestListHash(11, 2000) {
		t.Error("the same seed gave two different request lists")
	}
	if requestListHash(11, 2000) == requestListHash(12, 2000) {
		t.Error("two seeds gave the same request list")
	}
	if s := poissonSchedule(11, 1000, time.Second); !reflect.DeepEqual(s, poissonSchedule(11, 1000, time.Second)) {
		t.Error("the same seed gave two different open-loop schedules")
	}
}

// TestOpenLoopChargesStallToLaterRequests checks that open-loop latency
// counts from the scheduled send time: a 50 ms stall in the target must
// show in the requests that fell due while it lasted, not only in the one
// that hit it.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const stall = 50 * time.Millisecond
	g := newLoadGen(1, func(ctx context.Context, w int, i uint64) error {
		if i == 10 {
			time.Sleep(stall)
		}
		return nil
	})
	sched := make([]time.Duration, 200) // one request per ms
	for k := range sched {
		sched[k] = time.Duration(k) * time.Millisecond
	}
	g.reserve(len(sched))
	p := g.open(sched)
	if p.attempted != int64(len(sched)) || p.failed != 0 {
		t.Fatalf("attempted %d, failed %d", p.attempted, p.failed)
	}
	// Requests 11..30 fell due 1..20 ms into the stall and waited out the
	// rest of it: at least 30 ms each.
	delayed := 0
	for _, l := range p.lat {
		if time.Duration(l) >= 30*time.Millisecond {
			delayed++
		}
	}
	if delayed < 20 {
		t.Errorf("%d requests report >= 30 ms; the stall should show in at least 20", delayed)
	}
}

func TestIQRShareMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := iqrShare(vals), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
}

func TestLinkAndSelfTimes(t *testing.T) {
	rec := newRecorder(1)
	at := func(ns int64) time.Time { return rec.t0.Add(time.Duration(ns)) }
	rec.add("http.roundtrip", 1, at(10), at(90))
	rec.add("op", 1, at(0), at(100))
	rec.add("gateway.submit", 1, at(20), at(70))
	rec.add("op", 2, at(5), at(50)) // another op, overlapping in time
	rec.add("backend.eval", 1, at(30), at(40))
	rec.add("backend.eval", 1, at(50), at(60))
	spans := rec.link()
	parent := map[string]string{}
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Req == 1 {
			parent[s.Name] = byID[s.Parent].Name
		}
	}
	want := map[string]string{"op": "", "http.roundtrip": "op", "gateway.submit": "http.roundtrip", "backend.eval": "gateway.submit"}
	if !reflect.DeepEqual(parent, want) {
		t.Errorf("parents = %v, want %v", parent, want)
	}
	self, total := selfTimes(spans)
	if got := self["gateway.submit"]; len(got) != 1 || got[0] != 30 {
		t.Errorf("gateway.submit self = %v, want [30] (50 minus two evals of 10)", got)
	}
	if got := total["op"]; len(got) != 2 {
		t.Errorf("op totals = %v, want two", got)
	}
}
