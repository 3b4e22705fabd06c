package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// resultSet is one full run of every workload, both modes, as -workload
// all writes it and -compare reads it.
type resultSet struct {
	Seed       int64                     `json:"seed"`
	Seconds    float64                   `json:"seconds"`
	Scale      string                    `json:"scale"`
	NProc      int                       `json:"nproc"`
	GOMAXPROCS int                       `json:"gomaxprocs"`
	GoVersion  string                    `json:"go_version"`
	Commit     string                    `json:"commit"`
	Workloads  map[string]workloadResult `json:"workloads"`
}

// workloadResult is a workload's two results: end-to-end metrics from the
// timed run, per-layer metrics from the traced run.
type workloadResult struct {
	EndToEnd result `json:"end_to_end"`
	PerLayer result `json:"per_layer"`
}

// commit names the source the benchmark was built from, where the build
// or the environment knows it.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// runAll runs every workload in both modes, each in a child process of
// this same binary so that no run inherits another's heap or peak RSS,
// prints every metric, writes the set to outDir and, with repeat > 1,
// compares each later set with the first. It returns the exit code.
func runAll(seed int64, seconds float64, scale, outDir string, repeat int) int {
	self, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	code := 0
	var files []string
	for n := 1; n <= repeat; n++ {
		set := resultSet{Seed: seed, Seconds: seconds, Scale: scale, NProc: runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commit(),
			Workloads: map[string]workloadResult{}}
		for _, w := range workloads {
			var entry workloadResult
			for trace, into := range []*result{&entry.EndToEnd, &entry.PerLayer} {
				cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
					"-scale", scale, "-out", outDir)
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s -trace %d: %v\n", w.name, trace, err)
					code = 1
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				last := lines[len(lines)-1]
				if jerr := json.Unmarshal(last, into); jerr != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s -trace %d printed no result\n", w.name, trace)
					code = 1
					continue
				}
				os.Stdout.Write(bytes.Join(lines[:len(lines)-1], []byte("\n")))
				fmt.Println()
			}
			set.Workloads[w.name] = entry
		}
		path := filepath.Join(outDir, fmt.Sprintf("results_seed%d_%s_run%d.json", seed, time.Now().Format("20060102T150405"), n))
		data, err := json.MarshalIndent(set, "", "  ")
		if err != nil {
			fatalf("%v", err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			fatalf("%v", err)
		}
		fmt.Println("wrote", path)
		files = append(files, path)
	}
	for _, f := range files[1:] {
		if compareFiles(files[0], f) != 0 {
			code = 1
		}
	}
	return code
}

// compareFiles prints, per workload and end-to-end metric, both files'
// values, b's change relative to a and the metric's bound, and flags
// every pair where b is worse than a by more than the bound. It returns 1
// if any pair is flagged.
func compareFiles(a, b string) int {
	load := func(path string) resultSet {
		var set resultSet
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &set)
		}
		if err != nil {
			fatalf("%s: %v", path, err)
		}
		return set
	}
	sa, sb := load(a), load(b)
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	fmt.Fprintf(out, "a: %s (commit %s, seed %d)\nb: %s (commit %s, seed %d)\n", a, sa.Commit, sa.Seed, b, sb.Commit, sb.Seed)
	fmt.Fprintf(out, "%-20s %-20s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "change", "bound")
	code := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, oka := sa.Workloads[w.name].EndToEnd.Metrics[d.Name]
			vb, okb := sb.Workloads[w.name].EndToEnd.Metrics[d.Name]
			if !oka || !okb || va.Value == 0 {
				fmt.Fprintf(out, "%-20s %-20s missing  <-- OUTSIDE\n", w.name, d.Name)
				code = 1
				continue
			}
			change := (vb.Value - va.Value) / va.Value
			worse := change
			if d.Better == "higher" {
				worse = -change
			}
			flag := ""
			if worse > d.Bound {
				flag = "  <-- OUTSIDE"
				code = 1
			}
			fmt.Fprintf(out, "%-20s %-20s %14.4f %14.4f %+8.2f%% %6.0f%%%s\n", w.name, d.Name, va.Value, vb.Value, 100*change, 100*d.Bound, flag)
		}
		fa, fb := sa.Workloads[w.name].EndToEnd, sb.Workloads[w.name].EndToEnd
		fmt.Fprintf(out, "%-20s %-20s %14d %14d   (of %d / %d attempted)\n", w.name, "failed", fa.Failed, fb.Failed, fa.Attempted, fb.Attempted)
	}
	return code
}
