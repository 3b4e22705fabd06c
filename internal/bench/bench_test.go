package bench

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	RunChildIfRequested()
	os.Exit(m.Run())
}

// tinyScale keeps the full experiment suite runnable in seconds.
func tinyScale() Scale {
	s := DefaultScale()
	s.Invocations = 24
	s.ChainLen = 12
	s.NearRTT = 100 * time.Microsecond
	s.FarRTT = 2 * time.Millisecond
	s.OneOffTasks = 48
	s.StorageLatency = 10 * time.Millisecond
	s.Fig8aMemory = 4 << 30 // 4 memory slots: internal I/O must queue
	s.Chunks = 12
	s.ChunkSize = 16 << 10
	s.ComputePerByte = 50 * time.Nanosecond
	s.Fig8bStoreLatency = 4 * time.Millisecond
	s.BTreeEntries = 512
	s.BTreeArities = []int{4, 64}
	s.BTreeQueries = 3
	s.SourceFiles = 10
	s.SourceSize = 2 << 10
	s.HeaderSize = 4 << 10
	s.CompileTime = 2 * time.Millisecond
	s.LinkTime = 5 * time.Millisecond
	return s
}

func TestFig7a(t *testing.T) {
	res, err := Fig7a(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]time.Duration{}
	for _, r := range res.Rows {
		if r.Measured <= 0 {
			t.Fatalf("%s: no measurement", r.System)
		}
		byName[r.System] = r.Measured
	}
	// Shape: static < virtual < Fixpoint < every baseline system.
	if !(byName["static call"] < byName["Fixpoint"]) {
		t.Errorf("static (%v) should beat Fixpoint (%v)", byName["static call"], byName["Fixpoint"])
	}
	for _, sys := range []string{"Linux vfork+exec", "Pheromone", "Ray", "Faasm", "OpenWhisk"} {
		if byName[sys] <= byName["Fixpoint"] {
			t.Errorf("%s (%v) should be slower than Fixpoint (%v)", sys, byName[sys], byName["Fixpoint"])
		}
	}
	t.Log("\n" + res.String())
}

func TestFig7b(t *testing.T) {
	res, err := Fig7b(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Remote Ray must be the worst by far (one RTT per link).
	var fixFar, rayFar time.Duration
	for _, r := range res.Rows {
		if strings.HasPrefix(r.System, "Fixpoint / remote") {
			fixFar = r.Measured
		}
		if strings.HasPrefix(r.System, "Ray / remote") {
			rayFar = r.Measured
		}
	}
	if rayFar < 4*fixFar {
		t.Errorf("remote Ray (%v) should be ≫ remote Fixpoint (%v)", rayFar, fixFar)
	}
	t.Log("\n" + res.String())
}

func TestFig8a(t *testing.T) {
	res, err := Fig8a(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	ext, internal := res.Rows[0].Measured, res.Rows[1].Measured
	if internal < 2*ext {
		t.Errorf("internal I/O (%v) should be ≫ externalized (%v)", internal, ext)
	}
	t.Log("\n" + res.String())
}

func TestFig8b(t *testing.T) {
	s := tinyScale()
	res, err := Fig8b(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The ablation rows are 0.5–4 ms apart at this scale, so their order
	// on wall time is the host's, not the design's. The paper's claim is
	// about work: locality moves fewer bytes, and externalized I/O never
	// holds a claimed core idle. Both are counted, so assert those.
	var moved, iowaitUS [3]int64
	for i := range moved {
		var waiting float64
		if _, err := fmt.Sscanf(res.Rows[i].Detail, "waiting=%f%% moved=%dB iowait=%dµs", &waiting, &moved[i], &iowaitUS[i]); err != nil {
			t.Fatalf("%s: unparseable detail %q: %v", res.Rows[i].System, res.Rows[i].Detail, err)
		}
	}
	// Every count runs where its chunk is, so Fixpoint moves invocation
	// trees and counts, never a chunk.
	if moved[0] >= int64(s.ChunkSize) {
		t.Errorf("Fixpoint moved %d B, want less than one %d B chunk", moved[0], s.ChunkSize)
	}
	if moved[1] < 10*moved[0] {
		t.Errorf("no locality moved %d B, want at least 10× Fixpoint's %d B", moved[1], moved[0])
	}
	if iowaitUS[0] != 0 || iowaitUS[1] != 0 {
		t.Errorf("externalized I/O held cores idle: iowait %dµs / %dµs, want 0", iowaitUS[0], iowaitUS[1])
	}
	if iowaitUS[2] <= 0 {
		t.Errorf("internal I/O recorded no I/O wait")
	}
	// OpenWhisk is seconds against Fixpoint's milliseconds: far outside
	// any scheduling noise.
	if fix, whisk := res.Rows[0].Measured, res.Rows[6].Measured; whisk <= fix {
		t.Errorf("%s (%v) should be slower than Fixpoint (%v)", res.Rows[6].System, whisk, fix)
	}
	t.Log("\n" + res.String())
}

func TestFig9(t *testing.T) {
	res, err := Fig9(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	// 2 arities × 3 systems.
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Within each arity, Fixpoint wins.
	for i := 0; i < len(res.Rows); i += 3 {
		fix := res.Rows[i].Measured
		if res.Rows[i+1].Measured <= fix || res.Rows[i+2].Measured <= fix {
			t.Errorf("arity group %d: Fixpoint (%v) should win (%v, %v)",
				i/3, fix, res.Rows[i+1].Measured, res.Rows[i+2].Measured)
		}
	}
	t.Log("\n" + res.String())
}

func TestFig10(t *testing.T) {
	res, err := Fig10(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[1].Measured <= res.Rows[0].Measured {
		t.Errorf("Ray (%v) should be slower than Fixpoint (%v)", res.Rows[1].Measured, res.Rows[0].Measured)
	}
	if res.Rows[2].Measured <= res.Rows[0].Measured {
		t.Errorf("OpenWhisk (%v) should be slower than Fixpoint (%v)", res.Rows[2].Measured, res.Rows[0].Measured)
	}
	t.Log("\n" + res.String())
}

func TestRunByID(t *testing.T) {
	if _, err := Run("nope", tinyScale()); err == nil {
		t.Fatal("unknown id should error")
	}
	if len(Experiments) != 6 {
		t.Fatalf("experiments = %d", len(Experiments))
	}
}

func TestResultString(t *testing.T) {
	r := Result{ID: "x", Title: "t", Rows: []Row{
		{System: "fix", Measured: time.Millisecond, Paper: 2 * time.Millisecond},
		{System: "other", Measured: 10 * time.Millisecond, Paper: 40 * time.Millisecond, Detail: "d"},
	}, Notes: []string{"n"}}
	out := r.String()
	for _, want := range []string{"fix", "other", "10.0×", "20.0×", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestScaleFromEnv(t *testing.T) {
	t.Setenv("FIXGO_SCALE", "paper")
	if ScaleFromEnv().Chunks != PaperScale().Chunks {
		t.Fatal("paper scale not selected")
	}
	t.Setenv("FIXGO_SCALE", "")
	if ScaleFromEnv().Chunks != DefaultScale().Chunks {
		t.Fatal("default scale not selected")
	}
}
