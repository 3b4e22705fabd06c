// Package bench regenerates every table and figure of the paper's
// evaluation (section 5). Each Fig* function runs one experiment at a
// configurable scale and returns a Result comparing measured numbers with
// the paper's (BENCHMARKS.md documents each experiment). Absolute values are not
// expected to match — the substrate is a simulated cluster on one machine
// (ARCHITECTURE.md §Substitutions) — but orderings, approximate ratios, and
// crossover points should.
package bench

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// Scale parameterizes every experiment. DefaultScale completes in seconds
// on a laptop; PaperScale is closer to the paper's parameters (minutes).
type Scale struct {
	// Fig 7a.
	Invocations int // warm invocations per system (paper: 4096)

	// Fig 7b.
	ChainLen int           // chained invocations (paper: 500)
	NearRTT  time.Duration // client RTT, nearby (paper: ~0.2 ms)
	FarRTT   time.Duration // client RTT, remote (paper: 21.3 ms)

	// Fig 8a.
	OneOffTasks    int           // independent invocations (paper: 1024)
	StorageLatency time.Duration // network storage response (paper: 150 ms)
	Fig8aCores     int           // CPU slots (paper: 32)
	Fig8aMemory    uint64        // RAM (paper: 64 GiB)
	Fig8aTaskMem   uint64        // per-task reservation (paper: 1 GB)
	Fig8aOversub   int           // internal-I/O CPU oversubscription (paper: 200)

	// Fig 8b / Fig 10 cluster.
	Nodes         int           // paper: 10
	CoresPerNode  int           // paper: 32
	LinkLatency   time.Duration // inter-node propagation
	LinkBandwidth float64       // bytes/sec per link
	StoreLatency  time.Duration // MinIO response time
	StoreBW       float64       // MinIO aggregate bandwidth

	// Fig 8b workload.
	Chunks         int // paper: 984
	ChunkSize      int // paper: 100 MiB
	Needle         string
	ComputePerByte time.Duration // models full-scale scan cost
	// Fig 8b network: per-link bandwidth chosen so a chunk transfer
	// costs what a 100 MiB transfer costs on a shared 10 Gbps NIC, and a
	// MinIO deployment whose aggregate bandwidth bottlenecks
	// storage-side baselines (as the paper's does).
	Fig8bLinkBW       float64
	Fig8bStoreLatency time.Duration
	Fig8bStoreBW      float64

	// Fig 9.
	BTreeEntries int   // paper: ~6M titles
	BTreeArities []int // paper: 2 … 2^24
	BTreeQueries int   // lookups per arity (paper: 5 sets × 10)

	// Fig 10.
	SourceFiles int           // paper: ~2000
	SourceSize  int           // bytes per source
	HeaderSize  int           // shared headers
	CompileTime time.Duration // modeled libclang invocation
	LinkTime    time.Duration // modeled liblld invocation
}

// DefaultScale is the quick configuration used by `go test -bench` and
// fixbench's default mode.
func DefaultScale() Scale {
	return Scale{
		Invocations: 256,

		ChainLen: 100,
		NearRTT:  200 * time.Microsecond,
		FarRTT:   8 * time.Millisecond,

		OneOffTasks:    512,
		StorageLatency: 50 * time.Millisecond,
		Fig8aCores:     32,
		Fig8aMemory:    64 << 30,
		Fig8aTaskMem:   1 << 30,
		Fig8aOversub:   200,

		Nodes:         10,
		CoresPerNode:  32,
		LinkLatency:   500 * time.Microsecond,
		LinkBandwidth: 64 << 20, // 64 MB/s per link
		StoreLatency:  10 * time.Millisecond,
		StoreBW:       128 << 20,

		Chunks:            200,
		ChunkSize:         256 << 10,
		Needle:            "qqz",
		ComputePerByte:    30 * time.Nanosecond, // ≈ 8 ms per 256 KiB chunk
		Fig8bLinkBW:       2 << 20,              // 128 ms per chunk transfer
		Fig8bStoreLatency: 20 * time.Millisecond,
		Fig8bStoreBW:      24 << 20,

		BTreeEntries: 16384,
		BTreeArities: []int{4, 16, 64, 256, 4096},
		BTreeQueries: 10,

		SourceFiles: 120,
		SourceSize:  6 << 10,
		HeaderSize:  32 << 10,
		CompileTime: 15 * time.Millisecond,
		LinkTime:    60 * time.Millisecond,
	}
}

// PaperScale moves every knob toward the paper's parameters (much
// slower; use with cmd/fixbench -scale paper).
func PaperScale() Scale {
	s := DefaultScale()
	s.Invocations = 4096
	s.ChainLen = 500
	s.FarRTT = 21300 * time.Microsecond
	s.OneOffTasks = 1024
	s.StorageLatency = 150 * time.Millisecond
	s.Chunks = 984
	s.ChunkSize = 256 << 10
	s.BTreeEntries = 262144
	s.BTreeArities = []int{4, 16, 64, 256, 4096, 65536}
	s.BTreeQueries = 50
	s.SourceFiles = 1000
	return s
}

// ScaleFromEnv returns DefaultScale unless FIXGO_SCALE=paper.
func ScaleFromEnv() Scale {
	if strings.EqualFold(os.Getenv("FIXGO_SCALE"), "paper") {
		return PaperScale()
	}
	return DefaultScale()
}

// Experiments lists every regenerable table/figure by id.
var Experiments = []struct {
	ID  string
	Run func(Scale) (Result, error)
}{
	{"fig7a", Fig7a},
	{"fig7b", Fig7b},
	{"fig8a", Fig8a},
	{"fig8b", Fig8b},
	{"fig9", Fig9},
	{"fig10", Fig10},
}

// Run executes one experiment by id.
func Run(id string, s Scale) (Result, error) {
	for _, e := range Experiments {
		if e.ID == id {
			return e.Run(s)
		}
	}
	return Result{}, fmt.Errorf("bench: unknown experiment %q", id)
}

// Row is one system's measurement within an experiment.
type Row struct {
	System   string
	Measured time.Duration
	Paper    time.Duration // zero when the paper reports none
	Detail   string        // free-form extras ("37% waiting", "3827 tasks/s")
}

// Result is one regenerated table/figure.
type Result struct {
	ID    string
	Title string
	Rows  []Row
	Notes []string
}

// Baseline returns the first row's measurement (the Fix row, by
// convention), against which slowdowns are computed.
func (r Result) Baseline() time.Duration {
	if len(r.Rows) == 0 {
		return 0
	}
	return r.Rows[0].Measured
}

// String renders the result as an aligned text table.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s — %s ===\n", r.ID, r.Title)
	base := r.Baseline()
	paperBase := time.Duration(0)
	if len(r.Rows) > 0 {
		paperBase = r.Rows[0].Paper
	}
	fmt.Fprintf(&b, "%-38s %14s %10s %14s %10s  %s\n",
		"system", "measured", "vs-fix", "paper", "vs-fix", "detail")
	for _, row := range r.Rows {
		slow, paperSlow := "", ""
		if base > 0 && row.Measured > 0 {
			slow = ratio(row.Measured, base)
		}
		if paperBase > 0 && row.Paper > 0 {
			paperSlow = ratio(row.Paper, paperBase)
		}
		paper := ""
		if row.Paper > 0 {
			paper = fmtDur(row.Paper)
		}
		fmt.Fprintf(&b, "%-38s %14s %10s %14s %10s  %s\n",
			row.System, fmtDur(row.Measured), slow, paper, paperSlow, row.Detail)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func ratio(a, b time.Duration) string {
	if b == 0 {
		return ""
	}
	return strconv.FormatFloat(float64(a)/float64(b), 'f', 1, 64) + "×"
}

func fmtDur(d time.Duration) string {
	switch {
	case d == 0:
		return ""
	case d < time.Microsecond:
		return fmt.Sprintf("%.1fns", float64(d.Nanoseconds()))
	case d < time.Millisecond:
		return fmt.Sprintf("%.2fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}
