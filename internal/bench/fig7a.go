package bench

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"

	"fixgo/internal/baselines/faasm"
	"fixgo/internal/baselines/pheromone"
	"fixgo/internal/baselines/raysim"
	"fixgo/internal/baselines/s3sim"
	"fixgo/internal/baselines/whisk"
	"fixgo/internal/codelet"
	"fixgo/internal/core"
	"fixgo/internal/runtime"
	"fixgo/internal/store"
)

// childEnv triggers add-child mode when this process is re-executed for
// the "Linux process" row of Fig. 7a.
const childEnv = "FIXGO_FIG7A_CHILD"

// RunChildIfRequested must be called early in main()/TestMain() of any
// binary that runs Fig7a: when re-executed as the add child process it
// performs the addition and exits.
func RunChildIfRequested() {
	if os.Getenv(childEnv) == "" {
		return
	}
	a, _ := strconv.Atoi(os.Getenv("FIXGO_ADD_A"))
	b, _ := strconv.Atoi(os.Getenv("FIXGO_ADD_B"))
	fmt.Fprintf(os.Stdout, "%d", uint8(a)+uint8(b))
	os.Exit(0)
}

//go:noinline
func addStatic(a, b uint8) uint8 { return a + b }

type adder interface{ Add(a, b uint8) uint8 }

type concreteAdder struct{}

//go:noinline
func (concreteAdder) Add(a, b uint8) uint8 { return a + b }

var sink uint8

// Fig7a measures the duration of a single trivial function invocation
// (add two 8-bit integers) on Fixpoint and the comparator systems,
// excluding per-function setup, as in section 5.2.1.
func Fig7a(s Scale) (Result, error) {
	n := s.Invocations
	if n <= 0 {
		n = 256
	}
	res := Result{ID: "fig7a", Title: "trivial invocation overhead (add two u8)"}

	// --- Fixpoint (measured first; it is the table's baseline row
	// after static/virtual, which the paper lists above it).
	fixPer, err := fig7aFixpoint(n)
	if err != nil {
		return res, err
	}

	// --- static call. perCall rounds up: a sub-nanosecond call must not
	// truncate to "no measurement" on fast hardware.
	staticN := n * 4096
	start := time.Now()
	for i := 0; i < staticN; i++ {
		sink = addStatic(uint8(i), uint8(i>>8))
	}
	staticPer := perCall(time.Since(start), staticN)

	// --- virtual (interface) call.
	var a adder = concreteAdder{}
	start = time.Now()
	for i := 0; i < staticN; i++ {
		sink = a.Add(uint8(i), sink)
	}
	virtualPer := perCall(time.Since(start), staticN)

	// --- Linux process (vfork+exec analog: re-exec this binary).
	procPer, procNote, err := fig7aProcess(min(n, 64))
	if err != nil {
		return res, err
	}

	// --- Pheromone.
	pherPer, err := fig7aPheromone(n)
	if err != nil {
		return res, err
	}

	// --- Ray.
	rayPer, err := fig7aRay(n)
	if err != nil {
		return res, err
	}

	// --- Faasm.
	faasmPer, err := fig7aFaasm(min(n, 128))
	if err != nil {
		return res, err
	}

	// --- OpenWhisk.
	whiskPer, err := fig7aWhisk(min(n, 64))
	if err != nil {
		return res, err
	}

	res.Rows = []Row{
		{System: "Fixpoint", Measured: fixPer, Paper: 1460 * time.Nanosecond},
		{System: "static call", Measured: staticPer, Paper: 2 * time.Nanosecond},
		{System: "virtual call", Measured: virtualPer, Paper: 12 * time.Nanosecond},
		{System: "Linux vfork+exec", Measured: procPer, Paper: 449 * time.Microsecond, Detail: procNote},
		{System: "Pheromone", Measured: pherPer, Paper: 1050 * time.Microsecond},
		{System: "Ray", Measured: rayPer, Paper: 1290 * time.Microsecond},
		{System: "Faasm", Measured: faasmPer, Paper: 10600 * time.Microsecond},
		{System: "OpenWhisk", Measured: whiskPer, Paper: 30700 * time.Microsecond},
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("%d warm invocations per system, distinct arguments (memoization cannot short-circuit), setup excluded", n))
	return res, nil
}

// fig7aFixpoint pre-builds n distinct add invocations, then times their
// evaluation.
func fig7aFixpoint(n int) (time.Duration, error) {
	st := store.New()
	e := runtime.New(st, runtime.Options{Cores: 1})
	fn := st.PutBlob(codelet.AddFunctionBlob())
	lim := core.DefaultLimits.Handle()
	encs := make([]core.Handle, n)
	for i := range encs {
		tree, err := st.PutTree(core.InvocationTree(lim, fn, core.LiteralU64(uint64(i)), core.LiteralU64(uint64(i>>8))))
		if err != nil {
			return 0, err
		}
		th, _ := core.Application(tree)
		encs[i], _ = core.Strict(th)
	}
	ctx := context.Background()
	// Warm once (function load / program link excluded, as in the paper).
	if _, err := e.Eval(ctx, encs[0]); err != nil {
		return 0, err
	}
	start := time.Now()
	for _, enc := range encs[1:] {
		if _, err := e.Eval(ctx, enc); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(n-1), nil
}

func fig7aProcess(n int) (time.Duration, string, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, "", err
	}
	env := append(os.Environ(), childEnv+"=1", "FIXGO_ADD_A=41", "FIXGO_ADD_B=1")
	// Warm the page cache.
	warm := exec.Command(exe)
	warm.Env = env
	if out, err := warm.Output(); err != nil || string(out) != "42" {
		return 0, "", fmt.Errorf("bench: add child failed (out=%q, err=%v); call bench.RunChildIfRequested in main", out, err)
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe)
		cmd.Env = env
		if err := cmd.Run(); err != nil {
			return 0, "", err
		}
	}
	return time.Since(start) / time.Duration(n), "fork+exec of this binary", nil
}

func fig7aPheromone(n int) (time.Duration, error) {
	e := pheromone.New(pheromone.Options{Workers: 1})
	e.Register("add", func(ctx context.Context, env *pheromone.Env, input []byte) ([]byte, error) {
		return []byte{input[0] + input[1]}, nil
	})
	ctx := context.Background()
	if _, err := e.RunChain(ctx, []string{"add"}, []byte{1, 2}); err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := e.RunChain(ctx, []string{"add"}, []byte{byte(i), byte(i >> 8)}); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(n), nil
}

func fig7aRay(n int) (time.Duration, error) {
	c := raysim.NewCluster(raysim.Options{Nodes: 1, CoresPerNode: 1})
	defer c.Close()
	c.Register("add", func(tc *raysim.TaskCtx, args []raysim.Arg) ([]byte, error) {
		return []byte{args[0].Data[0] + args[0].Data[1]}, nil
	})
	ctx := context.Background()
	if ref, err := c.Submit(ctx, "add", raysim.ByValue([]byte{1, 2})); err != nil {
		return 0, err
	} else if _, err := c.Get(ctx, ref); err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		ref, err := c.Submit(ctx, "add", raysim.ByValue([]byte{byte(i), byte(i >> 8)}))
		if err != nil {
			return 0, err
		}
		if _, err := c.Get(ctx, ref); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(n), nil
}

func fig7aFaasm(n int) (time.Duration, error) {
	st := store.New()
	r := faasm.New(st, faasm.Options{})
	if err := r.Register("add", codelet.AddBytecode); err != nil {
		return 0, err
	}
	fn := st.PutBlob(codelet.AddFunctionBlob())
	lim := core.DefaultLimits.Handle()
	inputs := make([]core.Handle, n)
	for i := range inputs {
		tree, err := st.PutTree(core.InvocationTree(lim, fn, core.LiteralU64(uint64(i)), core.LiteralU64(uint64(i>>8))))
		if err != nil {
			return 0, err
		}
		inputs[i] = tree
	}
	ctx := context.Background()
	if _, err := r.Invoke(ctx, "add", inputs[0]); err != nil {
		return 0, err
	}
	start := time.Now()
	for _, in := range inputs[1:] {
		if _, err := r.Invoke(ctx, "add", in); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(n-1), nil
}

func fig7aWhisk(n int) (time.Duration, error) {
	p := whisk.New(whisk.Options{Nodes: 1, CoresPerNode: 1, Store: s3sim.New(s3sim.Config{})})
	p.Register("add", func(ctx context.Context, inv *whisk.Invocation) ([]byte, error) {
		a, _ := strconv.Atoi(inv.Params["a"])
		b, _ := strconv.Atoi(inv.Params["b"])
		return []byte{uint8(a) + uint8(b)}, nil
	})
	ctx := context.Background()
	if _, err := p.Invoke(ctx, "add", map[string]string{"a": "1", "b": "2"}); err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := p.Invoke(ctx, "add", map[string]string{"a": strconv.Itoa(i % 200), "b": "7"}); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(n), nil
}

// perCall divides a total by an iteration count, rounding up to 1ns.
func perCall(total time.Duration, n int) time.Duration {
	per := total / time.Duration(n)
	if per <= 0 {
		per = 1
	}
	return per
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
