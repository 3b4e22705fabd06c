package codelet

import (
	"fmt"
	"strings"
	"testing"

	"fixgo/internal/core"
	"fixgo/internal/store"
)

// freshRun runs p on a machine no earlier run has touched: the reference
// a pooled run must be indistinguishable from.
func freshRun(p *Program, api core.API, input core.Handle, gas uint64) (core.Handle, error) {
	if gas == 0 {
		gas = DefaultGas
	}
	m := new(machine)
	m.reset(p, api, input, gas)
	return m.run()
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// dirtySrc leaves every piece of machine state non-zero and then traps:
// memory word 8, registers r1 and r3, two extra handle slots and a call
// frame that is never returned from.
const dirtySrc = `
.memory 64
    li   r1, 1234
    li   r2, 8
    st64 r2, 0, r1
    li   r3, 77
    host lit_u64
    host lit_u64
    call sub
sub:
    trap
`

// TestRunAfterTrapSeesFreshMachine: a run that follows a trapped run
// reads zeroed memory and registers, holds only its input, and has an
// empty call stack, whatever the trapped run left behind.
func TestRunAfterTrapSeesFreshMachine(t *testing.T) {
	s, api := testEnv(t)
	dirty, err := Load(MustAssemble(dirtySrc))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, src string
		want      string // the trap reason; "" means the run returns lit(0)
	}{
		{"memory", `
.memory 64
    li   r2, 8
    ld64 r1, r2, 0
    host lit_u64
    ret  r0
`, ""},
		{"registers", `
.memory 64
    add  r1, r1, r3
    host lit_u64
    ret  r0
`, ""},
		{"slots", `
    li   r1, 1
    host size_of
    ret  r0
`, "handle slot 1 out of range (1 slots)"},
		{"stack", `
    retn
`, "retn with empty call stack"},
	}
	for _, c := range cases {
		prog, err := Load(MustAssemble(c.src))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i := 0; i < 8; i++ {
			if _, err := dirty.Run(api, core.LiteralU64(0), 0); err == nil || !strings.Contains(err.Error(), "explicit trap") {
				t.Fatalf("dirty run: %v, want an explicit trap", err)
			}
			out, err := prog.Run(api, core.LiteralU64(0), 0)
			if c.want != "" {
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Fatalf("%s after a trapped run: %v, want trap %q", c.name, err, c.want)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s after a trapped run: %v", c.name, err)
			}
			data, _ := s.Blob(out)
			if v, _ := core.DecodeU64(data); v != 0 {
				t.Fatalf("%s after a trapped run reads %d, want 0", c.name, v)
			}
		}
	}
}

// TestPooledRunsMatchFreshRuns runs the standard codelets interleaved
// with trapping runs; each returns exactly what it returns on a fresh
// machine.
func TestPooledRunsMatchFreshRuns(t *testing.T) {
	s, api := testEnv(t)
	dirty, err := Load(MustAssemble(dirtySrc))
	if err != nil {
		t.Fatal(err)
	}
	fib := s.PutBlob(FibFunctionBlob())
	add := s.PutBlob(AddFunctionBlob())
	fibTree := func(x uint64) core.Handle {
		tree, err := s.PutTree([]core.Handle{core.DefaultLimits.Handle(), fib, add, core.LiteralU64(x)})
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}
	thunk, _ := core.Identification(core.LiteralU64(99))
	long := s.PutBlob([]byte("a blob long enough to be stored, not a literal"))
	cases := []struct {
		name  string
		bc    []byte
		input core.Handle
		gas   uint64
	}{
		{"add", AddBytecode, invocation(t, s, AddFunctionBlob(), core.LiteralU64(200), core.LiteralU64(55)), 0},
		{"inc", IncBytecode, invocation(t, s, IncFunctionBlob(), core.LiteralU64(41)), 0},
		{"if-true", IfBytecode, invocation(t, s, IfFunctionBlob(), core.LiteralU64(1), thunk, long), 0},
		{"if-false", IfBytecode, invocation(t, s, IfFunctionBlob(), core.LiteralU64(0), thunk, long), 0},
		{"fib-base", FibBytecode, fibTree(1), 0},
		{"fib-rec", FibBytecode, fibTree(9), 0},
		{"concat", ConcatBytecode, invocation(t, s, ConcatFunctionBlob(), long, long), 0},
		{"add-no-gas", AddBytecode, invocation(t, s, AddFunctionBlob(), core.LiteralU64(1), core.LiteralU64(2)), 5},
		{"add-bad-input", AddBytecode, core.LiteralU64(3), 0},
	}
	for round := 0; round < 3; round++ {
		for _, c := range cases {
			prog, err := Load(c.bc)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			want, wantErr := freshRun(prog, api, c.input, c.gas)
			if _, err := dirty.Run(api, core.LiteralU64(0), 0); err == nil {
				t.Fatal("dirty run did not trap")
			}
			got, gotErr := prog.Run(api, c.input, c.gas)
			if got != want || errText(gotErr) != errText(wantErr) {
				t.Fatalf("%s round %d: pooled run = %v, %q; fresh run = %v, %q",
					c.name, round, got, errText(gotErr), want, errText(wantErr))
			}
		}
	}
}

// lentAPI serves one invocation Tree from memory without allocating, so
// that AllocsPerRun sees only what the VM itself allocates.
type lentAPI struct {
	core.BasicAPI
	tree    core.Handle
	entries []core.Handle
	blobs   map[core.Handle][]byte
}

func (a *lentAPI) AttachTree(h core.Handle) ([]core.Handle, error) {
	if h != a.tree {
		return nil, fmt.Errorf("unknown tree %v", h)
	}
	return a.entries, nil
}

func (a *lentAPI) AttachBlob(h core.Handle) ([]byte, error) {
	data, ok := a.blobs[h]
	if !ok {
		return nil, fmt.Errorf("unknown blob %v", h)
	}
	return data, nil
}

// TestAllocsWarmRun: a warm add-codelet run reuses a pooled machine —
// memory, handle table and call stack — so it allocates nothing itself.
func TestAllocsWarmRun(t *testing.T) {
	s := store.New()
	tree := invocation(t, s, AddFunctionBlob(), core.LiteralU64(200), core.LiteralU64(55))
	entries, err := s.Tree(tree)
	if err != nil {
		t.Fatal(err)
	}
	blobs := make(map[core.Handle][]byte)
	for _, ent := range entries {
		if ent.IsLiteral() {
			blobs[ent], _ = s.Blob(ent)
		}
	}
	var api core.API = &lentAPI{BasicAPI: core.BasicAPI{S: s}, tree: tree, entries: entries, blobs: blobs}
	prog, err := Load(AddBytecode)
	if err != nil {
		t.Fatal(err)
	}
	var out core.Handle
	var runErr error
	run := func() { out, runErr = prog.Run(api, tree, 0) }
	run()
	allocs := testing.AllocsPerRun(200, run)
	if runErr != nil || out != core.LiteralU64(255) {
		t.Fatalf("add(200,55) = %v, %v", out, runErr)
	}
	if allocs != 0 {
		t.Fatalf("a warm add-codelet Run allocates %v times, want 0", allocs)
	}
}

// FuzzLoad: Load never panics, and accepted bytecode, run twice over the
// same input under a small gas budget, never panics and returns the same
// handle and error both times — a reused machine is deterministic.
func FuzzLoad(f *testing.F) {
	for _, bc := range [][]byte{AddBytecode, IncBytecode, IfBytecode, FibBytecode, ConcatBytecode, MustAssemble(dirtySrc)} {
		f.Add(bc)
	}
	f.Add([]byte{})
	f.Add([]byte{bytecodeVersion, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, bytecode []byte) {
		prog, err := Load(bytecode)
		if err != nil {
			return
		}
		s := store.New()
		api := core.BasicAPI{S: s}
		thunk, _ := core.Identification(core.LiteralU64(5))
		long := s.PutBlob([]byte("a blob long enough to be stored, not a literal"))
		input, err := s.PutTree(core.InvocationTree(core.DefaultLimits.Handle(), s.PutBlob(AddFunctionBlob()), core.LiteralU64(3), long, thunk))
		if err != nil {
			t.Fatal(err)
		}
		const gas = 10_000
		h1, err1 := prog.Run(api, input, gas)
		h2, err2 := prog.Run(api, input, gas)
		if h1 != h2 || errText(err1) != errText(err2) {
			t.Fatalf("two runs differ: %v, %q then %v, %q", h1, errText(err1), h2, errText(err2))
		}
	})
}
