package codelet

import (
	"strings"
	"testing"

	"fixgo/internal/core"
	"fixgo/internal/store"
)

// testEnv builds a store-backed unrestricted API plus the canonical
// invocation tree for a function blob and args.
func testEnv(t *testing.T) (*store.Store, core.BasicAPI) {
	t.Helper()
	s := store.New()
	return s, core.BasicAPI{S: s}
}

func invocation(t *testing.T, s *store.Store, fnBlob []byte, args ...core.Handle) core.Handle {
	t.Helper()
	fn := s.PutBlob(fnBlob)
	entries := core.InvocationTree(core.DefaultLimits.Handle(), fn, args...)
	tree, err := s.PutTree(entries)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestAddCodelet(t *testing.T) {
	s, api := testEnv(t)
	prog, err := Load(AddBytecode)
	if err != nil {
		t.Fatal(err)
	}
	tree := invocation(t, s, AddFunctionBlob(), core.LiteralU64(200), core.LiteralU64(55))
	out, err := prog.Apply(api, tree)
	if err != nil {
		t.Fatal(err)
	}
	data, err := s.Blob(out)
	if err != nil {
		t.Fatal(err)
	}
	v, err := core.DecodeU64(data)
	if err != nil || v != 255 {
		t.Fatalf("add(200,55) = %d, %v", v, err)
	}
}

func TestIncCodelet(t *testing.T) {
	s, api := testEnv(t)
	prog, err := Load(IncBytecode)
	if err != nil {
		t.Fatal(err)
	}
	tree := invocation(t, s, IncFunctionBlob(), core.LiteralU64(41))
	out, err := prog.Apply(api, tree)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := s.Blob(out)
	if v, _ := core.DecodeU64(data); v != 42 {
		t.Fatalf("inc(41) = %d", v)
	}
}

func TestIfCodeletSelectsLazily(t *testing.T) {
	s, api := testEnv(t)
	prog, err := Load(IfBytecode)
	if err != nil {
		t.Fatal(err)
	}
	// Branches are thunks; the codelet must return one without forcing it.
	aTree, _ := s.PutTree(core.InvocationTree(core.DefaultLimits.Handle(), s.PutBlob(IncFunctionBlob()), core.LiteralU64(1)))
	aThunk, _ := core.Application(aTree)
	bThunk, _ := core.Identification(core.LiteralU64(99))

	tree := invocation(t, s, IfFunctionBlob(), core.LiteralU64(1), aThunk, bThunk)
	out, err := prog.Apply(api, tree)
	if err != nil {
		t.Fatal(err)
	}
	if out != aThunk {
		t.Fatalf("if(true) = %v, want the a-branch thunk", out)
	}

	tree = invocation(t, s, IfFunctionBlob(), core.LiteralU64(0), aThunk, bThunk)
	out, err = prog.Apply(api, tree)
	if err != nil {
		t.Fatal(err)
	}
	if out != bThunk {
		t.Fatalf("if(false) = %v, want the b-branch thunk", out)
	}
}

func TestFibCodeletBaseAndRecursiveShape(t *testing.T) {
	s, api := testEnv(t)
	prog, err := Load(FibBytecode)
	if err != nil {
		t.Fatal(err)
	}
	fib := s.PutBlob(FibFunctionBlob())
	add := s.PutBlob(AddFunctionBlob())
	mk := func(x uint64) core.Handle {
		tree, err := s.PutTree([]core.Handle{core.DefaultLimits.Handle(), fib, add, core.LiteralU64(x)})
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}
	// Base case: returns the literal.
	out, err := prog.Apply(api, mk(1))
	if err != nil {
		t.Fatal(err)
	}
	if data, _ := s.Blob(out); len(data) != 1 || data[0] != 1 {
		t.Fatalf("fib(1) base = %v", out)
	}
	// Recursive case: returns an application thunk over add with two
	// strict encodes.
	out, err = prog.Apply(api, mk(5))
	if err != nil {
		t.Fatal(err)
	}
	if out.RefKind() != core.RefThunk || out.ThunkStyle() != core.ThunkApplication {
		t.Fatalf("fib(5) = %v, want application thunk", out)
	}
	def, _ := core.ThunkDefinition(out)
	entries, err := s.Tree(def)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("sum tree has %d entries", len(entries))
	}
	for _, e := range entries[2:] {
		if e.RefKind() != core.RefEncode || e.EncodeStyle() != core.EncodeStrict {
			t.Fatalf("recursive arg = %v, want strict encode", e)
		}
	}
}

func TestConcatCodelet(t *testing.T) {
	s, api := testEnv(t)
	prog, err := Load(ConcatBytecode)
	if err != nil {
		t.Fatal(err)
	}
	a := s.PutBlob([]byte("hello, "))
	b := s.PutBlob([]byte("fixpoint world — a blob long enough to hash"))
	tree := invocation(t, s, ConcatFunctionBlob(), a, b)
	out, err := prog.Apply(api, tree)
	if err != nil {
		t.Fatal(err)
	}
	data, err := s.Blob(out)
	if err != nil {
		t.Fatal(err)
	}
	want := "hello, fixpoint world — a blob long enough to hash"
	if string(data) != want {
		t.Fatalf("concat = %q", data)
	}
}

func TestGasExhaustion(t *testing.T) {
	src := `
loop:
    jmp loop
`
	bc, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Load(bc)
	if err != nil {
		t.Fatal(err)
	}
	_, api := testEnv(t)
	_, err = prog.Run(api, core.LiteralU64(0), 1000)
	te, ok := err.(*TrapError)
	if !ok || !strings.Contains(te.Reason, "out of gas") {
		t.Fatalf("want out-of-gas trap, got %v", err)
	}
}

func TestMemoryBoundsTrap(t *testing.T) {
	src := `
.memory 16
    li  r1, 12
    ld64 r0, r1, 8     ; [20,28) out of bounds
    ret r0
`
	bc, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, _ := Load(bc)
	_, api := testEnv(t)
	if _, err := prog.Apply(api, core.LiteralU64(0)); err == nil {
		t.Fatal("expected bounds trap")
	}
}

func TestDivideByZeroTrap(t *testing.T) {
	src := `
    li r1, 10
    li r2, 0
    divu r3, r1, r2
    ret r0
`
	bc, _ := Assemble(src)
	prog, _ := Load(bc)
	_, api := testEnv(t)
	if _, err := prog.Apply(api, core.LiteralU64(0)); err == nil {
		t.Fatal("expected divide-by-zero trap")
	}
}

func TestBadSlotTrap(t *testing.T) {
	src := `
    li r1, 999
    host size_of
    ret r0
`
	bc, _ := Assemble(src)
	prog, _ := Load(bc)
	_, api := testEnv(t)
	if _, err := prog.Apply(api, core.LiteralU64(0)); err == nil {
		t.Fatal("expected bad-slot trap")
	}
}

func TestHandleOpacity(t *testing.T) {
	// A codelet cannot conjure data it was not given: creating a
	// selection of an unheld handle is impossible since slots only hold
	// handles provided through the API. This test checks that arbitrary
	// slot values trap rather than alias other objects.
	src := `
    li  r1, 3
    li  r2, 0
    host tree_child
    ret r0
`
	bc, _ := Assemble(src)
	prog, _ := Load(bc)
	_, api := testEnv(t)
	if _, err := prog.Apply(api, core.LiteralU64(7)); err == nil {
		t.Fatal("expected trap for unheld slot index")
	}
}

func TestCallRetn(t *testing.T) {
	src := `
    li   r1, 5
    call double
    mov  r1, r0
    call double
    mov  r1, r0
    host lit_u64
    ret  r0
double:
    add  r0, r1, r1
    retn
`
	bc, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, _ := Load(bc)
	s, api := testEnv(t)
	out, err := prog.Apply(api, core.LiteralU64(0))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := s.Blob(out)
	if v, _ := core.DecodeU64(data); v != 20 {
		t.Fatalf("double(double(5)) = %d, want 20", v)
	}
}

func TestCallStackOverflow(t *testing.T) {
	src := `
recurse:
    call recurse
    retn
`
	bc, _ := Assemble(src)
	prog, _ := Load(bc)
	_, api := testEnv(t)
	_, err := prog.Apply(api, core.LiteralU64(0))
	te, ok := err.(*TrapError)
	if !ok || !strings.Contains(te.Reason, "call stack") {
		t.Fatalf("want call stack overflow, got %v", err)
	}
}

func TestLoadRejectsBadBytecode(t *testing.T) {
	cases := []struct {
		name string
		bc   []byte
	}{
		{"empty", nil},
		{"short header", []byte{1, 0, 0}},
		{"bad version", []byte{9, 0, 16, 0, 0, opNop}},
		{"no code", []byte{1, 0, 16, 0, 0}},
		{"bad opcode", []byte{1, 16, 0, 0, 0, 250}},
		{"truncated operand", []byte{1, 16, 0, 0, 0, opLi, 0}},
		{"bad register", []byte{1, 16, 0, 0, 0, opMov, 99, 0}},
		{"bad host fn", []byte{1, 16, 0, 0, 0, opHost, 200}},
		{"bad jump target", []byte{1, 16, 0, 0, 0, opJmp, 3, 0, 0, 0}},
	}
	for _, tc := range cases {
		if _, err := Load(tc.bc); err == nil {
			t.Errorf("%s: Load should fail", tc.name)
		}
	}
}

func TestLoadRejectsJumpIntoImmediate(t *testing.T) {
	// li is 10 bytes; a jump to offset 1 lands inside its immediate.
	bc := []byte{1, 16, 0, 0, 0,
		opLi, 0, 1, 2, 3, 4, 5, 6, 7, 8,
		opJmp, 1, 0, 0, 0,
	}
	if _, err := Load(bc); err == nil {
		t.Fatal("jump into the middle of an instruction must be rejected")
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"bogus r1, r2",        // unknown mnemonic
		"li r1",               // missing operand
		"li r99, 1",           // bad register
		"jmp nowhere",         // undefined label
		"host no_such_fn",     // unknown host function
		"dup: nop\ndup: nop",  // duplicate label
		".memory 99999999999", // oversized memory
		"li r1, zzz",          // bad number
	}
	for _, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("Assemble(%q) should fail", src)
		}
	}
}

func TestDisassembleRoundTrip(t *testing.T) {
	for name, bc := range map[string][]byte{
		"add": AddBytecode, "inc": IncBytecode, "if": IfBytecode,
		"fib": FibBytecode, "concat": ConcatBytecode,
	} {
		text, err := Disassemble(bc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		re, err := Assemble(text)
		if err != nil {
			t.Fatalf("%s: reassemble: %v\n%s", name, err, text)
		}
		if string(re) != string(bc) {
			t.Fatalf("%s: disassemble/assemble round-trip differs", name)
		}
	}
}

func TestDeterminism(t *testing.T) {
	s, api := testEnv(t)
	prog, _ := Load(AddBytecode)
	tree := invocation(t, s, AddFunctionBlob(), core.LiteralU64(7), core.LiteralU64(9))
	first, err := prog.Apply(api, tree)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		got, err := prog.Apply(api, tree)
		if err != nil || got != first {
			t.Fatalf("run %d: nondeterministic result %v (err %v)", i, got, err)
		}
	}
}

// TestCreateTreeHugeCountTraps: an entry count whose byte size wraps
// around 64 bits traps as out of memory instead of reaching make.
func TestCreateTreeHugeCountTraps(t *testing.T) {
	src := `
.memory 64
    li   r1, 0
    li   r2, 4611686018427387905   ; 2^62 + 1: times 4 wraps to 4
    host create_tree
    ret  r0
`
	bc, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, _ := Load(bc)
	_, api := testEnv(t)
	_, err = prog.Apply(api, core.LiteralU64(0))
	te, ok := err.(*TrapError)
	if !ok || !strings.Contains(te.Reason, "exceed memory") {
		t.Fatalf("want an exceed-memory trap, got %v", err)
	}
}

// ConcatFunctionBlob returns the concat codelet as a function Blob.
func ConcatFunctionBlob() []byte { return core.VMFunctionBlob(ConcatBytecode) }
