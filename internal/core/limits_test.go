package core

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestLimitsRoundTrip(t *testing.T) {
	f := func(mem, gas, hint uint64) bool {
		l := Limits{MemoryBytes: mem, Gas: gas, OutputSizeHint: hint}
		got, err := DecodeLimits(l.Encode())
		return err == nil && got == l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLimitsHandleIsLiteral(t *testing.T) {
	l := Limits{MemoryBytes: 1 << 30, Gas: 1 << 20, OutputSizeHint: 4096}
	h := l.Handle()
	if !h.IsLiteral() {
		t.Fatal("a 24-byte limits blob must be a literal handle")
	}
	got, err := DecodeLimits(h.LiteralData())
	if err != nil || got != l {
		t.Fatalf("decode from literal: %+v, %v", got, err)
	}
}

func TestDecodeLimitsBadLength(t *testing.T) {
	if _, err := DecodeLimits(make([]byte, 23)); err == nil {
		t.Fatal("expected length error")
	}
}

func TestInvocationTreeSplit(t *testing.T) {
	lim := DefaultLimits.Handle()
	fn := BlobHandle(NativeFunctionBlob("add"))
	a, b := LiteralU64(3), LiteralU64(4)
	entries := InvocationTree(lim, fn, a, b)
	gl, gf, args, err := SplitInvocation(entries)
	if err != nil {
		t.Fatal(err)
	}
	if gl != lim || gf != fn || len(args) != 2 || args[0] != a || args[1] != b {
		t.Fatal("split mismatch")
	}
	if _, _, _, err := SplitInvocation(entries[:1]); err == nil {
		t.Fatal("expected error for short invocation tree")
	}
}

func TestFunctionBlobConventions(t *testing.T) {
	nb := NativeFunctionBlob("count-string")
	name, ok := NativeFunctionName(nb)
	if !ok || string(name) != "count-string" {
		t.Fatalf("native round-trip: %q %v", name, ok)
	}
	if _, ok := VMBytecode(nb); ok {
		t.Fatal("native blob must not parse as VM blob")
	}
	vb := VMFunctionBlob([]byte{1, 2, 3})
	bc, ok := VMBytecode(vb)
	if !ok || len(bc) != 3 {
		t.Fatalf("vm round-trip: %v %v", bc, ok)
	}
	if _, ok := NativeFunctionName(vb); ok {
		t.Fatal("vm blob must not parse as native blob")
	}
}

// SplitInvocation decomposes a resolved Application definition Tree.
func SplitInvocation(entries []Handle) (limits, function Handle, args []Handle, err error) {
	if len(entries) < 2 {
		return Handle{}, Handle{}, nil, fmt.Errorf("core: invocation tree needs ≥2 entries, got %d", len(entries))
	}
	return entries[0], entries[1], entries[2:], nil
}
