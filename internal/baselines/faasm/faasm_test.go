package faasm

import (
	"context"
	"testing"
	"time"

	"fixgo/internal/codelet"
	"fixgo/internal/core"
	"fixgo/internal/store"
)

func TestInvokeAddCodelet(t *testing.T) {
	st := store.New()
	r := New(st, Options{DispatchOverhead: time.Microsecond, SnapshotBytes: 1024})
	if err := r.Register("add", codelet.AddBytecode); err != nil {
		t.Fatal(err)
	}
	fn := st.PutBlob(codelet.AddFunctionBlob())
	input, err := st.PutTree(core.InvocationTree(core.DefaultLimits.Handle(), fn, core.LiteralU64(20), core.LiteralU64(22)))
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.Invoke(context.Background(), "add", input)
	if err != nil {
		t.Fatal(err)
	}
	data, err := st.Blob(out)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := core.DecodeU64(data); v != 42 {
		t.Fatalf("add = %d", v)
	}
}

func TestRegisterRejectsBadBytecode(t *testing.T) {
	r := New(store.New(), Options{})
	if err := r.Register("bad", []byte{0xde, 0xad}); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestUnknownFunction(t *testing.T) {
	r := New(store.New(), Options{DispatchOverhead: time.Microsecond})
	if _, err := r.Invoke(context.Background(), "ghost", core.LiteralU64(0)); err == nil {
		t.Fatal("expected error")
	}
}

func TestDispatchOverheadPaid(t *testing.T) {
	st := store.New()
	r := New(st, Options{DispatchOverhead: 20 * time.Millisecond, SnapshotBytes: 1024})
	if err := r.Register("add", codelet.AddBytecode); err != nil {
		t.Fatal(err)
	}
	fn := st.PutBlob(codelet.AddFunctionBlob())
	input, _ := st.PutTree(core.InvocationTree(core.DefaultLimits.Handle(), fn, core.LiteralU64(1), core.LiteralU64(2)))
	start := time.Now()
	if _, err := r.Invoke(context.Background(), "add", input); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("invocation took %v, want ≥ ~20ms dispatch", d)
	}
}
