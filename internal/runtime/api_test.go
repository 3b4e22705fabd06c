package runtime

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	goruntime "runtime"
	"strings"
	"testing"
	"time"
	"unsafe"
	"weak"

	"fixgo/internal/core"
	"fixgo/internal/store"
)

// lentEngine is an engine whose one native procedure, "lent", is proc.
func lentEngine(proc core.ProcedureFunc) (*Engine, *store.Store) {
	reg := NewRegistry()
	reg.RegisterFunc("lent", proc)
	st := store.New()
	return New(st, Options{Cores: 1, Registry: reg}), st
}

// evalLent applies "lent" to [limits, fn, args...] and returns the
// invocation Tree.
func evalLent(t *testing.T, e *Engine, st *store.Store, args ...core.Handle) core.Handle {
	t.Helper()
	tree, err := st.PutTree(core.InvocationTree(core.DefaultLimits.Handle(), st.PutBlob(core.NativeFunctionBlob("lent")), args...))
	if err != nil {
		t.Fatal(err)
	}
	th, err := core.Application(tree)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Eval(context.Background(), th); err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestLentLiteralCannotForgeGrant: AttachBlob lends a literal's bytes
// from the API's own grant slots, so a view's capacity must stop at its
// length. A procedure attaches literals whose bytes are a prefix of a
// stored Blob's handle it was never granted, and appends the rest of that
// handle to each view. The append must copy: writing in place would turn
// the slot into the stored Blob's handle, which AttachBlob would accept.
func TestLentLiteralCannotForgeGrant(t *testing.T) {
	secretData := []byte("a stored Blob outside this invocation's repository")
	secret := core.BlobHandle(secretData)
	var caps []int
	var errs []error
	e, st := lentEngine(func(api core.API, input core.Handle) (core.Handle, error) {
		entries, err := api.AttachTree(input)
		if err != nil {
			return core.Handle{}, err
		}
		for _, lit := range entries[2:] {
			view, err := api.AttachBlob(lit)
			if err != nil {
				return core.Handle{}, err
			}
			caps = append(caps, cap(view)-len(view))
			if forged := append(view, secret[len(view):]...); !bytes.Equal(forged, secret[:]) {
				return core.Handle{}, fmt.Errorf("forged %x, want %x", forged, secret[:])
			}
			_, err = api.AttachBlob(secret)
			errs = append(errs, err)
		}
		return core.LiteralU64(0), nil
	})
	if st.PutBlob(secretData) != secret {
		t.Fatal("secret is not stored under its handle")
	}
	var prefixes []core.Handle
	for _, n := range []int{0, 8, core.MaxLiteral} {
		prefixes = append(prefixes, core.BlobHandle(secret[:n]))
	}
	evalLent(t, e, st, prefixes...)
	if len(errs) != len(prefixes) {
		t.Fatalf("procedure made %d attempts, want %d", len(errs), len(prefixes))
	}
	for i, err := range errs {
		if caps[i] != 0 {
			t.Errorf("view %d has %d bytes of spare capacity, want 0", i, caps[i])
		}
		if err == nil || !strings.Contains(err.Error(), "outside minimum repository") {
			t.Errorf("attach after forging from view %d: %v, want outside minimum repository", i, err)
		}
	}
}

// TestLentLiteralWriteStaysLocal: a procedure that writes into a lent
// view changes its own copy only. Attaching the same literal again gives
// its original bytes, and the invocation Tree keeps its entries.
func TestLentLiteralWriteStaysLocal(t *testing.T) {
	lit := core.BlobHandle([]byte("a literal of 21 bytes"))
	var again []byte
	e, st := lentEngine(func(api core.API, input core.Handle) (core.Handle, error) {
		entries, err := api.AttachTree(input)
		if err != nil {
			return core.Handle{}, err
		}
		view, err := api.AttachBlob(entries[2])
		if err != nil {
			return core.Handle{}, err
		}
		for i := range view {
			view[i] ^= 0xff
		}
		second, err := api.AttachBlob(entries[2])
		if err != nil {
			return core.Handle{}, err
		}
		again = bytes.Clone(second)
		return core.LiteralU64(0), nil
	})
	tree := evalLent(t, e, st, lit)
	if want := lit.LiteralData(); !bytes.Equal(again, want) {
		t.Fatalf("second attach after a write = %q, want %q", again, want)
	}
	entries, err := st.Tree(tree)
	if err != nil {
		t.Fatal(err)
	}
	if entries[2] != lit || core.TreeHandle(entries) != tree {
		t.Fatalf("invocation Tree changed: entry 2 = %v, want %v", entries[2], lit)
	}
}

// TestLentLiteralsPastFreeSlots: a procedure attaching more literals than
// the API has free slots gets every one's bytes, lent or copied, and
// every earlier view keeps its bytes. Grants made after the slots are
// full still hold.
func TestLentLiteralsPastFreeSlots(t *testing.T) {
	var args []core.Handle
	for i := range 20 {
		args = append(args, core.BlobHandle([]byte(fmt.Sprintf("literal %d", i%12))))
	}
	var bad []string
	e, st := lentEngine(func(api core.API, input core.Handle) (core.Handle, error) {
		entries, err := api.AttachTree(input)
		if err != nil {
			return core.Handle{}, err
		}
		var views [][]byte
		for _, lit := range entries[2:] {
			view, err := api.AttachBlob(lit)
			if err != nil {
				return core.Handle{}, err
			}
			views = append(views, view)
		}
		for i, view := range views {
			if want := entries[2+i].LiteralData(); !bytes.Equal(view, want) {
				bad = append(bad, fmt.Sprintf("attach %d = %q, want %q", i, view, want))
			}
		}
		made := api.CreateBlob(bytes.Repeat([]byte{7}, 2*core.MaxLiteral))
		if _, err := api.AttachBlob(made); err != nil {
			bad = append(bad, fmt.Sprintf("attach of a created Blob: %v", err))
		}
		return core.LiteralU64(0), nil
	})
	evalLent(t, e, st, args...)
	for _, b := range bad {
		t.Error(b)
	}
}

// TestApplyAPISize: literals are lent from the API's grant slots rather
// than from a buffer of their own, so the API stays at 288 B, and a slab
// of slabLen APIs at 9 KiB.
func TestApplyAPISize(t *testing.T) {
	if n := unsafe.Sizeof(applyAPI{}); n > 288 {
		t.Fatalf("applyAPI is %d B, want ≤ 288 (its size class)", n)
	}
}

// TestDetachedAPIRefusesEveryCall: a procedure keeps its API and a view
// of a literal it attached. Once its invocation returns, every call that
// reaches the repository or mints a Handle is refused, even on the
// invocation's own input and on literals, which a live API always holds.
// The lent view keeps its bytes while later invocations carve their APIs
// from the same slab.
func TestDetachedAPIRefusesEveryCall(t *testing.T) {
	lit := core.BlobHandle([]byte("a literal of 21 bytes"))
	var kept core.API
	var view []byte
	e, st := lentEngine(func(api core.API, input core.Handle) (core.Handle, error) {
		if kept != nil {
			return core.LiteralU64(0), nil
		}
		entries, err := api.AttachTree(input)
		if err != nil {
			return core.Handle{}, err
		}
		if view, err = api.AttachBlob(entries[2]); err != nil {
			return core.Handle{}, err
		}
		kept = api
		return core.LiteralU64(0), nil
	})
	input := evalLent(t, e, st, lit)
	for i := range 2 * slabLen {
		evalLent(t, e, st, core.LiteralU64(uint64(i)))
	}
	if !bytes.Equal(view, lit.LiteralData()) {
		t.Fatalf("lent view after later invocations = %q, want %q", view, lit.LiteralData())
	}

	made := []byte("bytes a detached API must not store, past a literal's size")
	if h := kept.CreateBlob(made); h != (core.Handle{}) || st.Contains(core.BlobHandle(made)) {
		t.Fatalf("detached CreateBlob = %v, stored %v; want the zero Handle, nothing stored", h, st.Contains(core.BlobHandle(made)))
	}
	thunk, err := core.Application(input)
	if err != nil {
		t.Fatal(err)
	}
	calls := map[string]func() error{
		"AttachTree(input)":        func() error { _, err := kept.AttachTree(input); return err },
		"AttachBlob(literal)":      func() error { _, err := kept.AttachBlob(lit); return err },
		"CreateTree()":             func() error { _, err := kept.CreateTree(nil); return err },
		"CreateTree(literal)":      func() error { _, err := kept.CreateTree([]core.Handle{lit}); return err },
		"Application(input)":       func() error { _, err := kept.Application(input); return err },
		"Identification(literal)":  func() error { _, err := kept.Identification(lit); return err },
		"Selection(input)":         func() error { _, err := kept.Selection(input, 0); return err },
		"SelectionRange(input)":    func() error { _, err := kept.SelectionRange(input, 0, 1); return err },
		"Strict(Application)":      func() error { _, err := kept.Strict(thunk); return err },
		"Shallow(Application)":     func() error { _, err := kept.Shallow(thunk); return err },
		"AttachBlob(Application)":  func() error { _, err := kept.AttachBlob(thunk); return err },
		"AttachTree(literal blob)": func() error { _, err := kept.AttachTree(lit); return err },
	}
	for name, call := range calls {
		if err := call(); !errors.Is(err, errDetached) {
			t.Errorf("detached %s = %v, want %v", name, err, errDetached)
		}
	}
}

// TestDetachedAPIsPinNoEngine: a procedure keeps its API, and so the slab
// that API was carved from, whose other records served the engine's later
// invocations. Once the engine and its store are dropped, the store is
// collected while the API is still held: a detached record and its slab
// pin no Engine.
func TestDetachedAPIsPinNoEngine(t *testing.T) {
	var kept core.API
	collected := func() weak.Pointer[store.Store] {
		e, st := lentEngine(func(api core.API, input core.Handle) (core.Handle, error) {
			if kept == nil {
				kept = api
			}
			return core.LiteralU64(0), nil
		})
		for i := range slabLen / 2 {
			evalLent(t, e, st, core.LiteralU64(uint64(i)))
		}
		return weak.Make(st)
	}()
	for deadline := time.Now().Add(10 * time.Second); collected.Value() != nil; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("store still reachable after its engine was dropped: a kept API's slab pins it")
		}
		goruntime.GC()
	}
	goruntime.KeepAlive(kept)
}
