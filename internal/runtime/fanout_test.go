package runtime

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"fixgo/internal/codelet"
	"fixgo/internal/core"
	"fixgo/internal/store"
)

// sumRegistry registers "sum", which returns the sum of its arguments'
// values: a Blob of up to 8 bytes is a u64, a longer one counts its length.
func sumRegistry() *Registry {
	reg := NewRegistry()
	reg.RegisterFunc("sum", func(api core.API, input core.Handle) (core.Handle, error) {
		entries, err := api.AttachTree(input)
		if err != nil {
			return core.Handle{}, err
		}
		var total uint64
		for _, arg := range entries[2:] {
			data, err := api.AttachBlob(arg)
			if err != nil {
				return core.Handle{}, err
			}
			if len(data) > 8 {
				total += uint64(len(data))
				continue
			}
			v, err := core.DecodeU64(data)
			if err != nil {
				return core.Handle{}, err
			}
			total += v
		}
		return core.LiteralU64(total), nil
	})
	return reg
}

// TestAllocsFanOut: forcing k memoized Encode entries costs an Application
// nothing over the same Application with k literal entries but the input
// Tree it stores (the plain one's input is its definition). The fan-out
// record, its branch goroutines' hand-off, the forced entries and the
// branches' errors allocate nothing.
func TestAllocsFanOut(t *testing.T) {
	for _, k := range []int{2, 8} {
		plain := allocsPerFreshApp(t, k, false)
		forced := allocsPerFreshApp(t, k, true)
		t.Logf("k=%d: %v allocations with literal entries, %v with memoized Encodes", k, plain, forced)
		if forced > plain+1 {
			t.Errorf("k=%d: an Application over memoized Encodes allocates %v times, want ≤ %v (one over literal entries)", k, forced, plain+1)
		}
	}
}

// allocsPerFreshApp measures one evaluation of a fresh sum Application
// with k arguments: the first differs per run, and with encoded set every
// argument is a Strict Encode evaluated beforehand.
func allocsPerFreshApp(t *testing.T, k int, encoded bool) float64 {
	const runs = 200
	e, st := newTestEngine(t, Options{Cores: 1, Registry: sumRegistry()})
	arg := func(v uint64) core.Handle {
		if !encoded {
			return core.LiteralU64(v)
		}
		enc := strictApp(t, st, codelet.AddFunctionBlob(), core.LiteralU64(v), core.LiteralU64(0))
		if got := evalU64(t, e, enc); got != v {
			t.Fatalf("add(%d, 0) = %d", v, got)
		}
		return enc
	}
	shared := make([]core.Handle, k-1)
	for i := range shared {
		shared[i] = arg(uint64(1000 + i))
	}
	sum := core.NativeFunctionBlob("sum")
	apps := make([]core.Handle, runs+2)
	for r := range apps {
		apps[r] = appThunk(t, st, sum, append([]core.Handle{arg(uint64(r))}, shared...)...)
	}
	ctx := context.Background()
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := e.Eval(ctx, apps[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	return allocs
}

// fanOutCase is one evaluation of TestFanOutConcurrentApplications and
// the value it must give.
type fanOutCase struct {
	h    core.Handle
	want uint64
	tree bool // h is a Strict Encode of a Tree whose entries sum to want
}

// TestFanOutConcurrentApplications evaluates many Applications with 2 to
// 12 Encode entries at once, beyond fanInline too, so some fan-outs keep
// their slices on the heap. Encodes are fresh, shared between
// Applications (so branches join each other's futures), or nested with a
// fan-out of their own; arguments are literals or Blobs only the fetcher
// has, several per invocation, so the fetch fans out as well. Strict
// Encodes of Trees of as many Thunks exercise strictifyTree's fan-out.
// Every result is checked.
func TestFanOutConcurrentApplications(t *testing.T) {
	const workers, perWorker = 12, 24
	f := &mapFetcher{}
	st := store.New()
	e := New(st, Options{Cores: 4, Registry: sumRegistry(), Fetcher: f})
	sum := core.NativeFunctionBlob("sum")

	remote := func(n int) core.Handle {
		return remoteBlob(f, bytes.Repeat([]byte{byte(n)}, 40+n))
	}
	// shared are Encodes that several Applications force at once.
	shared := make([]core.Handle, 6)
	for i := range shared {
		shared[i] = strictApp(t, st, sum, core.LiteralU64(uint64(i)), core.LiteralU64(100))
	}
	sharedWant := func(i int) uint64 { return uint64(i) + 100 }

	cases := make([][]fanOutCase, workers)
	n := 0
	for w := range cases {
		for j := range perWorker {
			n++
			k := 2 + (w*5+j)%11 // 2..12 Encode entries
			var args []core.Handle
			var want uint64
			for m := range k {
				v := uint64(n*100 + m)
				switch (n + m) % 4 {
				case 0: // fresh, with two Blobs to fetch
					a, b := remote(n%50+m), remote(n%50+m+100)
					args = append(args, strictApp(t, st, sum, core.LiteralU64(v), a, b))
					want += v + uint64(40+n%50+m) + uint64(140+n%50+m)
				case 1: // shared with other Applications
					args = append(args, shared[(n+m)%len(shared)])
					want += sharedWant((n + m) % len(shared))
				case 2: // nested: an Encode whose own Application fans out
					inner := strictApp(t, st, sum,
						strictApp(t, st, sum, core.LiteralU64(v)),
						strictApp(t, st, sum, core.LiteralU64(v+1)),
						shared[m%len(shared)])
					args = append(args, inner)
					want += 2*v + 1 + sharedWant(m%len(shared))
				default: // fresh, literal only
					args = append(args, strictApp(t, st, sum, core.LiteralU64(v)))
					want += v
				}
			}
			app := strictApp(t, st, sum, args...)
			cases[w] = append(cases[w], fanOutCase{h: app, want: want})
			// The same arguments as a Strict Encode of a Tree of Thunks.
			thunks := make([]core.Handle, len(args))
			for i, a := range args {
				th, err := core.EncodedThunk(a)
				if err != nil {
					t.Fatal(err)
				}
				thunks[i] = th
			}
			tree, err := st.PutTree(thunks)
			if err != nil {
				t.Fatal(err)
			}
			id, _ := core.Identification(tree)
			enc, _ := core.Strict(id)
			cases[w] = append(cases[w], fanOutCase{h: enc, want: want, tree: true})
		}
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for _, list := range cases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, c := range list {
				if err := checkFanOutCase(ctx, e, c); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func checkFanOutCase(ctx context.Context, e *Engine, c fanOutCase) error {
	if !c.tree {
		data, err := e.EvalBlob(ctx, c.h)
		if err != nil {
			return err
		}
		got, err := core.DecodeU64(data)
		if err != nil || got != c.want {
			return fmt.Errorf("application = %d (%v), want %d", got, err, c.want)
		}
		return nil
	}
	entries, err := e.EvalTree(ctx, c.h)
	if err != nil {
		return err
	}
	var got uint64
	for _, ent := range entries {
		data, err := e.st.Blob(ent)
		if err != nil {
			return err
		}
		v, err := core.DecodeU64(data)
		if err != nil {
			return err
		}
		got += v
	}
	if got != c.want {
		return fmt.Errorf("strictified tree of %d entries sums to %d, want %d", len(entries), got, c.want)
	}
	return nil
}
