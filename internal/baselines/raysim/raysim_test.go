package raysim

import (
	"context"
	"fmt"
	"testing"
	"time"

	"fixgo/internal/transport"
)

func echoRegistry(c *Cluster) {
	c.Register("echo", func(tc *TaskCtx, args []Arg) ([]byte, error) {
		return args[0].Data, nil
	})
	c.Register("len", func(tc *TaskCtx, args []Arg) ([]byte, error) {
		data, err := tc.Get(context.Background(), args[0].Ref)
		if err != nil {
			return nil, err
		}
		return []byte(fmt.Sprintf("%d", len(data))), nil
	})
}

func TestSubmitGet(t *testing.T) {
	c := NewCluster(Options{Nodes: 2, CoresPerNode: 2, TaskOverhead: time.Microsecond, GetOverhead: time.Microsecond})
	defer c.Close()
	echoRegistry(c)
	ctx := context.Background()
	ref, err := c.Submit(ctx, "echo", ByValue([]byte("hi")))
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(ctx, ref)
	if err != nil || string(got) != "hi" {
		t.Fatalf("%q %v", got, err)
	}
}

func TestUnknownFunction(t *testing.T) {
	c := NewCluster(Options{TaskOverhead: time.Microsecond})
	defer c.Close()
	if _, err := c.Submit(context.Background(), "nope"); err == nil {
		t.Fatal("expected error")
	}
}

func TestBlockingGetInsideTask(t *testing.T) {
	c := NewCluster(Options{Nodes: 2, CoresPerNode: 1, TaskOverhead: time.Microsecond, GetOverhead: time.Microsecond})
	defer c.Close()
	echoRegistry(c)
	ctx := context.Background()
	data := make([]byte, 1000)
	ref := c.Put(0, data)
	lref, err := c.Submit(ctx, "len", ByRef(ref))
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(ctx, lref)
	if err != nil || string(got) != "1000" {
		t.Fatalf("%q %v", got, err)
	}
}

func TestLocalityScheduling(t *testing.T) {
	c := NewCluster(Options{Nodes: 4, CoresPerNode: 1, TaskOverhead: time.Microsecond, GetOverhead: time.Microsecond, Seed: 7})
	defer c.Close()
	c.Register("where", func(tc *TaskCtx, args []Arg) ([]byte, error) {
		return []byte(fmt.Sprintf("%d", tc.node)), nil
	})
	ctx := context.Background()
	// A big object on node 2 should attract the task there.
	big := c.Put(2, make([]byte, 1<<20))
	ref, err := c.Submit(ctx, "where", ByRef(big))
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(ctx, ref)
	if err != nil || string(got) != "2" {
		t.Fatalf("scheduled on node %q, want 2 (%v)", got, err)
	}
}

func TestDriverRoundTripsDominateChains(t *testing.T) {
	// 20-step chain with 5ms driver latency: blocking driver loop costs
	// at least 20 × one-way ≈ 100ms even though compute is trivial.
	c := NewCluster(Options{Nodes: 1, CoresPerNode: 1, DriverLatency: 5 * time.Millisecond,
		TaskOverhead: time.Microsecond, GetOverhead: time.Microsecond})
	defer c.Close()
	c.Register("inc", func(tc *TaskCtx, args []Arg) ([]byte, error) {
		return append(args[0].Data, 1), nil
	})
	ctx := context.Background()
	start := time.Now()
	val := []byte{}
	for i := 0; i < 20; i++ {
		ref, err := c.Submit(ctx, "inc", ByValue(val))
		if err != nil {
			t.Fatal(err)
		}
		var err2 error
		val, err2 = c.Get(ctx, ref)
		if err2 != nil {
			t.Fatal(err2)
		}
	}
	if len(val) != 20 {
		t.Fatalf("chain result = %d links", len(val))
	}
	if d := time.Since(start); d < 100*time.Millisecond {
		t.Fatalf("20-step remote chain took %v; driver RTTs should dominate (≥ ~100ms)", d)
	}
}

func TestCPSSubmitFromTask(t *testing.T) {
	c := NewCluster(Options{Nodes: 2, CoresPerNode: 2, TaskOverhead: time.Microsecond, GetOverhead: time.Microsecond})
	defer c.Close()
	c.Register("cps", func(tc *TaskCtx, args []Arg) ([]byte, error) {
		n := args[0].Data[0]
		if n == 0 {
			return []byte("bottom"), nil
		}
		ref, err := tc.Submit(context.Background(), "cps", ByValue([]byte{n - 1}))
		if err != nil {
			return nil, err
		}
		// CPS forwarding: wait for the continuation's value.
		return tc.Get(context.Background(), ref)
	})
	// Depth 3 on 4 total slots: tasks 3, 2, 1 hold slots blocking on
	// their continuations while task 0 runs on the last slot. (Depth ≥ 4
	// would deadlock — the blocked-worker starvation of Listing 2.)
	ctx := context.Background()
	ref, err := c.Submit(ctx, "cps", ByValue([]byte{3}))
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(ctx, ref)
	if err != nil || string(got) != "bottom" {
		t.Fatalf("%q %v", got, err)
	}
}

func TestTransferBandwidth(t *testing.T) {
	// 1 MB object over a 10 MB/s link: the pull costs ≥ ~100ms.
	c := NewCluster(Options{Nodes: 2, CoresPerNode: 1,
		Link:         transport.LinkConfig{Bandwidth: 10 << 20},
		TaskOverhead: time.Microsecond, GetOverhead: time.Microsecond})
	defer c.Close()
	c.Register("touch", func(tc *TaskCtx, args []Arg) ([]byte, error) {
		return []byte("ok"), nil
	})
	ctx := context.Background()
	big := c.Put(0, make([]byte, 1<<20))
	// Forcing placement away from the data: submit with no ref args
	// would schedule anywhere; instead pull explicitly via a task that
	// gets the object after being placed by a decoy local arg.
	decoy := c.Put(1, make([]byte, 2<<20))
	c.Register("pull", func(tc *TaskCtx, args []Arg) ([]byte, error) {
		return tc.Get(context.Background(), args[1].Ref)
	})
	start := time.Now()
	ref, err := c.Submit(ctx, "pull", ByRef(decoy), ByRef(big))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, ref); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 80*time.Millisecond {
		t.Fatalf("cross-node 1MB pull took %v, want ≥ ~100ms", d)
	}
}

func TestUpstreamErrorPropagates(t *testing.T) {
	c := NewCluster(Options{Nodes: 1, CoresPerNode: 1, TaskOverhead: time.Microsecond, GetOverhead: time.Microsecond})
	defer c.Close()
	c.Register("fail", func(tc *TaskCtx, args []Arg) ([]byte, error) {
		return nil, fmt.Errorf("kaboom")
	})
	c.Register("use", func(tc *TaskCtx, args []Arg) ([]byte, error) {
		return []byte("never"), nil
	})
	ctx := context.Background()
	bad, err := c.Submit(ctx, "fail")
	if err != nil {
		t.Fatal(err)
	}
	dep, err := c.Submit(ctx, "use", ByRef(bad))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, dep); err == nil {
		t.Fatal("expected upstream failure to propagate")
	}
}

func TestStats(t *testing.T) {
	c := NewCluster(Options{Nodes: 2, CoresPerNode: 1, TaskOverhead: time.Microsecond, GetOverhead: time.Microsecond})
	defer c.Close()
	echoRegistry(c)
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		ref, _ := c.Submit(ctx, "echo", ByValue([]byte{byte(i)}))
		c.Get(ctx, ref)
	}
	tasks, _ := c.Stats()
	var total int64
	for _, n := range tasks {
		total += n
	}
	if total != 4 {
		t.Fatalf("tasks = %d, want 4", total)
	}
}
