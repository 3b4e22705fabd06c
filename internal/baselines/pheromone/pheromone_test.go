package pheromone

import (
	"context"
	"fmt"
	"testing"
	"time"

	"fixgo/internal/baselines/s3sim"
)

func TestRunChain(t *testing.T) {
	e := New(Options{Workers: 2, StepOverhead: time.Microsecond})
	e.Register("inc", func(ctx context.Context, env *Env, input []byte) ([]byte, error) {
		return append(input, 'x'), nil
	})
	names := make([]string, 10)
	for i := range names {
		names[i] = "inc"
	}
	out, err := e.RunChain(context.Background(), names, nil)
	if err != nil || len(out) != 10 {
		t.Fatalf("%q %v", out, err)
	}
}

func TestChainPaysClientLatencyOnce(t *testing.T) {
	// 20 steps with 10ms client latency: total should be ≈ 2×10ms +
	// 20×step, nowhere near 20 round trips (400ms).
	e := New(Options{Workers: 1, StepOverhead: 100 * time.Microsecond, ClientLatency: 10 * time.Millisecond})
	e.Register("inc", func(ctx context.Context, env *Env, input []byte) ([]byte, error) {
		return input, nil
	})
	names := make([]string, 20)
	for i := range names {
		names[i] = "inc"
	}
	start := time.Now()
	if _, err := e.RunChain(context.Background(), names, nil); err != nil {
		t.Fatal(err)
	}
	d := time.Since(start)
	if d < 18*time.Millisecond {
		t.Fatalf("chain took %v, want ≥ 2×client latency", d)
	}
	if d > 200*time.Millisecond {
		t.Fatalf("chain took %v; orchestration must be colocated, not per-step RTTs", d)
	}
}

func TestUnknownFunction(t *testing.T) {
	e := New(Options{})
	if _, err := e.RunChain(context.Background(), []string{"ghost"}, nil); err == nil {
		t.Fatal("expected error")
	}
}

func TestRunMapInternalIO(t *testing.T) {
	store := s3sim.New(s3sim.Config{Latency: 20 * time.Millisecond})
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		store.Put(ctx, fmt.Sprintf("chunk-%d", i), []byte("words words words"))
	}
	e := New(Options{Workers: 2, StepOverhead: time.Microsecond, Store: store})
	e.Register("count", func(ctx context.Context, env *Env, input []byte) ([]byte, error) {
		data, err := env.GetObject(ctx, string(input))
		if err != nil {
			return nil, err
		}
		return []byte(fmt.Sprintf("%d", len(data))), nil
	})
	inputs := make([][]byte, 4)
	for i := range inputs {
		inputs[i] = []byte(fmt.Sprintf("chunk-%d", i))
	}
	start := time.Now()
	out, err := e.RunMap(ctx, "count", inputs)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range out {
		if string(o) != "17" {
			t.Fatalf("count = %q", o)
		}
	}
	// 4 fetches × 20ms on 2 slots ≥ ~40ms, and iowait must be charged.
	if d := time.Since(start); d < 35*time.Millisecond {
		t.Fatalf("map took %v", d)
	}
	if io := e.stats.Usage(time.Second).IOWait; io < 60*time.Millisecond {
		t.Fatalf("iowait = %v, want ≈ 4×20ms", io)
	}
}

func TestMapErrorPropagates(t *testing.T) {
	e := New(Options{Workers: 1, StepOverhead: time.Microsecond})
	e.Register("boom", func(ctx context.Context, env *Env, input []byte) ([]byte, error) {
		return nil, fmt.Errorf("boom")
	})
	if _, err := e.RunMap(context.Background(), "boom", [][]byte{nil}); err == nil {
		t.Fatal("expected error")
	}
}

func TestEnvWithoutStore(t *testing.T) {
	e := New(Options{Workers: 1, StepOverhead: time.Microsecond})
	e.Register("touch", func(ctx context.Context, env *Env, input []byte) ([]byte, error) {
		if _, err := env.GetObject(ctx, "k"); err == nil {
			return nil, fmt.Errorf("expected error without store")
		}
		return []byte("ok"), nil
	})
	out, err := e.RunChain(context.Background(), []string{"touch"}, nil)
	if err != nil || string(out) != "ok" {
		t.Fatalf("%q %v", out, err)
	}
}
