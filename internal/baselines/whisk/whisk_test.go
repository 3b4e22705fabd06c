package whisk

import (
	"context"
	"strconv"
	"sync"
	"testing"
	"time"

	"fixgo/internal/baselines/s3sim"
)

func testPlatform(opts Options) *Platform {
	if opts.Store == nil {
		opts.Store = s3sim.New(s3sim.Config{})
	}
	if opts.InvokeOverhead == 0 {
		opts.InvokeOverhead = time.Microsecond
	}
	if opts.ColdStart == 0 {
		opts.ColdStart = time.Microsecond
	}
	return New(opts)
}

func TestInvoke(t *testing.T) {
	p := testPlatform(Options{Nodes: 2, CoresPerNode: 2})
	p.Register("hello", func(ctx context.Context, inv *Invocation) ([]byte, error) {
		return []byte("hi " + inv.Params["name"]), nil
	})
	got, err := p.Invoke(context.Background(), "hello", map[string]string{"name": "fix"})
	if err != nil || string(got) != "hi fix" {
		t.Fatalf("%q %v", got, err)
	}
}

func TestUnknownAction(t *testing.T) {
	p := testPlatform(Options{})
	if _, err := p.Invoke(context.Background(), "nope", nil); err == nil {
		t.Fatal("expected error")
	}
}

func TestColdThenWarm(t *testing.T) {
	p := testPlatform(Options{Nodes: 1, CoresPerNode: 1, InvokeOverhead: time.Microsecond, ColdStart: 50 * time.Millisecond})
	p.Register("a", func(ctx context.Context, inv *Invocation) ([]byte, error) { return nil, nil })
	ctx := context.Background()
	start := time.Now()
	p.Invoke(ctx, "a", nil)
	coldDur := time.Since(start)
	start = time.Now()
	p.Invoke(ctx, "a", nil)
	warmDur := time.Since(start)
	if coldDur < 40*time.Millisecond {
		t.Fatalf("cold start took %v, want ≥ ~50ms", coldDur)
	}
	if warmDur > 25*time.Millisecond {
		t.Fatalf("warm start took %v, want well under cold", warmDur)
	}
}

func TestInternalIOAccounting(t *testing.T) {
	store := s3sim.New(s3sim.Config{Latency: 30 * time.Millisecond})
	p := testPlatform(Options{Nodes: 1, CoresPerNode: 1, Store: store})
	store.Put(context.Background(), "input", []byte("data"))
	p.Register("fetch", func(ctx context.Context, inv *Invocation) ([]byte, error) {
		return inv.GetObject(ctx, "input")
	})
	start := time.Now()
	if _, err := p.Invoke(context.Background(), "fetch", nil); err != nil {
		t.Fatal(err)
	}
	u := p.Usage(time.Since(start))
	if u.IOWait < 20*time.Millisecond {
		t.Fatalf("iowait = %v, want ≥ ~30ms (slot held during fetch)", u.IOWait)
	}
	if u.Tasks != 1 {
		t.Fatalf("tasks = %d", u.Tasks)
	}
}

func TestSlotContention(t *testing.T) {
	// 1 node × 1 core: two invocations that each hold the slot 30ms
	// while "fetching" must serialize (internal I/O starvation).
	store := s3sim.New(s3sim.Config{Latency: 30 * time.Millisecond})
	p := testPlatform(Options{Nodes: 1, CoresPerNode: 1, Store: store})
	store.Put(context.Background(), "k", []byte("v"))
	p.Register("fetch", func(ctx context.Context, inv *Invocation) ([]byte, error) {
		return inv.GetObject(ctx, "k")
	})
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Invoke(context.Background(), "fetch", nil)
		}()
	}
	wg.Wait()
	if d := time.Since(start); d < 55*time.Millisecond {
		t.Fatalf("two internal-I/O invocations on one core took %v, want ≥ ~60ms", d)
	}
}

func TestRoundRobinPlacement(t *testing.T) {
	p := testPlatform(Options{Nodes: 4, CoresPerNode: 1})
	var mu sync.Mutex
	p.Register("noop", func(ctx context.Context, inv *Invocation) ([]byte, error) {
		mu.Lock()
		defer mu.Unlock()
		return nil, nil
	})
	for i := 0; i < 8; i++ {
		if _, err := p.Invoke(context.Background(), "noop", nil); err != nil {
			t.Fatal(err)
		}
	}
	// All four nodes should have run tasks (round robin, blind to data).
	busy := 0
	for _, n := range p.nodes {
		if n.stats.Usage(time.Second).Tasks > 0 {
			busy++
		}
	}
	if busy != 4 {
		t.Fatalf("%d nodes busy, want 4", busy)
	}
}

func TestParamsAndPut(t *testing.T) {
	p := testPlatform(Options{})
	p.Register("store", func(ctx context.Context, inv *Invocation) ([]byte, error) {
		n, _ := strconv.Atoi(inv.Params["n"])
		if err := inv.PutObject(ctx, "out", make([]byte, n)); err != nil {
			return nil, err
		}
		return []byte("ok"), nil
	})
	if _, err := p.Invoke(context.Background(), "store", map[string]string{"n": "10"}); err != nil {
		t.Fatal(err)
	}
	data, err := p.opts.Store.Get(context.Background(), "out")
	if err != nil || len(data) != 10 {
		t.Fatalf("%d %v", len(data), err)
	}
}

func TestResetStats(t *testing.T) {
	p := testPlatform(Options{})
	p.Register("noop", func(ctx context.Context, inv *Invocation) ([]byte, error) { return nil, nil })
	p.Invoke(context.Background(), "noop", nil)
	p.ResetStats()
	if u := p.Usage(time.Second); u.Tasks != 0 {
		t.Fatalf("tasks after reset = %d", u.Tasks)
	}
}

// ResetStats zeroes the per-node collectors.
func (p *Platform) ResetStats() {
	for _, n := range p.nodes {
		n.stats.Reset()
	}
}
