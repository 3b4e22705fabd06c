package transport

import (
	"errors"
	"io"
	"testing"
	"time"
)

func TestChaosDropAfter(t *testing.T) {
	a, b := Pipe(LinkConfig{})
	ca := Chaos(a, ChaosConfig{DropAfter: 2})
	for i := 0; i < 5; i++ {
		if err := ca.Send([]byte{byte(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	// Only the first two arrive; the rest were blackholed.
	for i := 0; i < 2; i++ {
		msg, err := b.Recv()
		if err != nil || msg[0] != byte(i) {
			t.Fatalf("recv %d: %v %v", i, msg, err)
		}
	}
	if got := ca.Dropped(); got != 3 {
		t.Fatalf("dropped = %d, want 3", got)
	}
	// The reverse direction is untouched (one-way partition).
	if err := b.Send([]byte("back")); err != nil {
		t.Fatal(err)
	}
	if msg, err := ca.Recv(); err != nil || string(msg) != "back" {
		t.Fatalf("reverse recv: %q %v", msg, err)
	}
}

func TestChaosSeededDropIsDeterministic(t *testing.T) {
	run := func() []int {
		a, _ := Pipe(LinkConfig{})
		c := Chaos(a, ChaosConfig{Seed: 42, DropProb: 0.5})
		var dropped []int
		for i := 0; i < 64; i++ {
			before := c.Dropped()
			_ = c.Send([]byte{byte(i)})
			if c.Dropped() > before {
				dropped = append(dropped, i)
			}
		}
		return dropped
	}
	first, second := run(), run()
	if len(first) == 0 || len(first) == 64 {
		t.Fatalf("drop schedule degenerate: %d/64 dropped", len(first))
	}
	if len(first) != len(second) {
		t.Fatalf("schedules differ in length: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("schedules diverge at %d: %v vs %v", i, first, second)
		}
	}
}

func TestChaosCloseAfter(t *testing.T) {
	a, b := Pipe(LinkConfig{})
	ca := Chaos(a, ChaosConfig{CloseAfter: 1})
	if err := ca.Send([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := ca.Send([]byte("two")); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed after hard close, got %v", err)
	}
	if msg, err := b.Recv(); err != nil || string(msg) != "one" {
		t.Fatalf("recv: %q %v", msg, err)
	}
	if _, err := b.Recv(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF on killed link, got %v", err)
	}
}

func TestChaosPartitionHeal(t *testing.T) {
	a, b := Pipe(LinkConfig{})
	ca := Chaos(a, ChaosConfig{})
	ca.Partition()
	if err := ca.Send([]byte("lost")); err != nil {
		t.Fatal(err)
	}
	ca.Heal()
	if err := ca.Send([]byte("through")); err != nil {
		t.Fatal(err)
	}
	if msg, err := b.Recv(); err != nil || string(msg) != "through" {
		t.Fatalf("post-heal recv: %q %v", msg, err)
	}
	if ca.Dropped() != 1 || ca.Sends() != 2 {
		t.Fatalf("dropped=%d sends=%d, want 1/2", ca.Dropped(), ca.Sends())
	}
}

func TestChaosLatencySpike(t *testing.T) {
	a, b := Pipe(LinkConfig{})
	ca := Chaos(a, ChaosConfig{SpikeEvery: 2, SpikeLatency: 30 * time.Millisecond})
	start := time.Now()
	_ = ca.Send([]byte("fast"))
	fast := time.Since(start)
	start = time.Now()
	_ = ca.Send([]byte("slow")) // 2nd send: spiked
	slow := time.Since(start)
	if slow < 25*time.Millisecond {
		t.Fatalf("spiked send took %v, want ≥ 25ms", slow)
	}
	if fast > 20*time.Millisecond {
		t.Fatalf("unspiked send took %v", fast)
	}
	for _, want := range []string{"fast", "slow"} {
		if msg, err := b.Recv(); err != nil || string(msg) != want {
			t.Fatalf("recv: %q %v, want %q", msg, err, want)
		}
	}
}

// Dropped reports how many sends were blackholed so far.
func (c *ChaosConn) Dropped() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}
