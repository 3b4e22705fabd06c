package transport

import (
	"math/rand"
	"sync"
	"time"
)

// ChaosConfig describes deterministic fault injection for a Chaos link.
// All scheduled faults key off the wrapped endpoint's send counter (not
// wall time), so a fixed configuration produces a fixed fault schedule:
// the same test run twice injects the same faults at the same points in
// the message stream.
type ChaosConfig struct {
	// Seed drives the probabilistic faults (DropProb). Two Chaos links
	// with the same seed and config drop the same messages.
	Seed int64
	// DropProb is the per-message probability of silently dropping a
	// send (0 = never). Drops are blackholes: Send reports success, the
	// peer sees nothing — exactly what a lossy or partitioned network
	// looks like to the sender.
	DropProb float64
	// DropAfter blackholes every send after the Nth successful one
	// (0 = never). Wrapping one endpoint yields a one-way partition;
	// wrapping both yields a full partition.
	DropAfter int
	// CloseAfter hard-closes the underlying link after the Nth send
	// (0 = never) — the "process died" failure, visible to both ends.
	CloseAfter int
	// SpikeEvery delays every Kth send by SpikeLatency before it is
	// forwarded (0 = never): a deterministic latency spike that tests
	// false-suspicion behavior in failure detectors.
	SpikeEvery   int
	SpikeLatency time.Duration
}

// ChaosConn wraps one endpoint of a Conn with seeded, deterministic
// fault injection (ChaosConfig) plus imperative controls for test
// harnesses that drive explicit kill/partition/heal schedules.
type ChaosConn struct {
	inner Conn
	cfg   ChaosConfig

	mu          sync.Mutex
	rng         *rand.Rand
	sends       int // messages offered to Send so far
	dropped     int
	partitioned bool
}

// Chaos wraps conn with fault injection described by cfg. Faults apply
// to the wrapped endpoint's sends only; Recv passes through, so the
// reverse direction stays healthy unless its endpoint is also wrapped.
func Chaos(conn Conn, cfg ChaosConfig) *ChaosConn {
	return &ChaosConn{inner: conn, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Partition starts blackholing every subsequent send (one-way), as if
// the network silently ate this direction. Heal undoes it.
func (c *ChaosConn) Partition() {
	c.mu.Lock()
	c.partitioned = true
	c.mu.Unlock()
}

// Heal ends an imperative Partition; scheduled faults keep applying.
func (c *ChaosConn) Heal() {
	c.mu.Lock()
	c.partitioned = false
	c.mu.Unlock()
}

// Sends reports how many messages were offered to Send so far.
func (c *ChaosConn) Sends() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sends
}

// Send applies the fault schedule, then forwards to the wrapped link.
func (c *ChaosConn) Send(msg []byte) error {
	c.mu.Lock()
	c.sends++
	n := c.sends
	drop := c.partitioned ||
		(c.cfg.DropAfter > 0 && n > c.cfg.DropAfter) ||
		(c.cfg.DropProb > 0 && c.rng.Float64() < c.cfg.DropProb)
	kill := c.cfg.CloseAfter > 0 && n > c.cfg.CloseAfter
	spike := c.cfg.SpikeEvery > 0 && n%c.cfg.SpikeEvery == 0
	if drop {
		c.dropped++
	}
	c.mu.Unlock()

	if kill {
		_ = c.inner.Close()
		return ErrClosed
	}
	if drop {
		return nil // blackhole: the sender believes it went out
	}
	if spike {
		time.Sleep(c.cfg.SpikeLatency)
	}
	return c.inner.Send(msg)
}

// Recv passes through to the wrapped link.
func (c *ChaosConn) Recv() ([]byte, error) { return c.inner.Recv() }

// Close closes the wrapped link.
func (c *ChaosConn) Close() error { return c.inner.Close() }

var _ Conn = (*ChaosConn)(nil)
