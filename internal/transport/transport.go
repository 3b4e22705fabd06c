// Package transport provides message-oriented links between Fixpoint
// nodes, clients, storage services, and baseline systems.
//
// Two implementations share one interface: an in-memory pipe with
// configurable one-way latency and bandwidth (the simulated cluster fabric
// used by the benchmark harness — ARCHITECTURE.md §Substitutions), and a
// TCP transport with length-prefixed frames for real deployments
// (cmd/fixpoint, cmd/fixctl).
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// ErrClosed is returned by operations on a closed Conn.
var ErrClosed = errors.New("transport: connection closed")

// MaxFrame bounds a single message (256 MiB).
const MaxFrame = 256 << 20

// Conn is a bidirectional, ordered, reliable message link.
type Conn interface {
	// Send transmits one message. It does not block for network time on
	// simulated links (the delay is applied at the receiver). Send must
	// not retain msg past return — implementations copy (mem) or write
	// through (tcp) before returning — so callers may reuse the buffer
	// for the next encode.
	Send(msg []byte) error
	// Recv delivers the next message, blocking until one arrives or the
	// link closes (io.EOF). The caller owns the returned buffer: the link
	// never touches it again, so a decoded message may alias it
	// (proto.Decode does).
	Recv() ([]byte, error)
	// Close shuts the link down in both directions.
	Close() error
}

// LinkConfig describes a simulated link.
type LinkConfig struct {
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// Bandwidth is the link rate in bytes/second; zero means infinite.
	Bandwidth float64
}

// delay computes the transfer time of n bytes at the link rate.
func (c LinkConfig) delay(n int) time.Duration {
	if c.Bandwidth <= 0 {
		return 0
	}
	return time.Duration(float64(n) / c.Bandwidth * float64(time.Second))
}

type timedMsg struct {
	data    []byte
	arrival time.Time
}

// memConn is one endpoint of an in-memory simulated link.
type memConn struct {
	cfg  LinkConfig
	out  chan timedMsg
	in   chan timedMsg
	done chan struct{}

	mu         sync.Mutex
	lastTxDone time.Time
	closeOnce  *sync.Once
}

// Pipe creates a connected pair of simulated link endpoints. Messages sent
// on one endpoint arrive at the other after the link's latency plus
// serialization time at the link bandwidth; transmissions in the same
// direction are serialized (a long transfer delays the messages behind
// it), which is what makes data locality matter in the simulated cluster.
func Pipe(cfg LinkConfig) (Conn, Conn) {
	ab := make(chan timedMsg, 16384)
	ba := make(chan timedMsg, 16384)
	done := make(chan struct{})
	once := &sync.Once{}
	a := &memConn{cfg: cfg, out: ab, in: ba, done: done, closeOnce: once}
	b := &memConn{cfg: cfg, out: ba, in: ab, done: done, closeOnce: once}
	return a, b
}

func (c *memConn) Send(msg []byte) error {
	if len(msg) > MaxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds max %d", len(msg), MaxFrame)
	}
	select {
	case <-c.done:
		return ErrClosed
	default:
	}
	now := time.Now()
	c.mu.Lock()
	txStart := c.lastTxDone
	if now.After(txStart) {
		txStart = now
	}
	txDone := txStart.Add(c.cfg.delay(len(msg)))
	c.lastTxDone = txDone
	c.mu.Unlock()

	cp := make([]byte, len(msg))
	copy(cp, msg)
	select {
	case c.out <- timedMsg{data: cp, arrival: txDone.Add(c.cfg.Latency)}:
		return nil
	case <-c.done:
		return ErrClosed
	}
}

func (c *memConn) Recv() ([]byte, error) {
	var m timedMsg
	select {
	case m = <-c.in:
	case <-c.done:
		// Drain any messages already queued before the close.
		select {
		case m = <-c.in:
		default:
			return nil, io.EOF
		}
	}
	if wait := time.Until(m.arrival); wait > 0 {
		timer := time.NewTimer(wait)
		defer timer.Stop()
		<-timer.C
	}
	return m.data, nil
}

func (c *memConn) Close() error {
	c.closeOnce.Do(func() { close(c.done) })
	return nil
}

// tcpConn frames messages over a net.Conn with 4-byte little-endian
// length prefixes. Both directions are buffered so that a frame smaller
// than connBufSize costs one write and one read: Send stages header and
// payload in w and flushes once; Recv reads through r, which picks up a
// small frame's header and body (and any frames queued behind it) in the
// same read.
type tcpConn struct {
	c    net.Conn
	rmu  sync.Mutex
	r    *bufio.Reader // guarded by rmu
	rhdr [4]byte       // guarded by rmu
	wmu  sync.Mutex
	w    *bufio.Writer // guarded by wmu
	whdr [4]byte       // guarded by wmu
}

// connBufSize sizes each direction's buffer of a TCP link.
const connBufSize = 64 << 10

// recvStep bounds what Recv allocates before any payload byte has
// arrived: the length prefix is four untrusted bytes.
const recvStep = 1 << 20

// NewTCP wraps an established net.Conn as a message link.
func NewTCP(c net.Conn) Conn {
	return &tcpConn{c: c, r: bufio.NewReaderSize(c, connBufSize), w: bufio.NewWriterSize(c, connBufSize)}
}

// Dial connects to a TCP listener and wraps the connection.
func Dial(addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewTCP(c), nil
}

// DialRetry dials addr, retrying every `every` until a connection is
// established or `giveUp` elapses (measured from the first attempt).
// Gateway peers boot in arbitrary order, so the first dial of a
// replicated-edge mesh routinely races the peer's listener; a bounded
// retry loop absorbs that without shelling the ordering problem out to
// an init system. giveUp <= 0 means exactly one attempt (plain Dial).
func DialRetry(addr string, every, giveUp time.Duration) (Conn, error) {
	if every <= 0 {
		every = 250 * time.Millisecond
	}
	deadline := time.Now().Add(giveUp)
	for {
		c, err := Dial(addr)
		if err == nil {
			return c, nil
		}
		if giveUp <= 0 || time.Now().Add(every).After(deadline) {
			return nil, fmt.Errorf("transport: dial %s: gave up after %v: %w", addr, giveUp, err)
		}
		time.Sleep(every)
	}
}

func (t *tcpConn) Send(msg []byte) error {
	if len(msg) > MaxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds max %d", len(msg), MaxFrame)
	}
	t.wmu.Lock()
	defer t.wmu.Unlock()
	binary.LittleEndian.PutUint32(t.whdr[:], uint32(len(msg)))
	// bufio.Writer errors are sticky and surface again at Flush.
	_, _ = t.w.Write(t.whdr[:])
	_, _ = t.w.Write(msg)
	return t.w.Flush()
}

func (t *tcpConn) Recv() ([]byte, error) {
	t.rmu.Lock()
	defer t.rmu.Unlock()
	if _, err := io.ReadFull(t.r, t.rhdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(t.rhdr[:]))
	if n > MaxFrame {
		return nil, fmt.Errorf("transport: oversized frame (%d bytes)", n)
	}
	// A frame up to recvStep is one exact allocation. A larger claim is
	// believed only as far as bytes have arrived: the buffer doubles each
	// time it fills, so a lying prefix costs at most recvStep.
	buf := make([]byte, min(n, recvStep))
	read := 0
	for {
		if _, err := io.ReadFull(t.r, buf[read:]); err != nil {
			return nil, err
		}
		if len(buf) == n {
			return buf, nil
		}
		read = len(buf)
		grown := make([]byte, min(n, 2*read))
		copy(grown, buf)
		buf = grown
	}
}

func (t *tcpConn) Close() error { return t.c.Close() }

// Listener accepts framed-TCP message links (the counterpart of Dial).
type Listener struct {
	l net.Listener
}

// Listen opens a TCP listener for message links on addr.
func Listen(addr string) (*Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Listener{l: l}, nil
}

// Accept waits for the next inbound link.
func (l *Listener) Accept() (Conn, error) {
	c, err := l.l.Accept()
	if err != nil {
		return nil, err
	}
	return NewTCP(c), nil
}

// Addr returns the listener's bound address.
func (l *Listener) Addr() net.Addr { return l.l.Addr() }

// Close stops the listener. Accepted links stay open.
func (l *Listener) Close() error { return l.l.Close() }

// Serve accepts links until the listener closes, invoking handle on each
// (typically Node.AttachPeer, which starts its own receive goroutine and
// returns). It returns the first Accept error; after Close that is
// net.ErrClosed.
func Serve(l *Listener, handle func(Conn)) error {
	for {
		c, err := l.Accept()
		if err != nil {
			return err
		}
		handle(c)
	}
}
