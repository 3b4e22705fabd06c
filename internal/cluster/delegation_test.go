package cluster

import (
	"context"
	"errors"
	"math/rand"
	"net"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"fixgo/internal/codelet"
	"fixgo/internal/core"
	"fixgo/internal/proto"
	"fixgo/internal/runtime"
	"fixgo/internal/transport"
)

// addPair is a ClientOnly node joined to one worker by link, with the add
// codelet stored on the client.
type addPair struct {
	client, worker *Node
	add            core.Handle
}

func newAddPair(tb testing.TB, link func(tb testing.TB, a, b *Node)) *addPair {
	tb.Helper()
	p := &addPair{
		client: NewNode("client", NodeOptions{Cores: 1, ClientOnly: true}),
		worker: NewNode("worker", NodeOptions{Cores: 1}),
	}
	tb.Cleanup(func() { closeAll(p.client, []*Node{p.worker}) })
	p.add = p.client.Store().PutBlob(codelet.AddFunctionBlob())
	link(tb, p.client, p.worker)
	return p
}

// enc stores add(i, 7) on the client and returns its Strict encode. A
// fresh i is a fresh job: neither side has memoized it.
func (p *addPair) enc(tb testing.TB, i uint64) core.Handle {
	tb.Helper()
	tree, err := p.client.Store().PutTree(core.InvocationTree(core.DefaultLimits.Handle(), p.add, core.LiteralU64(i), core.LiteralU64(7)))
	if err != nil {
		tb.Fatal(err)
	}
	th, _ := core.Application(tree)
	enc, _ := core.Strict(th)
	return enc
}

// check fails unless res is the literal i+7.
func (p *addPair) check(tb testing.TB, i uint64, res core.Handle, err error) {
	tb.Helper()
	if err != nil {
		tb.Fatal(err)
	}
	if res != core.LiteralU64(i+7) {
		tb.Fatalf("add(%d, 7) = %v, want %d", i, res, i+7)
	}
}

func pipeLink(tb testing.TB, a, b *Node) { Connect(a, b, transport.LinkConfig{}) }

// tcpLink joins a and b over a loopback TCP connection.
func tcpLink(tb testing.TB, a, b *Node) { joinTCP(tb, a, b, transport.NewTCP) }

// joinTCP joins a and b over one loopback TCP connection, each end made a
// link by wrap.
func joinTCP(tb testing.TB, a, b *Node, wrap func(net.Conn) transport.Conn) {
	tb.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	ca, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	cb, ok := <-accepted
	if !ok {
		tb.Fatal("loopback accept failed")
	}
	a.AttachPeer(wrap(ca))
	b.AttachPeer(wrap(cb))
	waitPeer(a, b.id)
	waitPeer(b, a.id)
}

// BenchmarkDelegationRoundTrip is the ladder's delegation rung: a
// ClientOnly node stores a fresh add(i, 7) and evaluates it on its one
// worker. An op is the tree's store, placement, one Job frame, the
// worker's evaluation and one Result frame, with the allocations of both
// sides.
func BenchmarkDelegationRoundTrip(b *testing.B) {
	for _, link := range []struct {
		name string
		join func(tb testing.TB, a, b *Node)
	}{{"tcp", tcpLink}, {"pipe", pipeLink}} {
		b.Run(link.name, func(b *testing.B) {
			p := newAddPair(b, link.join)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := p.client.Eval(ctx, p.enc(b, uint64(i)))
				p.check(b, uint64(i), res, err)
			}
		})
	}
}

// TestAllocsDelegationRoundTrip pins one delegation of a fresh add over
// Pipe, both sides counted (ROADMAP 2 Part D). It reads 3: the 1 of
// TestAllocsDelegationRoundTripTCP, and the Pipe's copy of the Job and of
// the Result frame (1 each), which Pipe.Send must make because its caller
// reuses the buffer.
func TestAllocsDelegationRoundTrip(t *testing.T) {
	limit := 4.0
	if raceEnabled {
		limit = 6 // reads 5: the race detector's sync.Pool drops a quarter of all Puts
	}
	pinDelegationAllocs(t, pipeLink, limit)
}

// TestAllocsDelegationRoundTripTCP pins one delegation of a fresh add over
// loopback TCP, both sides counted. It reads 1: the delegating side's
// invocation tree entries. The worker's served job, which is also the
// Task runtime.Go hands to an evaluation goroutine, and the add
// evaluation's API, which lends both literal arguments, are each carved
// from a slab, one allocation per 32.
//
// Neither frame allocates: each is read in place in its link's buffer,
// and the Job's Pushed slice is the link's. Neither store allocates for
// the tree: the caller's copy and the worker's, validated and hashed in
// the frame, go into slots carved from a slab, which a stripe allocates
// once per 20 such trees.
func TestAllocsDelegationRoundTripTCP(t *testing.T) {
	limit := 2.0
	if raceEnabled {
		limit = 4 // reads 3
	}
	pinDelegationAllocs(t, tcpLink, limit)
}

// pinDelegationAllocs fails if one steady-state delegation over link
// allocates more than limit times.
func pinDelegationAllocs(t *testing.T, link func(tb testing.TB, a, b *Node), limit float64) {
	t.Helper()
	p := newAddPair(t, link)
	ctx := context.Background()
	var i uint64
	run := func() {
		res, err := p.client.Eval(ctx, p.enc(t, i))
		p.check(t, i, res, err)
		i++
	}
	// The first delegations start the worker's goroutines, and every
	// stripe of both stores grows its tables as entries arrive; the pin
	// is the steady state.
	for range 100 {
		run()
	}
	allocs := testing.AllocsPerRun(2000, run)
	t.Logf("%v allocations per delegation", allocs)
	if allocs > limit {
		t.Fatalf("a delegation round trip allocates %v times, want at most %v", allocs, limit)
	}
}

// writeCounter counts the Write calls that reach the wrapped net.Conn.
type writeCounter struct {
	net.Conn
	writes *atomic.Int64
}

func (w writeCounter) Write(p []byte) (int, error) {
	w.writes.Add(1)
	return w.Conn.Write(p)
}

// TestFramesDelegationTCPTwoWrites: one delegation of a fresh add over
// loopback TCP is 2 frames, its Job and its Result, in 2 write calls.
func TestFramesDelegationTCPTwoWrites(t *testing.T) {
	counts := &frameCounts{byType: make(map[byte]int)}
	var writes atomic.Int64
	p := newAddPair(t, func(tb testing.TB, a, b *Node) {
		joinTCP(tb, a, b, func(c net.Conn) transport.Conn {
			return &countingConn{Conn: transport.NewTCP(writeCounter{Conn: c, writes: &writes}), counts: counts}
		})
	})
	tally := func() (frames, jobs, results int64) {
		counts.mu.Lock()
		defer counts.mu.Unlock()
		for _, c := range counts.byType {
			frames += int64(c)
		}
		return frames, int64(counts.byType[proto.TypeJob]), int64(counts.byType[proto.TypeResult])
	}
	const delegations = 20
	frames0, jobs0, results0 := tally()
	writes0 := writes.Load()
	for i := uint64(0); i < delegations; i++ {
		res, err := p.client.Eval(context.Background(), p.enc(t, i))
		p.check(t, i, res, err)
	}
	frames, jobs, results := tally()
	if frames-frames0 != 2*delegations || jobs-jobs0 != delegations || results-results0 != delegations {
		t.Fatalf("%d delegations sent %d frames (%d Job, %d Result), want one Job and one Result each",
			delegations, frames-frames0, jobs-jobs0, results-results0)
	}
	if got := writes.Load() - writes0; got != 2*delegations {
		t.Fatalf("%d delegations made %d write calls, want 2 each", delegations, got)
	}
}

// silentConn accepts every frame and answers none.
type silentConn struct{ transport.Conn }

func (silentConn) Send([]byte) error { return nil }

// TestDelegateAfterCloseFailsFast: a delegation that starts after Close
// must not register a waiter nothing will ever fail. It returns
// ErrNodeClosed at once, not when its context expires.
func TestDelegateAfterCloseFailsFast(t *testing.T) {
	n := NewNode("client", NodeOptions{Cores: 1, ClientOnly: true})
	a, _ := transport.Pipe(transport.LinkConfig{})
	w := &peer{id: "w1", role: proto.RoleWorker, conn: silentConn{a}}
	n.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := n.delegate(ctx, w, testEnc(t, n, 1), nil); !errors.Is(err, ErrNodeClosed) {
		t.Fatalf("delegate after Close = %v, want ErrNodeClosed", err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.jobW) != 0 {
		t.Fatalf("%d Encodes left waiting after Close", len(n.jobW))
	}
}

// TestDelegateToEvictedPeerFailsFast: a delegation to a peer evicted
// after placement read it must fail with PeerLostError at once, so the
// job is re-placed. Here the evicted link still accepts frames, as one
// whose close has not happened yet does; a waiter registered for it would
// wait for a Result nothing can deliver.
func TestDelegateToEvictedPeerFailsFast(t *testing.T) {
	n := NewNode("client", NodeOptions{Cores: 1, ClientOnly: true})
	defer n.Close()
	a, _ := transport.Pipe(transport.LinkConfig{})
	w := &peer{id: "w1", role: proto.RoleWorker, conn: silentConn{a}}
	n.mu.Lock()
	n.peers[w.id] = w
	n.mu.Unlock()
	n.evictPeer(w, errors.New("evicted by the test"))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var lost *PeerLostError
	if _, err := n.delegate(ctx, w, testEnc(t, n, 1), nil); !errors.As(err, &lost) || lost.Peer != w.id {
		t.Fatalf("delegate to an evicted peer = %v, want a PeerLostError for %s", err, w.id)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.jobW) != 0 {
		t.Fatalf("%d Encodes left waiting on an evicted peer", len(n.jobW))
	}
}

// TestRecycledWaiterSeesOnlyItsResult: waiters are pooled, so a Result
// delivered to a recycled one would complete the wrong delegation. Many
// concurrent delegations run over Pipe to two workers; a seeded third are
// cancelled mid-flight and one worker is evicted under them. Every call
// that completes returns its own add(i, 7), every other call fails by its
// own cancellation, and no waiter is left behind.
func TestRecycledWaiterSeesOnlyItsResult(t *testing.T) {
	const (
		calls   = 150
		evictAt = calls / 4 // evaluations started before w1 is evicted
	)
	var started atomic.Int32
	evictNow := make(chan struct{})
	reg := runtime.NewRegistry()
	reg.RegisterFunc("slowadd", func(api core.API, input core.Handle) (core.Handle, error) {
		if started.Add(1) == evictAt {
			close(evictNow)
		}
		entries, err := api.AttachTree(input)
		if err != nil {
			return core.Handle{}, err
		}
		a, _ := core.DecodeU64(entries[2].LiteralData())
		b, _ := core.DecodeU64(entries[3].LiteralData())
		time.Sleep(time.Duration(a%4) * 50 * time.Microsecond)
		return core.LiteralU64(a + b), nil
	})
	client := NewNode("client", NodeOptions{Cores: 1, ClientOnly: true, Registry: reg})
	ws := []*Node{
		NewNode("w0", NodeOptions{Cores: 2, Registry: reg}),
		NewNode("w1", NodeOptions{Cores: 2, Registry: reg}),
	}
	defer closeAll(client, ws)
	FullMesh(transport.LinkConfig{}, client, ws[0], ws[1])
	fn := client.Store().PutBlob(core.NativeFunctionBlob("slowadd"))

	rng := rand.New(rand.NewSource(38))
	encs := make([]core.Handle, calls)
	cancelAfter := make([]time.Duration, calls) // zero: never cancelled
	for i := range encs {
		tree, err := client.Store().PutTree(core.InvocationTree(core.DefaultLimits.Handle(), fn, core.LiteralU64(uint64(i)), core.LiteralU64(7)))
		if err != nil {
			t.Fatal(err)
		}
		th, _ := core.Application(tree)
		encs[i], _ = core.Strict(th)
		if rng.Intn(3) == 0 {
			cancelAfter[i] = time.Duration(1+rng.Intn(400)) * time.Microsecond
		}
	}

	evicted := make(chan struct{})
	go func() {
		defer close(evicted)
		<-evictNow
		client.mu.Lock()
		p := client.peers["w1"]
		client.mu.Unlock()
		client.evictPeer(p, errors.New("evicted by the test"))
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := range encs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cctx, ccancel := context.WithCancel(ctx)
			defer ccancel()
			if d := cancelAfter[i]; d > 0 {
				time.AfterFunc(d, ccancel)
			}
			res, err := client.Eval(cctx, encs[i])
			switch {
			case err == nil:
				if got, _ := core.DecodeU64(res.LiteralData()); !res.IsLiteral() || got != uint64(i)+7 {
					t.Errorf("add(%d, 7) = %v, want %d", i, res, i+7)
				}
			case cancelAfter[i] == 0 || !errors.Is(err, context.Canceled):
				t.Errorf("add(%d, 7): %v", i, err)
			}
		}()
	}
	wg.Wait()
	<-evicted
	if got := client.NetStats().Evicted; got != 1 {
		t.Fatalf("%d evictions, want 1", got)
	}
	client.mu.Lock()
	defer client.mu.Unlock()
	if len(client.jobW) != 0 {
		t.Fatalf("%d Encodes still have waiters after every call returned", len(client.jobW))
	}
}

// TestServedJobDetachPinsNoNode: a served Job's record may outlive its
// serving (whatever kept its context keeps it), and with it the slab it
// was carved from. Once served, the record is detached: it names no
// Node, sender or trace, and its context still reads its hops. A worker
// that served Jobs, closed and dropped, is collected while the first
// record is still held.
func TestServedJobDetachPinsNoNode(t *testing.T) {
	var kept *servedJob
	collected := func() weak.Pointer[Node] {
		w := NewNode("worker", NodeOptions{Cores: 1})
		add := w.Store().PutBlob(codelet.AddFunctionBlob())
		for i := range uint64(4) {
			tree, err := w.Store().PutTree(core.InvocationTree(core.DefaultLimits.Handle(), add, core.LiteralU64(i), core.LiteralU64(7)))
			if err != nil {
				t.Fatal(err)
			}
			th, _ := core.Application(tree)
			enc, _ := core.Strict(th)
			j := newServedJob(w, &proto.Message{Type: proto.TypeJob, From: "client", Handle: enc, Hops: 2, Trace: "trace"})
			if kept == nil {
				kept = j
			} else if j == kept {
				t.Fatal("a served Job's record was handed out twice")
			}
			j.Run()
			if res, ok := w.Store().EncodeResult(enc); !ok || res != core.LiteralU64(i+7) {
				t.Fatalf("served add(%d, 7) memoized %v, %v", i, res, ok)
			}
		}
		w.Close()
		return weak.Make(w)
	}()
	if kept.n != nil || kept.from != "" || kept.trace != "" {
		t.Fatalf("served Job still names node %p, sender %q, trace %q", kept.n, kept.from, kept.trace)
	}
	if hops := hopsOf(&kept.jobCtx); hops != 2 {
		t.Fatalf("served Job's context reads %d hops, want 2", hops)
	}
	for deadline := time.Now().Add(10 * time.Second); collected.Value() != nil; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("closed worker still reachable: a kept served Job's slab pins it")
		}
		goruntime.GC()
	}
	goruntime.KeepAlive(kept)
}
