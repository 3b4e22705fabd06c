package cluster

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
func tcpLink(tb testing.TB, a, b *Node) {
	tb.Helper()
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan transport.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	ca, err := transport.Dial(l.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	cb, ok := <-accepted
	if !ok {
		tb.Fatal("loopback accept failed")
	}
	a.AttachPeer(ca)
	b.AttachPeer(cb)
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
// Pipe, both sides counted (ROADMAP 2 Part D). It reads 14:
//   - delegating side: the invocation tree's entries and its store (2);
//     the Pipe's copy of the Job frame (1);
//   - worker side: the Job copied out of the link's message and the
//     closure that serves it (2); the Pushed slice (1); the pushed tree
//     decoded on ingest (1); the job's context (1); the add evaluation
//     itself (5: its API, two tree copies, two literal reads); the
//     Pipe's copy of the Result frame (1).
//
// Over TCP the frame copies become the receive buffers, one per frame.
func TestAllocsDelegationRoundTrip(t *testing.T) {
	p := newAddPair(t, pipeLink)
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
	limit := 15.0
	if raceEnabled {
		limit = 17 // the race detector's sync.Pool drops a quarter of all Puts
	}
	if allocs > limit {
		t.Fatalf("a delegation round trip allocates %v times, want at most %v", allocs, limit)
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
