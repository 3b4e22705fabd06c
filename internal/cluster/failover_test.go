package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fixgo/internal/core"
	"fixgo/internal/proto"
	"fixgo/internal/runtime"
	"fixgo/internal/transport"
)

// hbOpts returns NodeOptions with fast heartbeats for failure-detection
// tests. The timeout is generous relative to the interval so the race
// detector's slowdown cannot produce false evictions.
func hbOpts(base NodeOptions) NodeOptions {
	base.HeartbeatInterval = 20 * time.Millisecond
	base.HeartbeatTimeout = 300 * time.Millisecond
	return base
}

// holdRegistry registers a "hold" procedure that reports the named node
// on started and blocks until release closes, then returns its blob
// argument's length. Give each worker its own registry (closing over its
// name) to observe which node a delegated job landed on.
func holdRegistry(name string, started chan<- string, release <-chan struct{}) *runtime.Registry {
	reg := runtime.NewRegistry()
	reg.RegisterFunc("hold", func(api core.API, input core.Handle) (core.Handle, error) {
		entries, err := api.AttachTree(input)
		if err != nil {
			return core.Handle{}, err
		}
		b, err := api.AttachBlob(entries[2])
		if err != nil {
			return core.Handle{}, err
		}
		started <- name
		<-release
		return api.CreateBlob(core.LiteralU64(uint64(len(b))).LiteralData()), nil
	})
	return reg
}

// holdJob builds strict(application([lim, hold, blob])) on node n.
func holdJob(t *testing.T, n *Node, blob core.Handle) core.Handle {
	t.Helper()
	fn := n.Store().PutBlob(core.NativeFunctionBlob("hold"))
	tree, err := n.Store().PutTree(core.InvocationTree(core.DefaultLimits.Handle(), fn, blob))
	if err != nil {
		t.Fatal(err)
	}
	th, _ := core.Application(tree)
	enc, _ := core.Strict(th)
	return enc
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestFailoverReplacesDeadWorker is the node-level E2E pin: a client and
// two workers; the worker holding the client's delegated job is killed
// mid-flight; the eval must complete on the survivor, and the dead peer
// must leave both Peers() and the passive object view.
func TestFailoverReplacesDeadWorker(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	client := NewNode("client", hbOpts(NodeOptions{Cores: 1, ClientOnly: true}))
	w1 := NewNode("w1", hbOpts(NodeOptions{Cores: 2, Registry: holdRegistry("w1", started, release)}))
	w2 := NewNode("w2", hbOpts(NodeOptions{Cores: 2, Registry: holdRegistry("w2", started, release)}))
	workers := map[string]*Node{"w1": w1, "w2": w2}
	defer client.Close()
	defer w1.Close()
	defer w2.Close()

	// A marker object resident on each worker: Hello advertises it, so
	// the client's view has entries to purge on eviction.
	marker1 := w1.Store().PutBlob(bytes.Repeat([]byte{0xA1}, 100))
	marker2 := w2.Store().PutBlob(bytes.Repeat([]byte{0xA2}, 100))
	Connect(client, w1, fastLink())
	Connect(client, w2, fastLink())
	Connect(w1, w2, fastLink())

	waitFor(t, "markers in client view", func() bool {
		return len(client.ViewOwners(marker1)) == 1 && len(client.ViewOwners(marker2)) == 1
	})

	blob := client.Store().PutBlob(bytes.Repeat([]byte{7}, 128))
	client.AdvertiseAll()
	enc := holdJob(t, client, blob)

	type evalOut struct {
		data []byte
		err  error
	}
	out := make(chan evalOut, 1)
	go func() {
		data, err := client.EvalBlob(context.Background(), enc)
		out <- evalOut{data, err}
	}()

	// Kill whichever worker the job landed on, then let survivors run.
	victim := <-started
	workers[victim].Close()
	close(release)

	res := <-out
	if res.err != nil {
		t.Fatalf("eval after worker kill: %v", res.err)
	}
	if v, _ := core.DecodeU64(res.data); v != 128 {
		t.Fatalf("len = %d, want 128", v)
	}

	survivor := "w2"
	victimMarker := marker1
	if victim == "w2" {
		survivor, victimMarker = "w1", marker2
	}
	waitFor(t, "dead peer evicted from Peers()", func() bool {
		peers := client.Peers()
		return len(peers) == 1 && peers[0] == survivor
	})
	waitFor(t, "dead peer purged from object view", func() bool {
		return len(client.ViewOwners(victimMarker)) == 0
	})
	st := client.NetStats()
	if st.Evicted == 0 {
		t.Fatalf("NetStats.Evicted = 0, want ≥ 1 (%+v)", st)
	}
	if st.JobsReplaced == 0 {
		t.Fatalf("NetStats.JobsReplaced = 0, want ≥ 1 (%+v)", st)
	}
}

// TestFailoverReconnectReplacesStrandedDelegation: a worker whose host
// silently hangs (no FIN, link stays up) and whose restarted process
// redials under the same ID must not strand the old link's delegations.
// Replacing the peer fails them with PeerLostError so the scheduler
// re-places the job on a survivor.
func TestFailoverReconnectReplacesStrandedDelegation(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	client := NewNode("client", NodeOptions{Cores: 1, ClientOnly: true})
	w1 := NewNode("w1", NodeOptions{Cores: 2, Registry: holdRegistry("w1", started, release)})
	w2 := NewNode("w2", NodeOptions{Cores: 2, Registry: holdRegistry("w2", started, release)})
	defer client.Close()
	defer w1.Close()
	defer w2.Close()
	Connect(client, w1, fastLink())
	Connect(client, w2, fastLink())

	enc := holdJob(t, client, client.Store().PutBlob(bytes.Repeat([]byte{3}, 96)))
	out := make(chan error, 1)
	var got []byte
	go func() {
		res, err := client.EvalBlob(context.Background(), enc)
		got = res
		out <- err
	}()
	victim := <-started

	// The "restarted" victim redials under its old identity. Its old
	// node stays blocked in the job (a hung host): the old link is
	// never cleanly closed from the worker side.
	replacement := NewNode(victim, NodeOptions{Cores: 2, Registry: holdRegistry(victim+"-new", started, release)})
	defer replacement.Close()
	Connect(client, replacement, fastLink())

	// The stranded delegation must fail over to a survivor (the other
	// worker: re-placement excludes the ID the job died on).
	survivor := <-started
	if survivor == victim {
		t.Fatalf("re-placed job landed back on %s", survivor)
	}
	close(release)
	if err := <-out; err != nil {
		t.Fatalf("eval after reconnect: %v", err)
	}
	if v, _ := core.DecodeU64(got); v != 96 {
		t.Fatalf("len = %d, want 96", v)
	}
	if st := client.NetStats(); st.JobsReplaced == 0 {
		t.Fatalf("NetStats.JobsReplaced = 0, want ≥ 1 (%+v)", st)
	}
}

// TestFailoverLocalFallback: a non-client node whose only worker peer
// dies mid-delegation re-evaluates the job locally as a last resort.
func TestFailoverLocalFallback(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	// Node a's own "hold" implementation never blocks: the fallback run
	// must complete without the test releasing anything twice.
	regA := runtime.NewRegistry()
	regA.RegisterFunc("hold", func(api core.API, input core.Handle) (core.Handle, error) {
		entries, err := api.AttachTree(input)
		if err != nil {
			return core.Handle{}, err
		}
		b, err := api.AttachBlob(entries[2])
		if err != nil {
			return core.Handle{}, err
		}
		return api.CreateBlob(core.LiteralU64(uint64(len(b))).LiteralData()), nil
	})
	// The job's input lives on b (so placement prefers b) and in a
	// backing storage tier (so the local fallback can still fetch it
	// once b is dead).
	data := bytes.Repeat([]byte{5}, 777)
	tier, h := storedTier(t, data)
	a := NewNode("a", hbOpts(NodeOptions{Cores: 2, Registry: regA}))
	b := NewNode("b", hbOpts(NodeOptions{Cores: 2, Registry: holdRegistry("b", started, release)}))
	a.SetTier(tier, 0)
	b.SetTier(tier, 0)
	defer a.Close()
	defer b.Close()
	if err := b.Store().PutObject(h, data); err != nil {
		t.Fatal(err)
	}
	Connect(a, b, fastLink())
	// Placement prefers b only once a's view shows b holding the input.
	waitFor(t, "a to see b holding the input", func() bool {
		return slices.Contains(a.ViewOwners(h), "b")
	})

	enc := holdJob(t, a, h)
	out := make(chan error, 1)
	var got []byte
	go func() {
		res, err := a.EvalBlob(context.Background(), enc)
		got = res
		out <- err
	}()
	timeout := time.NewTimer(10 * time.Second)
	defer timeout.Stop()
	select {
	case v := <-started:
		if v != "b" {
			t.Fatalf("job started on %s, want b (locality placement)", v)
		}
	case err := <-out:
		t.Fatalf("eval returned (%v) before the job started on any worker", err)
	case <-timeout.C:
		t.Fatal("job not started on any worker within 10s")
	}
	b.Close()
	close(release)
	if err := <-out; err != nil {
		t.Fatalf("eval after losing the only worker: %v", err)
	}
	if v, _ := core.DecodeU64(got); v != 777 {
		t.Fatalf("len = %d, want 777", v)
	}
	st := a.NetStats()
	if st.JobsLocalFallback == 0 {
		t.Fatalf("NetStats.JobsLocalFallback = 0, want ≥ 1 (%+v)", st)
	}
}

// TestFailoverClientOnlyNoWorkers: a client-only node fails a job with
// ErrNoWorkers both when no worker was ever there and when the last
// worker dies mid-delegation.
func TestFailoverClientOnlyNoWorkers(t *testing.T) {
	t.Run("never had workers", func(t *testing.T) {
		client := NewNode("client", NodeOptions{Cores: 1, ClientOnly: true})
		defer client.Close()
		enc := lenJob(t, client, client.Store().PutBlob(bytes.Repeat([]byte{1}, 64)))
		_, err := client.Eval(context.Background(), enc)
		if !errors.Is(err, ErrNoWorkers) {
			t.Fatalf("err = %v, want ErrNoWorkers", err)
		}
	})
	t.Run("last worker dies mid-flight", func(t *testing.T) {
		started := make(chan string, 8)
		release := make(chan struct{})
		defer close(release)
		client := NewNode("client", hbOpts(NodeOptions{Cores: 1, ClientOnly: true}))
		w := NewNode("w", hbOpts(NodeOptions{Cores: 2, Registry: holdRegistry("w", started, release)}))
		defer client.Close()
		defer w.Close()
		Connect(client, w, fastLink())
		enc := holdJob(t, client, core.LiteralU64(1))
		out := make(chan error, 1)
		go func() {
			_, err := client.Eval(context.Background(), enc)
			out <- err
		}()
		<-started
		w.Close()
		err := <-out
		if !errors.Is(err, ErrNoWorkers) {
			t.Fatalf("err = %v, want wrapped ErrNoWorkers", err)
		}
		st := client.NetStats()
		if st.ReplaceFailures == 0 {
			t.Fatalf("NetStats.ReplaceFailures = 0 (%+v)", st)
		}
	})
}

// TestFailoverHeartbeatEvictsPartitionedPeer: a one-way partition (b's
// sends blackholed) must get b evicted on a — the deaf side — by the
// heartbeat timeout, while b (which still hears a) keeps the link until
// a's eviction closes it.
func TestFailoverHeartbeatEvictsPartitionedPeer(t *testing.T) {
	a := NewNode("a", hbOpts(NodeOptions{Cores: 1}))
	b := NewNode("b", hbOpts(NodeOptions{Cores: 1}))
	defer a.Close()
	defer b.Close()

	pa, pb := transport.Pipe(fastLink())
	cb := transport.Chaos(pb, transport.ChaosConfig{})
	a.AttachPeer(pa)
	b.AttachPeer(cb)
	waitPeer(a, "b")
	waitPeer(b, "a")

	cb.Partition() // b goes silent toward a; a→b stays healthy
	waitFor(t, "a to evict b", func() bool { return len(a.Peers()) == 0 })
	st := a.NetStats()
	if st.Evicted != 1 {
		t.Fatalf("a evicted %d peers, want 1", st.Evicted)
	}
	if st.HeartbeatsSent == 0 {
		t.Fatal("no heartbeats were sent")
	}
	// a's eviction closed the shared link, so b loses a too.
	waitFor(t, "b to drop the closed link", func() bool { return len(b.Peers()) == 0 })
}

// TestFailoverCloseRecvRace is the Close-vs-recvLoop shutdown pin: nodes
// are closed while peers are mid-broadcast and mid-eval. Run under
// -race; the test fails on panic, data race, or deadlock (every Eval
// must return).
func TestFailoverCloseRecvRace(t *testing.T) {
	reg := countRegistry()
	for round := 0; round < 4; round++ {
		nodes := make([]*Node, 4)
		for i := range nodes {
			nodes[i] = NewNode(fmt.Sprintf("n%d", i), NodeOptions{
				Cores:             2,
				Registry:          reg,
				Seed:              int64(round),
				HeartbeatInterval: 5 * time.Millisecond,
				HeartbeatTimeout:  50 * time.Millisecond,
			})
		}
		blobs := make([]core.Handle, len(nodes))
		for i, n := range nodes {
			blobs[i] = n.Store().PutBlob(bytes.Repeat([]byte{byte(i)}, 200+i))
		}
		FullMesh(fastLink(), nodes...)

		stop := make(chan struct{})
		var wg sync.WaitGroup
		// Evaluators: nodes 0 and 1 submit jobs against every node's blob.
		for _, idx := range []int{0, 1} {
			wg.Add(1)
			go func(n *Node) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
					enc := lenJob(t, n, blobs[i%len(blobs)])
					_, _ = n.EvalBlob(ctx, enc) // errors are expected once peers die
					cancel()
				}
			}(nodes[idx])
		}
		// Broadcasters: keep Advertise traffic in flight during closes.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, n := range nodes {
					n.AdvertiseAll()
				}
			}
		}()

		time.Sleep(20 * time.Millisecond)
		// Close every node concurrently, mid-traffic.
		var closers sync.WaitGroup
		for _, n := range nodes {
			closers.Add(1)
			go func(n *Node) { defer closers.Done(); n.Close() }(n)
		}
		closers.Wait()
		close(stop)

		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("deadlock: workers did not return after Close")
		}
	}
}

// stalledLink is a peer that says Hello, keeps sending Pongs (so it is
// never silent), and stops draining its side at the first frame of type
// stallOn: that Send and every later one block until Close. Only the
// stalled heartbeat send can get it evicted.
type stalledLink struct {
	hello   []byte
	pong    []byte
	stallOn byte
	stalled atomic.Bool
	frames  atomic.Int32 // frames of type stallOn sent to the link
	closed  chan struct{}
	once    sync.Once
}

func newStalledLink(id string, stallOn byte, adverts []core.Handle) *stalledLink {
	return &stalledLink{
		hello:   (&proto.Message{Type: proto.TypeHello, From: id, Role: proto.RoleWorker, Adverts: adverts}).Encode(),
		pong:    (&proto.Message{Type: proto.TypePong, From: id}).Encode(),
		stallOn: stallOn,
		closed:  make(chan struct{}),
	}
}

func (l *stalledLink) Send(msg []byte) error {
	if len(msg) > 0 && msg[0] == l.stallOn {
		l.frames.Add(1)
		l.stalled.Store(true)
	}
	if l.stalled.Load() {
		<-l.closed
		return transport.ErrClosed
	}
	return nil
}

// Recv is called only by the node's receive loop.
func (l *stalledLink) Recv() ([]byte, error) {
	if h := l.hello; h != nil {
		l.hello = nil
		return h, nil
	}
	select {
	case <-l.closed:
		return nil, transport.ErrClosed
	case <-time.After(time.Millisecond):
		return bytes.Clone(l.pong), nil
	}
}

func (l *stalledLink) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

// TestFailoverHeartbeatCountsStartedPings: HeartbeatsSent counts the
// pings the loop starts. A peer whose first ping never leaves Send gets
// no second one, and its eviction after the timeout counts once.
func TestFailoverHeartbeatCountsStartedPings(t *testing.T) {
	n := NewNode("a", NodeOptions{Cores: 1, HeartbeatInterval: 5 * time.Millisecond})
	defer n.Close()
	link := newStalledLink("stuck", proto.TypePing, nil)
	n.AttachPeer(link)
	waitFor(t, "a to evict the stalled peer", func() bool { return n.NetStats().Evicted == 1 })
	if st := n.NetStats(); st.HeartbeatsSent != 1 || st.Evicted != 1 || link.frames.Load() != 1 {
		t.Fatalf("heartbeats sent %d, evicted %d, pings reaching the link %d; want 1, 1, 1",
			st.HeartbeatsSent, st.Evicted, link.frames.Load())
	}
}

// TestFailoverStalledSendReplacesDelegation: a delegation stuck in Send to
// a peer that stopped draining is released when the stalled heartbeat
// send gets the peer evicted; it fails with PeerLostError, is placed
// again on the live worker, and Eval returns the right answer.
func TestFailoverStalledSendReplacesDelegation(t *testing.T) {
	client := NewNode("client", NodeOptions{Cores: 1, ClientOnly: true,
		HeartbeatInterval: 5 * time.Millisecond, HeartbeatTimeout: 40 * time.Millisecond})
	w := NewNode("w", NodeOptions{Cores: 2, Registry: countRegistry()})
	defer client.Close()
	defer w.Close()
	Connect(client, w, fastLink())

	blob := client.Store().PutBlob(bytes.Repeat([]byte{7}, 3000))
	fn := client.Store().PutBlob(core.NativeFunctionBlob("len"))
	tree, err := client.Store().PutTree(core.InvocationTree(core.DefaultLimits.Handle(), fn, blob))
	if err != nil {
		t.Fatal(err)
	}
	th, _ := core.Application(tree)
	enc, _ := core.Strict(th)
	// The stalled peer advertises the job's whole closure, so the placer
	// prices it below w and ships the job there first.
	link := newStalledLink("stuck", proto.TypeJob, []core.Handle{blob, fn, tree})
	client.AttachPeer(link)
	waitPeer(client, "stuck")

	res, err := client.Eval(context.Background(), enc)
	if err != nil {
		t.Fatal(err)
	}
	if res != core.LiteralU64(3000) {
		t.Fatalf("Eval = %v, want the literal 3000", res)
	}
	st := client.NetStats()
	if st.Evicted != 1 || st.JobsReplaced != 1 || link.frames.Load() != 1 {
		t.Fatalf("evicted %d, jobs replaced %d, jobs sent to the stalled peer %d; want 1, 1, 1",
			st.Evicted, st.JobsReplaced, link.frames.Load())
	}
}
