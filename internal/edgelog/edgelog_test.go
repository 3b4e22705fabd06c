package edgelog

import (
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fixgo/internal/core"
	"fixgo/internal/proto"
	"fixgo/internal/transport"
)

// testHandle builds a distinct strict-encode handle per index, the shape
// the gateway submits.
func testHandle(i int) core.Handle {
	tree := core.TreeHandle([]core.Handle{core.LiteralU64(uint64(i))})
	thunk, err := core.Application(tree)
	if err != nil {
		panic(err)
	}
	enc, err := core.Strict(thunk)
	if err != nil {
		panic(err)
	}
	return enc
}

func newTestReplicator(t *testing.T, id string, opts Options) *Replicator {
	t.Helper()
	opts.ID = id
	if opts.HeartbeatInterval == 0 {
		opts.HeartbeatInterval = 20 * time.Millisecond
	}
	if opts.HeartbeatTimeout == 0 {
		opts.HeartbeatTimeout = 300 * time.Millisecond
	}
	if opts.AckTimeout == 0 {
		opts.AckTimeout = 2 * time.Second
	}
	r, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })
	return r
}

// connect fully meshes two replicators over an in-memory pipe and
// returns one endpoint (closing it kills both directions — the crash
// simulation the failover tests use).
func connect(a, b *Replicator) transport.Conn {
	ca, cb := transport.Pipe(transport.LinkConfig{Latency: 200 * time.Microsecond})
	a.AttachPeer(ca)
	b.AttachPeer(cb)
	return ca
}

func waitUntil(t *testing.T, what string, cond func() bool) {
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

// foldAll applies entries to a replicator's table in the given order,
// bypassing the wire (white-box: the fold is the property under test).
func foldAll(r *Replicator, entries []Entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range entries {
		r.foldLocked(e)
	}
}

func tableOf(r *Replicator) map[string]Entry {
	out := make(map[string]Entry)
	for _, e := range r.Entries() {
		e.adopted = false
		// Replication round-trips At through Unix nanoseconds; normalize
		// the local copy's monotonic reading away so == is meaningful.
		e.At = time.Unix(0, e.At.UnixNano())
		out[e.Job] = e
	}
	return out
}

// TestEdgeFoldOrderingDeterminism is the quorum-append ordering
// property: the fold is commutative, so any arrival order of the same
// append set — replication races, snapshot replays, duplicated
// deliveries — converges every replica to an identical table.
func TestEdgeFoldOrderingDeterminism(t *testing.T) {
	base := time.Unix(0, 1_700_000_000_000_000_000)
	var entries []Entry
	for job := 0; job < 12; job++ {
		h := testHandle(job)
		id := fmt.Sprintf("job-%02d", job)
		entries = append(entries, Entry{Job: id, Origin: "gw-a", Tenant: "acme", State: EntryAccepted, At: base, Handle: h})
		switch job % 4 {
		case 0:
			entries = append(entries, Entry{Job: id, Origin: "gw-b", Tenant: "acme", State: EntryDone, At: base.Add(time.Second), Handle: h, Result: core.LiteralU64(uint64(job))})
		case 1:
			entries = append(entries, Entry{Job: id, Origin: "gw-a", Tenant: "acme", State: EntryCancelled, At: base.Add(time.Second), Handle: h})
		case 2:
			entries = append(entries, Entry{Job: id, Origin: "gw-a", Tenant: "acme", State: EntryDeadLetter, At: base.Add(time.Second), Handle: h})
			// A racing done report outranks the dead-letter.
			entries = append(entries, Entry{Job: id, Origin: "gw-c", Tenant: "acme", State: EntryDone, At: base.Add(2 * time.Second), Handle: h, Result: core.LiteralU64(uint64(job))})
		}
	}

	ref := newTestReplicator(t, "ref", Options{})
	foldAll(ref, entries)
	want := tableOf(ref)

	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		shuffled := append([]Entry(nil), entries...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		// Duplicate a random prefix to model redelivery via snapshots.
		shuffled = append(shuffled, shuffled[:rng.Intn(len(shuffled))]...)
		r := newTestReplicator(t, fmt.Sprintf("trial-%d", trial), Options{})
		foldAll(r, shuffled)
		got := tableOf(r)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d entries, want %d", trial, len(got), len(want))
		}
		for job, w := range want {
			if g := got[job]; !reflect.DeepEqual(g, w) {
				t.Fatalf("trial %d: job %s diverged:\n got %+v\nwant %+v", trial, job, g, w)
			}
		}
	}
}

// TestEdgeDuplicateTakeoverIdempotent pins the adopted flag: a peer
// death signalled more than once (link EOF plus heartbeat timeout, or a
// flap) dispatches each undrained job's takeover exactly once.
func TestEdgeDuplicateTakeoverIdempotent(t *testing.T) {
	var mu sync.Mutex
	dispatched := map[string]int{}
	r := newTestReplicator(t, "gw-a", Options{
		HeartbeatInterval: time.Hour, // drive death signals by hand
		Takeover: func(tenant string, h core.Handle, _ []proto.PushedObject) {
			mu.Lock()
			dispatched[tenant+"/"+h.String()]++
			mu.Unlock()
		},
	})
	r.mu.Lock()
	r.touchLocked("gw-b")
	for i := 0; i < 4; i++ {
		r.foldLocked(Entry{
			Job: fmt.Sprintf("job-%d", i), Origin: "gw-b", Tenant: "acme",
			State: EntryAccepted, At: time.Now(), Handle: testHandle(i),
		})
	}
	// One already-settled job must never be adopted.
	r.foldLocked(Entry{
		Job: "job-done", Origin: "gw-b", Tenant: "acme",
		State: EntryDone, At: time.Now(), Handle: testHandle(99), Result: core.LiteralU64(7),
	})
	r.mu.Unlock()

	r.peerDown("gw-b")
	r.peerDown("gw-b") // duplicate death signal: no-op (already dead)

	// Flap: the peer rejoins under the same ID, then dies again. The
	// adopted flag must survive the revival.
	r.mu.Lock()
	r.touchLocked("gw-b")
	r.mu.Unlock()
	r.peerDown("gw-b")

	mu.Lock()
	defer mu.Unlock()
	if len(dispatched) != 4 {
		t.Fatalf("dispatched %d distinct jobs, want 4: %v", len(dispatched), dispatched)
	}
	for k, n := range dispatched {
		if n != 1 {
			t.Fatalf("job %s dispatched %d times, want exactly once", k, n)
		}
	}
	if st := r.Stats(); st.Adopted != 4 || st.Takeovers != 2 {
		t.Fatalf("stats: adopted=%d takeovers=%d, want 4 and 2", st.Adopted, st.Takeovers)
	}
}

// TestEdgeMembershipFlap kills a peer mid-membership and rejoins it
// under the same gateway ID: the survivor adopts the undrained job on
// death, revives the same membership slot on rejoin (no ghost members),
// and does not re-dispatch the adoption after the flap.
func TestEdgeMembershipFlap(t *testing.T) {
	var mu sync.Mutex
	adopted := 0
	a := newTestReplicator(t, "gw-a", Options{
		Takeover: func(string, core.Handle, []proto.PushedObject) { mu.Lock(); adopted++; mu.Unlock() },
	})
	b := newTestReplicator(t, "gw-b", Options{})
	link := connect(a, b)

	// b accepts a job; the quorum wait means a holds it when this returns.
	b.Accepted("job-flap", "acme", testHandle(1), nil)
	waitUntil(t, "a replicated the entry", func() bool { return a.Stats().Entries == 1 })

	// Crash b's link: a must declare b dead and adopt.
	_ = link.Close()
	waitUntil(t, "a adopted after the crash", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return adopted == 1
	})
	if st := a.Stats(); st.Members != 1 || st.Live != 0 {
		t.Fatalf("after crash: members=%d live=%d, want 1/0", st.Members, st.Live)
	}

	// Rejoin under the same gateway ID on a fresh link (the restarted
	// process): the slot revives, no new member appears, and the hello
	// snapshot state-transfers the table back.
	b2 := newTestReplicator(t, "gw-b", Options{})
	connect(a, b2)
	waitUntil(t, "membership revived", func() bool {
		st := a.Stats()
		return st.Members == 1 && st.Live == 1
	})
	waitUntil(t, "snapshot reached the rejoined peer", func() bool { return b2.Stats().Entries == 1 })

	// A second flap must not re-adopt the same job.
	b2.Close()
	waitUntil(t, "a saw the clean leave", func() bool { return a.Stats().Live == 0 })
	mu.Lock()
	defer mu.Unlock()
	if adopted != 1 {
		t.Fatalf("job adopted %d times across the flap, want exactly once", adopted)
	}
}

// TestEdgeSnapshotRestoresPeerEntries: a replicator with an empty table
// (a restarted gateway, which keeps no edge file) relearns a peer's
// entries from that peer's Hello snapshot, payload included, and when the
// entries' origin dies, each undrained job is adopted by exactly one of
// the two survivors.
func TestEdgeSnapshotRestoresPeerEntries(t *testing.T) {
	const jobs = 8
	var mu sync.Mutex
	adopted := map[string][]string{} // handle → adopters
	takeover := func(id string) func(string, core.Handle, []proto.PushedObject) {
		return func(_ string, h core.Handle, payload []proto.PushedObject) {
			mu.Lock()
			defer mu.Unlock()
			if len(payload) != 1 {
				t.Errorf("%s adopted %v with %d payload objects, want 1", id, h, len(payload))
			}
			adopted[h.String()] = append(adopted[h.String()], id)
		}
	}
	b := newTestReplicator(t, "gw-b", Options{Takeover: takeover("gw-b")})
	c := newTestReplicator(t, "gw-c", Options{})
	cb := connect(c, b)
	// Job IDs are hex digests, like jobs.JobID's: rendezvous hashing
	// splits short, similar IDs such as "job-1" unevenly.
	for i := 0; i < jobs; i++ {
		payload := []proto.PushedObject{{Handle: core.BlobHandle([]byte{byte(i)}), Data: []byte{byte(i)}}}
		c.Accepted(testHandle(i).String(), "acme", testHandle(i), payload)
	}
	waitUntil(t, "b holds c's entries", func() bool { return b.Stats().Undrained == jobs })

	a := newTestReplicator(t, "gw-a", Options{Takeover: takeover("gw-a")})
	connect(a, b)
	waitUntil(t, "a folded b's snapshot", func() bool { return a.Stats().Undrained == jobs })
	for _, e := range a.Entries() {
		if e.Origin != "gw-c" || e.State != EntryAccepted || len(e.Objects) != 1 {
			t.Fatalf("snapshot entry %s: origin %s, state %d, %d objects; want gw-c, accepted, 1",
				e.Job, e.Origin, e.State, len(e.Objects))
		}
	}

	// a learns that c is live, then c crashes: both links drop.
	ca := connect(c, a)
	waitUntil(t, "a sees c live", func() bool { return a.Stats().Live == 2 })
	_ = cb.Close()
	_ = ca.Close()
	waitUntil(t, "every job adopted", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(adopted) == jobs
	})
	time.Sleep(50 * time.Millisecond) // room for a duplicate adoption to show
	mu.Lock()
	defer mu.Unlock()
	byA := 0
	for h, ids := range adopted {
		if len(ids) != 1 {
			t.Fatalf("job %s adopted by %v, want exactly one gateway", h, ids)
		}
		if ids[0] == "gw-a" {
			byA++
		}
	}
	if byA == 0 || byA == jobs {
		t.Fatalf("gw-a adopted %d of %d jobs; want both survivors designated for some", byA, jobs)
	}
}

// TestEdgeQuorumAppend pins both halves of the quorum contract: with a
// responsive peer the append returns on the majority ack (well under
// the timeout), and with a silent peer it falls back after AckTimeout,
// counting the degradation.
func TestEdgeQuorumAppend(t *testing.T) {
	a := newTestReplicator(t, "gw-a", Options{})
	b := newTestReplicator(t, "gw-b", Options{})
	connect(a, b)
	waitUntil(t, "peers live", func() bool { return a.Stats().Live == 1 && b.Stats().Live == 1 })

	start := time.Now()
	a.Accepted("job-quick", "acme", testHandle(1), nil)
	if took := time.Since(start); took > time.Second {
		t.Fatalf("quorum append took %v with a live peer", took)
	}
	st := a.Stats()
	if st.QuorumTimeouts != 0 {
		t.Fatalf("unexpected quorum timeout with a live peer: %+v", st)
	}
	if st.AcksReceived == 0 {
		t.Fatalf("no acks received: %+v", st)
	}

	// A silent peer: registered live, but never acking (the far pipe end
	// is drained by nobody). The append must fall back after AckTimeout.
	c := newTestReplicator(t, "gw-c", Options{AckTimeout: 80 * time.Millisecond, HeartbeatInterval: time.Hour})
	raw, _ := transport.Pipe(transport.LinkConfig{})
	c.AttachPeer(raw)
	c.mu.Lock()
	c.touchLocked("gw-silent")
	c.mu.Unlock()
	start = time.Now()
	c.Accepted("job-stuck", "acme", testHandle(2), nil)
	if took := time.Since(start); took < 80*time.Millisecond {
		t.Fatalf("append returned in %v, before the ack timeout", took)
	}
	if st := c.Stats(); st.QuorumTimeouts != 1 {
		t.Fatalf("quorum timeouts = %d, want 1", st.QuorumTimeouts)
	}
}

// TestEdgeConvergence runs concurrent appends from both sides and
// requires the two tables to converge to identical folded state.
func TestEdgeConvergence(t *testing.T) {
	a := newTestReplicator(t, "gw-a", Options{})
	b := newTestReplicator(t, "gw-b", Options{})
	connect(a, b)
	waitUntil(t, "peers live", func() bool { return a.Stats().Live == 1 && b.Stats().Live == 1 })

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := testHandle(i)
			job := fmt.Sprintf("job-%d", i)
			if i%2 == 0 {
				a.Accepted(job, "acme", h, nil)
				a.Settled(job, "acme", EntryDone, h, core.LiteralU64(uint64(i)))
			} else {
				b.Accepted(job, "acme", h, nil)
			}
		}(i)
	}
	wg.Wait()
	waitUntil(t, "tables converged", func() bool {
		ta, tb := tableOf(a), tableOf(b)
		if len(ta) != 8 || len(tb) != 8 {
			return false
		}
		for k, v := range ta {
			if !reflect.DeepEqual(tb[k], v) {
				return false
			}
		}
		return true
	})
}

// stalledConn is a peer that completes the handshake and then stops
// draining its socket: Recv delivers one hello and the first Send (this
// side's hello) goes through; after that both block until Close.
type stalledConn struct {
	hello  []byte
	recvd  atomic.Bool
	sent   atomic.Bool
	closed chan struct{}
	once   sync.Once
}

func (c *stalledConn) Send([]byte) error {
	if c.sent.CompareAndSwap(false, true) {
		return nil
	}
	<-c.closed
	return io.ErrClosedPipe
}

func (c *stalledConn) Recv() ([]byte, error) {
	if c.recvd.CompareAndSwap(false, true) {
		return c.hello, nil
	}
	<-c.closed
	return nil, io.EOF
}

func (c *stalledConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// TestEdgeStalledPeerCannotWedge: a peer whose link stops draining
// blocks neither an Accepted append nor the heartbeat that expires it.
// The stuck ping drops the link after HeartbeatTimeout, and closing it
// releases the append's stuck Send.
func TestEdgeStalledPeerCannotWedge(t *testing.T) {
	r := newTestReplicator(t, "gw-a", Options{AckTimeout: 50 * time.Millisecond})
	conn := &stalledConn{
		hello:  (&proto.Message{Type: proto.TypeEdgeHello, From: "gw-stalled"}).Encode(),
		closed: make(chan struct{}),
	}
	// Runs before r's Close (cleanups are LIFO), so a wedged build fails
	// this test instead of hanging the package.
	t.Cleanup(func() { conn.Close() })
	r.AttachPeer(conn)
	waitUntil(t, "stalled peer live", func() bool { return r.Stats().Live == 1 })

	done := make(chan struct{})
	go func() {
		r.Accepted("job-stalled", "acme", testHandle(1), nil)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Accepted still blocked on a stalled peer after 10s")
	}
	waitUntil(t, "stalled peer expired", func() bool { return r.Stats().Live == 0 })
}
