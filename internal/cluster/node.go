// Package cluster implements the distributed Fixpoint execution engine of
// section 4.2: nodes that exchange Fix objects and delegate jobs over
// transport links, each running an independent dataflow-aware scheduler.
//
// There is no centralized scheduler. Each node keeps a passive "view" of
// which objects exist on which peers (an objstore.ReplicaTracker): on
// connect, nodes exchange lists of locally resident objects; thereafter
// the view advances as objects and results move. Given an Encode to
// force, the local scheduler walks the job's definition closure,
// estimates the bytes that would have to move to each candidate node
// (including the hinted output size), and delegates to the cheapest — or
// runs locally when it already is the cheapest.
//
// Object lookup is two-tiered. Every node also derives a consistent-hash
// ring (objstore.Ring) over the live worker membership; with
// NodeOptions.Replicas R > 1, each write is synchronously stored at the
// writer and asynchronously pushed to R−1 ring successors, the fetcher
// consults the ring's owner list before the passive view, and peer
// eviction triggers an anti-entropy repair pass that re-replicates
// under-replicated objects onto the ring's new successors (replicate.go).
// The passive view remains the fallback for objects written before
// replication was enabled or not yet migrated onto the ring.
package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"fixgo/internal/core"
	"fixgo/internal/objstore"
	"fixgo/internal/obsv"
	"fixgo/internal/proto"
	"fixgo/internal/runtime"
	"fixgo/internal/stats"
	"fixgo/internal/store"
	"fixgo/internal/transport"
)

// NodeOptions configures a cluster node.
type NodeOptions struct {
	// Cores, MemoryBytes, InternalIO, OversubscribeCores and Registry are
	// passed through to the node's runtime engine.
	Cores              int
	MemoryBytes        uint64
	InternalIO         bool
	OversubscribeCores int
	Registry           *runtime.Registry
	// NoLocality is the Fig. 8b ablation: placement ignores the view and
	// picks uniformly at random.
	NoLocality bool
	// ClientOnly marks a node that submits jobs and serves objects but
	// never executes placements (the experiment "client").
	ClientOnly bool
	// Seed makes NoLocality placement deterministic.
	Seed int64
	// HeartbeatInterval enables failure detection: every interval the
	// node pings each peer and evicts peers not heard from within
	// HeartbeatTimeout. Zero disables heartbeats (peers are then evicted
	// only on receive-loop errors, i.e. hard link closes).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is the silence window after which a peer is
	// declared dead (default 4×HeartbeatInterval). Any received message
	// counts as liveness, not just Pongs.
	HeartbeatTimeout time.Duration
	// Replicas is the replication factor R: every write (PutBlob,
	// PutTree, eval outputs) is stored synchronously at the writer and
	// pushed asynchronously to R−1 consistent-hash ring successors, so
	// the object survives the loss of any R−1 holders. 1 (the default)
	// disables replication — the writer's copy is the only copy.
	Replicas int
}

func (o NodeOptions) withDefaults() NodeOptions {
	if o.HeartbeatInterval > 0 && o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 4 * o.HeartbeatInterval
	}
	if o.Replicas <= 0 {
		o.Replicas = 1
	}
	return o
}

const (
	// maxHops bounds the delegation depth of a dataflow. Each level of a
	// job tree may hop once, and a received Encode is forced where it
	// lands (runtime.Engine.ForceHere), so this is a runaway guard, not a
	// tuning knob.
	maxHops = 256
	// pushLimit is the largest Blob shipped inside a Job message; larger
	// dependencies are fetched on demand.
	pushLimit = 4096
	// maxReplacements bounds how many times a delegated job is re-placed
	// after losing its worker before the node gives up (runs the job
	// locally, or fails it when ClientOnly).
	maxReplacements = 3
)

// ErrNoWorkers reports that a placement found no live worker peer and
// the node cannot run the job itself (ClientOnly). A gateway fronting
// the cluster maps it to 503 Service Unavailable.
var ErrNoWorkers = errors.New("cluster: no live worker peers")

// ErrNodeClosed reports an operation on a node after Close.
var ErrNodeClosed = errors.New("cluster: node closed")

// errPeerGone is the cause of a delegation to a peer that left the
// membership between placement and send.
var errPeerGone = errors.New("peer left before the job was sent")

// PeerLostError reports a delegation interrupted by the death of the
// peer it was parked on; the scheduler reacts by re-placing the job.
type PeerLostError struct {
	// Peer is the dead peer's node identifier.
	Peer string
	// Cause is the failure that evicted the peer (receive error,
	// heartbeat timeout, or send failure).
	Cause error
}

// Error renders the lost peer and the eviction cause.
func (e *PeerLostError) Error() string {
	return fmt.Sprintf("cluster: peer %s lost: %v", e.Peer, e.Cause)
}

// Unwrap exposes the eviction cause.
func (e *PeerLostError) Unwrap() error { return e.Cause }

// NetStats is a node's failure-handling and delegation counters,
// surfaced by the gateway at /v1/stats and /metrics.
type NetStats struct {
	// Peers is the current live peer count.
	Peers int `json:"peers"`
	// Evicted counts peers removed on link error or heartbeat timeout.
	Evicted uint64 `json:"evicted"`
	// JobsDelegated counts jobs shipped to peers.
	JobsDelegated uint64 `json:"jobs_delegated"`
	// JobsReplaced counts delegations re-placed after their worker died.
	JobsReplaced uint64 `json:"jobs_replaced"`
	// JobsLocalFallback counts jobs evaluated locally as a last resort
	// after delegation failed.
	JobsLocalFallback uint64 `json:"jobs_local_fallback"`
	// ReplaceFailures counts jobs that could not be re-placed at all
	// (no surviving candidate, or the attempt bound was exhausted on a
	// ClientOnly node).
	ReplaceFailures uint64 `json:"replace_failures"`
	// Replicas is the configured replication factor R (1 = replication
	// off).
	Replicas int `json:"replicas"`
	// RingMembers is the current consistent-hash ring size: live worker
	// peers, plus this node unless it is client-only.
	RingMembers int `json:"ring_members"`
	// ReplicasSent counts Replicate pushes for fresh writes.
	ReplicasSent uint64 `json:"replicas_sent"`
	// ReplicasAcked counts ReplicateAck confirmations received — for
	// write and repair pushes alike (the ack carries no origin marker),
	// so the backlog gauge is ReplicasSent+RepairReplicasSent minus
	// ReplicasAcked.
	ReplicasAcked uint64 `json:"replicas_acked"`
	// RepairPasses counts anti-entropy passes triggered by membership
	// changes.
	RepairPasses uint64 `json:"repair_passes"`
	// RepairReplicasSent counts Replicate pushes sent by repair passes
	// to re-establish R copies after a holder was lost.
	RepairReplicasSent uint64 `json:"repair_replicas_sent"`
}

// Node is one Fixpoint instance in a distributed deployment.
type Node struct {
	id   string
	opts NodeOptions
	st   *store.Store
	eng  *runtime.Engine
	tier tierState // the spill tier and its demotion bookkeeping; counters live even with no tier
	// tracer, when set by SetTracer, records delegated jobs that arrive
	// with a trace ID; nil disables worker-side recording.
	tracer *obsv.Tracer

	done chan struct{} // closed by Close; stops the heartbeat and demote loops

	mu      sync.Mutex
	peers   map[string]*peer
	targets []string                 // placement candidates, sorted: worker peers, plus this node unless client-only
	workers map[string]*peer         // the worker peers among targets
	view    *objstore.ReplicaTracker // passive object view: key → believed holders
	ring    *objstore.Ring           // consistent-hash placement ring over live members
	fetchW  map[core.Handle]*fetchWait
	jobW    map[core.Handle]*jobWaiter // one outstanding delegation per Encode: the engine offers each once at a time
	pending map[string]int             // peer id → our delegations in flight there (scheduling load)
	rng     *rand.Rand
	closed  bool
	net     NetStats // counters only; Peers is filled at snapshot time
}

type peer struct {
	id       string
	role     byte
	conn     transport.Conn
	sendMu   sync.Mutex
	scratch  []byte       // encode scratch, guarded by sendMu
	lastSeen atomic.Int64 // UnixNano of the last received message

	// Heartbeat-send state: pings go out on a goroutine so one stalled
	// link cannot block failure detection for every other peer.
	pingBusy  atomic.Bool
	pingStart atomic.Int64 // UnixNano the in-flight ping send began
}

// maxSendScratch caps the encode scratch a peer retains between sends;
// a single huge Object push must not pin its buffer on the peer forever.
const maxSendScratch = 1 << 20

// send serializes one message onto the link. Every transport.Conn.Send
// implementation finishes with the buffer before returning (mem copies,
// tcp writes through), so the encode scratch is reusable across sends —
// sendMu already serializes them.
func (p *peer) send(m *proto.Message) error {
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	buf := m.AppendEncode(p.scratch[:0])
	if cap(buf) <= maxSendScratch {
		p.scratch = buf
	}
	return p.conn.Send(buf)
}

type fetchWait struct {
	done chan struct{}
	miss chan string
	data []byte // the fetched bytes, set before done closes on success
	err  error
}

type jobResult struct {
	result core.Handle
	evalNS int64 // the worker's eval wall time, from the Result header
	err    error
}

// jobWaiter is one outstanding delegation: the channel its Offload call
// waits on, pinned to the peer the job was shipped to so eviction can
// fail exactly the delegations parked on the dead node. Whoever takes a
// waiter out of jobW (a Result, an eviction, Close) makes its one
// delivery; once delivered, the waiter may be recycled.
type jobWaiter struct {
	ch     chan jobResult // buffered (cap 1); at most one delivery
	peerID string
}

// waiterPool recycles jobWaiters with their channels. A waiter goes back
// only once its delegate call has received its delivery; one abandoned
// on cancellation or a send failure may still be delivered to, and is
// left to the collector.
var waiterPool = sync.Pool{New: func() any { return &jobWaiter{ch: make(chan jobResult, 1)} }}

// NewNode creates a node with the given identifier.
func NewNode(id string, opts NodeOptions) *Node {
	opts = opts.withDefaults()
	n := &Node{
		id:      id,
		opts:    opts,
		st:      store.New(),
		done:    make(chan struct{}),
		peers:   make(map[string]*peer),
		view:    objstore.NewReplicaTracker(),
		fetchW:  make(map[core.Handle]*fetchWait),
		jobW:    make(map[core.Handle]*jobWaiter),
		pending: make(map[string]int),
		rng:     rand.New(rand.NewSource(opts.Seed ^ int64(fnvHash(id)))),
	}
	n.tier.lastTouch = make(map[core.Handle]time.Time)
	n.rebuildRingLocked()
	n.eng = runtime.New(n.st, runtime.Options{
		Cores:              opts.Cores,
		MemoryBytes:        opts.MemoryBytes,
		InternalIO:         opts.InternalIO,
		OversubscribeCores: opts.OversubscribeCores,
		Registry:           opts.Registry,
		Fetcher:            &clusterFetcher{n: n},
		Delegator:          n,
	})
	if opts.HeartbeatInterval > 0 {
		go n.heartbeatLoop()
	}
	return n
}

// ID returns the node identifier.
func (n *Node) ID() string { return n.id }

// Store returns the node's runtime storage.
func (n *Node) Store() *store.Store { return n.st }

// Engine returns the node's execution engine.
func (n *Node) Engine() *runtime.Engine { return n.eng }

// Stats returns the node's CPU-state collector.
func (n *Node) Stats() *stats.Collector { return n.eng.Stats() }

// SetTracer gives the node a local trace ring: delegated jobs arriving
// with a trace ID in their Job header are recorded under that same ID
// (eval span, outcome), so a worker's -debug-addr can answer "what did
// the gateway's trace abc do here". Without one, spans still flow back
// to the delegator in the Result header's EvalNS field. The registry
// owning the tracer's stage histogram (NewNodeMetrics) needs the node
// first, hence a setter; like SetTier, it must be called before the
// node serves peers or jobs, since serveJob reads the tracer unlocked.
func (n *Node) SetTracer(tr *obsv.Tracer) { n.tracer = tr }

// Eval evaluates a Fix object, with the distributed scheduler free to
// place work anywhere in the cluster.
func (n *Node) Eval(ctx context.Context, h core.Handle) (core.Handle, error) {
	return n.eng.Eval(withHops(ctx, 0), h)
}

// EvalBlob evaluates h and fetches the resulting Blob's contents.
func (n *Node) EvalBlob(ctx context.Context, h core.Handle) ([]byte, error) {
	return n.eng.EvalBlob(withHops(ctx, 0), h)
}

// Close shuts down all peer links, stops the heartbeat loop, and fails
// every outstanding delegation and fetch wait with ErrNodeClosed so no
// Eval blocked on a peer hangs forever. Close is idempotent and safe to
// call while receive loops and broadcasts are in flight.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	close(n.done)
	peers := make([]*peer, 0, len(n.peers))
	for _, p := range n.peers {
		peers = append(peers, p)
	}
	// Clear the peer map so the recv loops' subsequent evictPeer calls
	// no-op: a clean shutdown is not an eviction and must not inflate
	// the Evicted counter (or leave NetStats().Peers nonzero).
	n.peers = make(map[string]*peer)
	n.targets, n.workers = nil, nil
	var lost []*jobWaiter
	for enc, w := range n.jobW {
		lost = append(lost, w)
		delete(n.jobW, enc)
	}
	var waits []*fetchWait
	for k, w := range n.fetchW {
		delete(n.fetchW, k)
		waits = append(waits, w)
	}
	n.mu.Unlock()
	for _, p := range peers {
		p.conn.Close()
	}
	for _, w := range lost {
		w.ch <- jobResult{err: ErrNodeClosed}
	}
	for _, w := range waits {
		w.err = ErrNodeClosed
		close(w.done)
	}
}

// evictPeer removes a dead peer: its link is closed, its entries leave
// the passive object view (so the placer and fetcher stop routing to
// it), its load accounting is dropped, delegations parked on it fail
// with PeerLostError (triggering re-placement), and in-progress fetches
// are nudged to try their next owner.
func (n *Node) evictPeer(p *peer, cause error) {
	n.mu.Lock()
	if cur, ok := n.peers[p.id]; !ok || cur != p {
		// Already evicted, or replaced by a newer link (reconnect).
		n.mu.Unlock()
		_ = p.conn.Close()
		return
	}
	delete(n.peers, p.id)
	n.net.Evicted++
	lost := n.stripPeerLocked(p.id)
	wasWorker := p.role == proto.RoleWorker
	if wasWorker {
		n.rebuildRingLocked()
	}
	waits := make([]*fetchWait, 0, len(n.fetchW))
	for _, w := range n.fetchW {
		waits = append(waits, w)
	}
	n.mu.Unlock()

	_ = p.conn.Close()
	err := &PeerLostError{Peer: p.id, Cause: cause}
	for _, w := range lost {
		w.ch <- jobResult{err: err}
	}
	for _, w := range waits {
		select {
		case w.miss <- p.id:
		default:
		}
	}
	// The worker membership just shrank: objects that kept a replica on
	// the dead node are under-replicated, and some keys now map to new
	// ring successors. Re-establish R copies. (A departing client held
	// no ring slot — nothing to repair.)
	if wasWorker {
		n.repairKick()
	}
}

// stripPeerLocked removes every trace of a peer incarnation that can no
// longer deliver: its object-view entries, its load accounting, and its
// parked delegations (returned for the caller to fail outside the
// lock). Callers hold n.mu.
func (n *Node) stripPeerLocked(id string) []*jobWaiter {
	n.view.DropOwner(id)
	delete(n.pending, id)
	var lost []*jobWaiter
	for enc, w := range n.jobW {
		if w.peerID == id {
			lost = append(lost, w)
			delete(n.jobW, enc)
		}
	}
	return lost
}

// heartbeatLoop pings every peer each HeartbeatInterval and evicts peers
// silent for longer than HeartbeatTimeout. Any received message counts
// as liveness, so a busy link never needs its Pongs to win races.
func (n *Node) heartbeatLoop() {
	ticker := time.NewTicker(n.opts.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-n.done:
			return
		case <-ticker.C:
		}
		now := time.Now()
		n.mu.Lock()
		peers := make([]*peer, 0, len(n.peers))
		for _, p := range n.peers {
			peers = append(peers, p)
		}
		n.mu.Unlock()
		ping := &proto.Message{Type: proto.TypePing, From: n.id}
		for _, p := range peers {
			if now.Sub(time.Unix(0, p.lastSeen.Load())) > n.opts.HeartbeatTimeout {
				n.evictPeer(p, fmt.Errorf("no message within the %v heartbeat timeout", n.opts.HeartbeatTimeout))
				continue
			}
			// Sends run off-loop so one stalled link (e.g. a TCP peer
			// whose inbound side is alive but whose outbound buffer is
			// full) cannot block pinging and timeout-evicting the rest.
			// At most one ping send is in flight per peer; a send still
			// stuck after a full timeout window is itself a failure.
			if p.pingBusy.CompareAndSwap(false, true) {
				p.pingStart.Store(now.UnixNano())
				go func(p *peer) {
					err := p.send(ping)
					p.pingBusy.Store(false)
					if err != nil {
						n.evictPeer(p, fmt.Errorf("heartbeat send: %w", err))
					}
				}(p)
			} else if now.Sub(time.Unix(0, p.pingStart.Load())) > n.opts.HeartbeatTimeout {
				n.evictPeer(p, fmt.Errorf("heartbeat send stalled beyond the %v timeout", n.opts.HeartbeatTimeout))
			}
		}
	}
}

// NetStats snapshots the node's failure-handling and replication
// counters.
func (n *Node) NetStats() NetStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := n.net
	out.Peers = len(n.peers)
	out.Replicas = n.opts.Replicas
	out.RingMembers = n.ring.Len()
	return out
}

// ViewOwners lists the peers the passive object view currently locates
// h on (empty when no live peer is known to hold it).
func (n *Node) ViewOwners(h core.Handle) []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.view.Owners(h.AsObject())
}

// ResolvableHint reports whether a gossiped result handle could be
// served by this node right now: resident in the local store (literals
// always are) or locatable on a live peer via the passive object view.
// The gateway asks it before a cache-warm hint enters its result cache.
func (n *Node) ResolvableHint(h core.Handle) bool {
	return n.st.Contains(h) || len(n.ViewOwners(h)) > 0
}

func (n *Node) isClosed() bool {
	select {
	case <-n.done:
		return true
	default:
		return false
	}
}

// role returns the node's wire role.
func (n *Node) role() byte {
	if n.opts.ClientOnly {
		return proto.RoleClient
	}
	return proto.RoleWorker
}

// AttachPeer adopts a transport link: sends our Hello (identity, role, and
// the full list of held objects) and starts the receive loop. The peer
// becomes routable once its own Hello arrives.
func (n *Node) AttachPeer(conn transport.Conn) {
	hello := &proto.Message{Type: proto.TypeHello, From: n.id, Role: n.role(), Adverts: n.localAdverts()}
	_ = conn.Send(hello.Encode())
	go n.recvLoop(conn)
}

// localAdverts lists every object the node holds: resident, or in its
// durable packs.
func (n *Node) localAdverts() []core.Handle {
	var out []core.Handle
	n.st.ForEachHeld(func(h core.Handle) { out = append(out, h) })
	return out
}

// Peers lists connected peer IDs.
func (n *Node) Peers() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.peers))
	for id := range n.peers {
		out = append(out, id)
	}
	return out
}

func (n *Node) broadcast(m *proto.Message) {
	n.mu.Lock()
	peers := make([]*peer, 0, len(n.peers))
	for _, p := range n.peers {
		peers = append(peers, p)
	}
	n.mu.Unlock()
	for _, p := range peers {
		_ = p.send(m)
	}
}

func (n *Node) recvLoop(conn transport.Conn) {
	var p *peer
	// One message per link, and one Pushed array for its Job frames.
	// The frame and everything decoded from it are valid until the next
	// Recv, so handle keeps nothing of m: what another goroutine serves
	// is copied out first.
	m := new(proto.Message)
	var pushed []proto.PushedObject
	for {
		raw, err := conn.Recv()
		if err != nil {
			// io.EOF and transport.ErrClosed are orderly shutdowns; any
			// other error is a link failure. Either way the peer is
			// gone: evict it so stranded delegations re-place and the
			// view stops routing to it.
			if p != nil {
				n.evictPeer(p, err)
			}
			return
		}
		var from string
		if p != nil {
			from = p.id
		}
		m.Pushed = pushed
		if proto.DecodeInto(m, raw, from) != nil {
			continue // malformed frame: ignore
		}
		if m.Type == proto.TypeJob {
			pushed = m.Pushed[:0]
		}
		if p == nil {
			if m.Type != proto.TypeHello {
				continue // protocol requires Hello first
			}
			np := &peer{id: m.From, role: m.Role, conn: conn}
			np.lastSeen.Store(time.Now().UnixNano())
			n.mu.Lock()
			if n.closed {
				n.mu.Unlock()
				_ = conn.Close()
				return
			}
			old := n.peers[m.From]
			n.peers[m.From] = np
			if np.role == proto.RoleWorker || (old != nil && old.role == proto.RoleWorker) {
				// Client-only peers are not placement targets; their
				// arrival cannot change the ring. A worker's reconnect
				// must: the candidate snapshot points at its old link.
				n.rebuildRingLocked()
			}
			var lost []*jobWaiter
			if old != nil {
				// A reconnect replaces the previous link. Delegations
				// parked on the old incarnation can never complete (its
				// replies are gone with the link), and evictPeer will
				// no-op on it now that the map points at the new peer —
				// so fail them here, and reset the old incarnation's
				// view entries and load accounting. The fresh Hello's
				// adverts repopulate the view right below.
				lost = n.stripPeerLocked(m.From)
			}
			n.mu.Unlock()
			if old != nil {
				_ = old.conn.Close()
				err := &PeerLostError{Peer: m.From, Cause: errors.New("peer reconnected; previous link abandoned")}
				for _, w := range lost {
					w.ch <- jobResult{err: err}
				}
			}
			p = np
			// A grown worker membership remaps some keys to new ring
			// successors; migrate replicas there (no-op with replication
			// off). A joining client changes nothing, so skip the store
			// walk — a flapping client link must not cost repeated
			// cluster-wide repair passes.
			if np.role == proto.RoleWorker {
				n.repairKick()
			}
		}
		p.lastSeen.Store(time.Now().UnixNano())
		n.handle(m)
	}
}

// handle acts on one frame. m is the link's reused message and aliases
// the frame, which the link reuses at its next Recv: a frame served on
// another goroutine hands it only what it copied out of m.
func (n *Node) handle(m *proto.Message) {
	switch m.Type {
	case proto.TypeHello, proto.TypeAdvertise:
		n.mu.Lock()
		for _, h := range m.Adverts {
			n.viewAddLocked(h, m.From)
		}
		n.mu.Unlock()
	case proto.TypeRequest:
		runtime.Go(&servedRequest{n: n, from: m.From, h: m.Handle})
	case proto.TypeObject:
		n.ingestObject(m.From, m.Handle, m.Data)
	case proto.TypeMissing:
		n.mu.Lock()
		n.view.Remove(m.Handle.AsObject(), m.From)
		w := n.fetchW[m.Handle.AsObject()]
		n.mu.Unlock()
		if w != nil {
			select {
			case w.miss <- m.From:
			default:
			}
		}
	case proto.TypeJob:
		n.ingestPushed(m.From, m.Pushed)
		clear(m.Pushed) // the link's array must not pin frame bytes
		runtime.Go(newServedJob(n, m))
	case proto.TypeResult:
		n.mu.Lock()
		w := n.jobW[m.Handle]
		delete(n.jobW, m.Handle)
		n.mu.Unlock()
		res := jobResult{result: m.Result, evalNS: m.EvalNS}
		if m.Err != "" {
			res.err = fmt.Errorf("cluster: remote job on %s failed: %s", m.From, m.Err)
		}
		if w != nil { // nil: the delegation gave up before its Result came
			w.ch <- res
		}
	case proto.TypePing:
		n.mu.Lock()
		p := n.peers[m.From]
		n.mu.Unlock()
		if p != nil {
			_ = p.send(&proto.Message{Type: proto.TypePong, From: n.id})
		}
	case proto.TypePong:
		// Receipt alone is the signal; lastSeen already advanced.
	case proto.TypeReplicate:
		// A peer designated this node a replica holder for the object.
		// Ingest, then confirm — the ack is what lets the sender count
		// the copy as established.
		if n.ingestObject(m.From, m.Handle, m.Data) {
			n.mu.Lock()
			p := n.peers[m.From]
			n.mu.Unlock()
			if p != nil {
				_ = p.send(&proto.Message{Type: proto.TypeReplicateAck, From: n.id, Handle: m.Handle})
			}
		}
	case proto.TypeReplicateAck:
		n.mu.Lock()
		n.viewAddLocked(m.Handle, m.From)
		n.net.ReplicasAcked++
		n.mu.Unlock()
	}
}

func (n *Node) viewAddLocked(h core.Handle, owner string) {
	n.view.Add(h.AsObject(), owner)
}

// servedRequest is a received Request on its way to the goroutine that
// answers it.
type servedRequest struct {
	n    *Node
	from string
	h    core.Handle
}

// Run answers the Request.
func (r *servedRequest) Run() { r.n.serveRequest(r.from, r.h) }

// serveRequest answers a peer's Request for h's bytes.
func (n *Node) serveRequest(from string, h core.Handle) {
	data, err := n.st.ObjectBytes(h)
	if err == nil {
		n.touch(h)
	}
	n.mu.Lock()
	p := n.peers[from]
	n.mu.Unlock()
	if p == nil {
		return
	}
	if err != nil {
		_ = p.send(&proto.Message{Type: proto.TypeMissing, From: n.id, Handle: h})
		return
	}
	_ = p.send(&proto.Message{Type: proto.TypeObject, From: n.id, Handle: h, Data: data})
}

// ingestObject stores object bytes received from a peer and reports
// whether they were accepted (content matching the handle). data is a
// frame's: the store keeps its own copy, and so does a fetch waiting for
// the object.
func (n *Node) ingestObject(from string, h core.Handle, data []byte) bool {
	if err := n.st.PutObject(h, data); err != nil {
		return false
	}
	n.touch(h)
	n.mu.Lock()
	n.viewAddLocked(h, from)
	w := n.takeFetchLocked(h)
	n.mu.Unlock()
	if w != nil {
		w.complete(bytes.Clone(data), nil)
	}
	return true
}

// ingestPushed stores the objects a Job pushed, then records the sender
// as their holder under one lock of n.mu. A resident object's pushed
// bytes would be discarded, so they are neither validated nor re-hashed.
// The sender is still recorded as its holder: the view is advisory, and
// an Advertise makes the same claim unverified. A malformed handle goes
// to PutObject, which refuses it; a refused object's Handle is zeroed in
// pushed, which the caller clears next, and is not recorded.
func (n *Node) ingestPushed(from string, pushed []proto.PushedObject) {
	for i := range pushed {
		p := &pushed[i]
		resident := p.Handle.Validate() == nil && n.st.Contains(p.Handle)
		if !resident && n.st.PutObject(p.Handle, p.Data) != nil {
			p.Handle = core.Handle{}
		}
	}
	n.mu.Lock()
	for _, p := range pushed {
		if !p.Handle.IsZero() {
			n.viewAddLocked(p.Handle, from)
		}
	}
	n.mu.Unlock()
}

// completeFetch finishes an outstanding fetch wait, if any. Success
// completions carry the object's bytes so waiters don't have to re-read
// the hot store — a concurrent demotion pass may already have evicted
// the copy the fetch just promoted. data must stay valid and unchanged
// for as long as a waiter may read it: stored or tier bytes, never a
// frame's.
func (n *Node) completeFetch(h core.Handle, data []byte, err error) {
	n.mu.Lock()
	w := n.takeFetchLocked(h)
	n.mu.Unlock()
	if w != nil {
		w.complete(data, err)
	}
}

// takeFetchLocked removes h's outstanding fetch wait from fetchW and
// returns it, or nil. Callers hold n.mu.
func (n *Node) takeFetchLocked(h core.Handle) *fetchWait {
	k := h.AsObject()
	w := n.fetchW[k]
	delete(n.fetchW, k)
	return w
}

// complete delivers the fetch's outcome to every waiter.
func (w *fetchWait) complete(data []byte, err error) {
	w.data = data
	w.err = err
	close(w.done)
}

// serveJob forces a delegated Encode where it landed (Engine.ForceHere),
// with the pushed objects the receive loop has already stored, and
// replies with the result. It neither re-delegates the Encode nor joins
// this node's own force of it, which may be delegating to the sender:
// either could wait on the sender while the sender waits on us. Its
// children may still be delegated. Objects the job produced are
// advertised cluster-wide, so downstream placements and peer gateways'
// cache-warm hints can locate them, and replicated. A literal result
// produced nothing: the delegator learns it from the Result frame alone
// and no other frame is sent.
//
// The job is not added to this node's placement load: the engine counts
// it (Engine.InFlight) once its children are resolved and it is about to
// claim a slot, and not while it only waits on them.
func (n *Node) serveJob(j *servedJob) {
	enc := j.enc
	var ctx context.Context = &j.jobCtx
	var t *obsv.Trace
	tracer := n.tracer
	if tracer != nil && j.trace != "" {
		t = tracer.StartWithID(j.trace, "remote_job")
		ctx = obsv.WithTrace(ctx, t)
	}
	evalStart := time.Now()
	res, err := n.eng.ForceHere(ctx, enc)
	evalDur := time.Since(evalStart)
	t.AddSpanAt("eval", n.id, evalStart, evalDur)
	reply := &proto.Message{
		Type: proto.TypeResult, From: n.id, Handle: enc,
		Result: res, EvalNS: evalDur.Nanoseconds(),
	}
	if err != nil {
		t.SetOutcome("error")
		reply.Err = err.Error()
	} else if closure := n.closureOf(res); len(closure) > 0 {
		n.broadcast(&proto.Message{Type: proto.TypeAdvertise, From: n.id, Adverts: closure})
		// Eval outputs are writes too: a result living only on the worker
		// that computed it would vanish with that worker.
		n.replicate(closure, false, j.trace)
	}
	if t != nil {
		tracer.Finish(t)
	}
	n.mu.Lock()
	p := n.peers[j.from]
	n.mu.Unlock()
	if p != nil {
		_ = p.send(reply)
	}
}

// closureOf lists locally resident data handles reachable from h
// (including h itself and thunk definitions), capped for sanity.
func (n *Node) closureOf(h core.Handle) []core.Handle {
	const maxClosure = 16384
	if h.IsLiteral() {
		return nil
	}
	seen := make(map[core.Handle]bool)
	var out []core.Handle
	var walk func(core.Handle)
	walk = func(h core.Handle) {
		if len(out) >= maxClosure {
			return
		}
		k := h.AsObject()
		if k.IsLiteral() || seen[k] {
			return
		}
		seen[k] = true
		if !n.st.Contains(k) {
			return
		}
		out = append(out, k)
		if k.Kind() == core.KindTree {
			children, err := n.st.Tree(k)
			if err == nil {
				for _, c := range children {
					walk(c)
				}
			}
		}
	}
	walk(h)
	return out
}

// FNV-1a (64-bit) parameters. The placer hashes inline, not through
// hash/fnv, whose hasher and []byte conversions allocate on every
// candidate of every placement.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvHash(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

type jobKeyType struct{}

// jobCtx carries the delegation hops a dataflow has made so far as one
// context value, in one allocation where context.WithValue and the boxed
// count would take two.
type jobCtx struct {
	context.Context
	hops int
}

// servedJob is a received Job on its way to its evaluation goroutine, in
// one record that is also the Task runtime.Go hands over: its jobCtx is
// the evaluation's context, n the node that serves it, enc the Encode to
// force, and from and trace the Job's sender and trace ID. It is carved
// from a slab (servedJobs) and never reused, so its context stays valid
// for whatever the evaluation left holding it; once the Job is served,
// Run detaches it, and a kept record pins no Node.
type servedJob struct {
	jobCtx
	n     *Node
	enc   core.Handle
	from  string
	trace string
}

// servedJobs is where every servedJob is carved.
var servedJobs runtime.Carver[servedJob]

// newServedJob copies out of the Job frame m what serving it on n needs.
func newServedJob(n *Node, m *proto.Message) *servedJob {
	j := servedJobs.Carve()
	j.jobCtx = jobCtx{Context: context.Background(), hops: int(m.Hops)}
	j.n, j.enc, j.from, j.trace = n, m.Handle, m.From, m.Trace
	return j
}

// Run serves the Job, then detaches its record.
func (j *servedJob) Run() {
	j.n.serveJob(j)
	j.n, j.from, j.trace = nil, "", ""
}

// Value answers the jobCtx key with the jobCtx itself.
func (c *jobCtx) Value(key any) any {
	if key == (jobKeyType{}) {
		return c
	}
	return c.Context.Value(key)
}

func hopsOf(ctx context.Context) int {
	if c, ok := ctx.Value(jobKeyType{}).(*jobCtx); ok {
		return c.hops
	}
	return 0
}

func withHops(ctx context.Context, hops int) context.Context {
	if hopsOf(ctx) == hops {
		return ctx // a context with no jobCtx already reads as zero hops
	}
	return &jobCtx{Context: ctx, hops: hops}
}

// Connect joins two nodes with a simulated link and waits until both ends
// have exchanged Hellos.
func Connect(a, b *Node, cfg transport.LinkConfig) {
	ca, cb := transport.Pipe(cfg)
	a.AttachPeer(ca)
	b.AttachPeer(cb)
	waitPeer(a, b.id)
	waitPeer(b, a.id)
}

func waitPeer(n *Node, id string) {
	for i := 0; i < 100000; i++ {
		n.mu.Lock()
		_, ok := n.peers[id]
		n.mu.Unlock()
		if ok {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// FullMesh connects every pair of nodes with identical links.
func FullMesh(cfg transport.LinkConfig, nodes ...*Node) {
	for i := range nodes {
		for j := i + 1; j < len(nodes); j++ {
			Connect(nodes[i], nodes[j], cfg)
		}
	}
}
