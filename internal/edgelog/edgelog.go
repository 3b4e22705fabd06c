// Package edgelog makes the serving edge replicated: a safekeeper-style
// append-only jobs log shared by N gateways over one worker mesh, so a
// killed gateway's accepted-but-undrained async jobs are completed by a
// surviving peer and a memoized answer on one gateway warms the result
// caches of the others.
//
// The design leans on the same determinism the rest of the system does.
// Log entries are keyed by the deterministic job ID (a digest of tenant
// and thunk handle) and carry a totally ordered lifecycle state, so the
// replica fold is commutative and idempotent: appends, peer snapshots,
// and a restarted gateway's re-appends can arrive in any interleaving
// and every replica converges to the same table. That shape removes the
// need for a leader or a global sequence — each gateway appends its own
// entries, replicates them to peers, and waits for a majority
// acknowledgement before acking the client's 202 (with a bounded timeout
// fallback, because a duplicated or lost entry costs at most one
// deduplicated re-evaluation, never a wrong answer).
//
// Membership is a heartbeat view over the same peer channel. When a
// gateway dies — link EOF, heartbeat timeout, or a clean Leave — each
// survivor scans the log for the dead origin's accepted entries and
// rendezvous-hashing designates exactly one adopter per job, which
// resubmits the job into its own local queue. The adopted flag makes
// duplicate death signals idempotent locally; across gateways, job-ID
// dedup and memoization make even a split-brain double adoption safe.
//
// The table lives in memory only. A restarted gateway rebuilds its own
// entries from its jobs journal (the gateway re-appends them before any
// peer attaches) and relearns its peers' entries from the snapshot each
// live peer sends on attach.
package edgelog

import (
	"errors"
	"sort"
	"sync"
	"time"

	"fixgo/internal/core"
	"fixgo/internal/proto"
)

// maxPendingHints bounds the deferred warm-hint table: hints whose
// result the backend cannot resolve yet wait here for the advert to
// arrive, and the oldest are dropped beyond the bound (a dropped hint
// costs one re-evaluation, nothing more).
const maxPendingHints = 4096

// retainTerminal bounds how many settled entries stay in the table for
// dedup and warm hints; the oldest settled entries are evicted beyond it.
const retainTerminal = 8192

// Options configures a Replicator.
type Options struct {
	// ID is this gateway's identity on the peer channel. Required, and
	// must be stable across restarts so a rejoining gateway reclaims its
	// membership slot instead of appearing as a new peer.
	ID string
	// HeartbeatInterval spaces liveness probes to peers (default 1s).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout declares a silent peer dead (default 5×interval).
	HeartbeatTimeout time.Duration
	// AckTimeout bounds how long an Accepted append waits for a quorum
	// of peer acknowledgements before proceeding anyway (default 2s).
	// Proceeding is safe — the job is in the origin's jobs journal and
	// the job ID dedups — the timeout only trades replication lag for
	// availability, and QuorumTimeouts counts every such trade for
	// operators.
	AckTimeout time.Duration
	// Takeover, when set, is invoked once per adopted job when a peer
	// gateway dies: the gateway absorbs the entry's replicated payload
	// into its backend, then resubmits (tenant, handle) into its own
	// async queue. Called without internal locks held.
	Takeover func(tenant string, h core.Handle, payload []proto.PushedObject)
	// Warm, when set, offers a gossiped cache-warm hint (key handle →
	// result handle). It reports whether the hint was consumed; a
	// declined hint is retried on the heartbeat tick until it applies,
	// is taken by a flight, or is evicted. Called without internal locks
	// held.
	Warm func(key, result core.Handle) bool
	// Logf, when set, receives one line per notable event (peer death,
	// takeover, quorum timeout).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = time.Second
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 5 * o.HeartbeatInterval
	}
	if o.AckTimeout <= 0 {
		o.AckTimeout = 2 * time.Second
	}
	return o
}

// Stats is the replicator's observability snapshot, surfaced by the
// gateway at /v1/stats and as the fixgate_edge_* metric families.
type Stats struct {
	// Members counts peer gateways ever seen on the channel (excluding
	// this one); Live counts how many currently pass liveness.
	Members int `json:"members"`
	Live    int `json:"live"`
	// Entries is the log table size; Undrained counts accepted entries
	// not yet settled (the exposure a gateway death would hand a peer).
	Entries   int `json:"entries"`
	Undrained int `json:"undrained"`
	// Appends counts locally originated entry appends; Replicated counts
	// entries folded in from peers.
	Appends    uint64 `json:"appends"`
	Replicated uint64 `json:"replicated"`
	// AcksSent / AcksReceived count append acknowledgements on each side.
	AcksSent     uint64 `json:"acks_sent"`
	AcksReceived uint64 `json:"acks_received"`
	// QuorumTimeouts counts appends acknowledged to the client before a
	// peer quorum confirmed them (the availability fallback).
	QuorumTimeouts uint64 `json:"quorum_timeouts"`
	// Takeovers counts dead-peer events handled; Adopted counts
	// undrained jobs this gateway adopted across them.
	Takeovers uint64 `json:"takeovers"`
	Adopted   uint64 `json:"adopted"`
	// WarmSent / WarmReceived / WarmApplied / WarmDeferred count
	// cache-warm gossip: hints broadcast, received, applied to the local
	// cache, and parked because the result was not yet resolvable.
	WarmSent     uint64 `json:"warm_sent"`
	WarmReceived uint64 `json:"warm_received"`
	WarmApplied  uint64 `json:"warm_applied"`
	WarmDeferred uint64 `json:"warm_deferred"`
	// HintsPending is the deferred warm-hint table size.
	HintsPending int `json:"hints_pending"`
	// PeerLag is the largest number of this gateway's appends a live
	// peer has not yet acknowledged — the replication-lag gauge the
	// runbook watches.
	PeerLag uint64 `json:"peer_lag"`
}

// member is one peer gateway's membership view.
type member struct {
	id       string
	alive    bool
	lastSeen time.Time
	acked    uint64 // highest of our append sequences this peer acked
}

// ackWait tracks one append's outstanding quorum.
type ackWait struct {
	need int
	got  int
	ch   chan struct{} // closed when got reaches need
}

// adoption is one takeover dispatch, collected under the lock and
// delivered to Options.Takeover outside it.
type adoption struct {
	tenant  string
	handle  core.Handle
	payload []proto.PushedObject
}

// Replicator is one gateway's endpoint of the replicated edge log: the
// local folded table, the peer connections, and the membership view.
type Replicator struct {
	opts Options

	mu       sync.Mutex
	entries  map[string]*Entry
	members  map[string]*member
	conns    map[*peerConn]struct{}
	waits    map[uint64]*ackWait
	hints    map[core.Handle]core.Handle
	hintFIFO []core.Handle // eviction order for the hint table
	seq      uint64
	terminal int
	closed   bool
	stats    Stats

	stop chan struct{}
	wg   sync.WaitGroup
}

// New makes an empty log and starts the heartbeat loop. Peers attach
// afterwards via AttachPeer.
func New(opts Options) (*Replicator, error) {
	opts = opts.withDefaults()
	if opts.ID == "" {
		return nil, errors.New("edgelog: Options.ID is required")
	}
	r := &Replicator{
		opts:    opts,
		entries: make(map[string]*Entry),
		members: make(map[string]*member),
		conns:   make(map[*peerConn]struct{}),
		waits:   make(map[uint64]*ackWait),
		hints:   make(map[core.Handle]core.Handle),
		stop:    make(chan struct{}),
	}
	r.wg.Add(1)
	go r.heartbeatLoop()
	return r, nil
}

func (r *Replicator) logf(format string, args ...any) {
	if r.opts.Logf != nil {
		r.opts.Logf(format, args...)
	}
}

// foldLocked merges one entry into the table by rank, reporting whether
// the table changed.
func (r *Replicator) foldLocked(e Entry) bool {
	cur, ok := r.entries[e.Job]
	if ok && cur.rank() >= e.rank() {
		// A duplicate accepted entry may still carry the payload the
		// incumbent is missing (local accept raced a remote append).
		if !cur.State.Terminal() && len(cur.Objects) == 0 && len(e.Objects) > 0 {
			cur.Objects = e.Objects
		}
		return false
	}
	wasTerminal := ok && cur.State.Terminal()
	if ok {
		adopted := cur.adopted
		*cur = e
		cur.adopted = adopted
	} else {
		ne := e
		cur = &ne
		r.entries[e.Job] = cur
	}
	if cur.State.Terminal() && !wasTerminal {
		// Settled entries are never executed again; free the payload.
		cur.Objects = nil
		r.terminal++
		r.evictTerminalLocked()
	}
	return true
}

// evictTerminalLocked drops the oldest settled entries once the
// retention bound is exceeded by an eighth (amortizing the scan), the
// same policy the jobs manager applies to its terminal table.
func (r *Replicator) evictTerminalLocked() {
	if r.terminal <= retainTerminal+retainTerminal/8 {
		return
	}
	settled := make([]*Entry, 0, r.terminal)
	for _, e := range r.entries {
		if e.State.Terminal() {
			settled = append(settled, e)
		}
	}
	sort.Slice(settled, func(i, j int) bool { return settled[i].At.Before(settled[j].At) })
	for _, e := range settled[:len(settled)-retainTerminal] {
		delete(r.entries, e.Job)
		r.terminal--
	}
}

// Accepted appends a locally accepted async job to the replicated log
// and blocks until a majority of the live edge (this gateway included)
// holds the entry, or AckTimeout elapses. Call it after the local queue
// journaled the job and before acking the 202: the accepted entry is
// what lets a surviving peer adopt the job if this gateway dies.
// payload carries the job's definition closure — the objects a peer
// needs resident to execute the handle once this gateway's store is
// gone; nil when the backend resolves data mesh-wide.
func (r *Replicator) Accepted(job, tenant string, h core.Handle, payload []proto.PushedObject) {
	e := Entry{
		Job:     job,
		Origin:  r.opts.ID,
		Tenant:  tenant,
		State:   EntryAccepted,
		At:      time.Now(),
		Handle:  h,
		Objects: payload,
	}
	seq, wait := r.appendAndBroadcast(e, true)
	if wait == nil {
		return
	}
	t := time.NewTimer(r.opts.AckTimeout)
	defer t.Stop()
	select {
	case <-wait.ch:
	case <-t.C:
		r.mu.Lock()
		r.stats.QuorumTimeouts++
		r.mu.Unlock()
		r.logf("edgelog: append %d (job %s) proceeding without quorum after %v", seq, job, r.opts.AckTimeout)
	case <-r.stop:
	}
	r.mu.Lock()
	delete(r.waits, seq)
	r.mu.Unlock()
}

// Settled records a job's terminal transition (done, cancelled, or
// dead-lettered) and broadcasts it to peers without waiting for
// acknowledgement: settlement durability is already carried by the
// origin's jobs journal, and a lost settle costs a peer at most one
// memoized re-evaluation. A done entry doubles as a cache-warm hint at
// every receiver.
func (r *Replicator) Settled(job, tenant string, state EntryState, h, result core.Handle) {
	if !state.Terminal() {
		return
	}
	e := Entry{
		Job:    job,
		Origin: r.opts.ID,
		Tenant: tenant,
		State:  state,
		At:     time.Now(),
		Handle: h,
		Result: result,
	}
	r.appendAndBroadcast(e, false)
}

// appendAndBroadcast folds an entry locally, replicates it to every
// attached peer, and (when quorum is set) registers an ack
// wait sized to a majority of the live membership.
func (r *Replicator) appendAndBroadcast(e Entry, quorum bool) (uint64, *ackWait) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return 0, nil
	}
	changed := r.foldLocked(e)
	r.stats.Appends++
	r.seq++
	seq := r.seq
	var wait *ackWait
	if quorum && changed {
		if need := (r.aliveCountLocked() + 1) / 2; need > 0 {
			wait = &ackWait{need: need, ch: make(chan struct{})}
			r.waits[seq] = wait
		}
	}
	conns := r.connsLocked()
	r.mu.Unlock()
	if len(conns) > 0 {
		msg := &proto.Message{
			Type:    proto.TypeEdgeAppend,
			From:    r.opts.ID,
			Seq:     seq,
			Entries: []proto.EdgeEntry{e.wire()},
		}
		r.sendAll(conns, msg)
	}
	return seq, wait
}

// aliveCountLocked counts live peers (excluding self).
func (r *Replicator) aliveCountLocked() int {
	n := 0
	for _, m := range r.members {
		if m.alive {
			n++
		}
	}
	return n
}

// GossipWarm broadcasts a cache-warm hint: key was memoized to result on
// this gateway, so a repeat submission on any peer can answer from its
// cache without re-evaluating. Fire-and-forget — hints are an
// optimization, never load-bearing.
func (r *Replicator) GossipWarm(key, result core.Handle) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	conns := r.connsLocked()
	if len(conns) > 0 {
		r.stats.WarmSent++
	}
	r.mu.Unlock()
	if len(conns) == 0 {
		return
	}
	r.sendAll(conns, &proto.Message{
		Type:   proto.TypeEdgeWarm,
		From:   r.opts.ID,
		Handle: key,
		Result: result,
	})
}

// TakeHint removes and returns the deferred warm hint for key, if one is
// parked. The gateway's miss flight consults it before evaluating: a
// hint that resolves serves the flight; one that does not is dropped
// and the flight falls through to the backend.
func (r *Replicator) TakeHint(key core.Handle) (core.Handle, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	res, ok := r.hints[key]
	if ok {
		delete(r.hints, key)
	}
	return res, ok
}

// offerHint runs a received hint through the Warm callback, parking it
// in the bounded deferred table when the backend cannot resolve the
// result yet (its advert may still be in flight).
func (r *Replicator) offerHint(key, result core.Handle) {
	if r.opts.Warm != nil && r.opts.Warm(key, result) {
		r.mu.Lock()
		r.stats.WarmApplied++
		delete(r.hints, key)
		r.mu.Unlock()
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.hints[key]; !ok {
		r.stats.WarmDeferred++
		if len(r.hints) >= maxPendingHints {
			// Evict the oldest deferred hint still resident.
			for len(r.hintFIFO) > 0 {
				old := r.hintFIFO[0]
				r.hintFIFO = r.hintFIFO[1:]
				if _, live := r.hints[old]; live {
					delete(r.hints, old)
					break
				}
			}
		}
		r.hintFIFO = append(r.hintFIFO, key)
	}
	r.hints[key] = result
}

// retryHints re-offers every deferred hint (heartbeat tick): an advert
// that has since arrived lets the hint apply.
func (r *Replicator) retryHints() {
	if r.opts.Warm == nil {
		return
	}
	r.mu.Lock()
	pending := make(map[core.Handle]core.Handle, len(r.hints))
	for k, v := range r.hints {
		pending[k] = v
	}
	r.mu.Unlock()
	for k, v := range pending {
		if r.opts.Warm(k, v) {
			r.mu.Lock()
			if _, ok := r.hints[k]; ok {
				delete(r.hints, k)
				r.stats.WarmApplied++
			}
			r.mu.Unlock()
		}
	}
}

// Entries snapshots the folded table (tests and the bench harness read
// it; the serving path never needs the full table).
func (r *Replicator) Entries() []Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, *e)
	}
	return out
}

// Stats snapshots the replicator's counters and gauges.
func (r *Replicator) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.stats
	st.Members = len(r.members)
	st.Live = r.aliveCountLocked()
	st.Entries = len(r.entries)
	for _, e := range r.entries {
		if e.State == EntryAccepted {
			st.Undrained++
		}
	}
	st.HintsPending = len(r.hints)
	for _, m := range r.members {
		if m.alive && r.seq > m.acked && r.seq-m.acked > st.PeerLag {
			st.PeerLag = r.seq - m.acked
		}
	}
	return st
}

// ID returns this gateway's identity on the peer channel.
func (r *Replicator) ID() string { return r.opts.ID }

// Close announces a clean departure (peers adopt this gateway's
// undrained entries immediately instead of waiting out a heartbeat
// timeout) and closes every peer link. Call it
// only after the local jobs queue has fully stopped draining — the
// Leave is the signal that hands the queue to the survivors, and
// sending it while evaluations are still running would open a
// double-execution window.
func (r *Replicator) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	conns := r.connsLocked()
	r.mu.Unlock()
	r.sendAll(conns, &proto.Message{Type: proto.TypeEdgeLeave, From: r.opts.ID})
	close(r.stop)
	for _, pc := range conns {
		_ = pc.conn.Close()
	}
	r.wg.Wait()
	return nil
}

// connsLocked snapshots the attached peer connections so sends happen
// outside the replicator lock.
func (r *Replicator) connsLocked() []*peerConn {
	out := make([]*peerConn, 0, len(r.conns))
	for pc := range r.conns {
		out = append(out, pc)
	}
	return out
}

// sendAll encodes once and sends to every connection, detaching any
// whose link errors.
func (r *Replicator) sendAll(conns []*peerConn, m *proto.Message) {
	if len(conns) == 0 {
		return
	}
	buf := m.Encode()
	for _, pc := range conns {
		if err := pc.send(buf); err != nil {
			r.dropConn(pc, err)
		}
	}
}
