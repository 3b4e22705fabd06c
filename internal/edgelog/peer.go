package edgelog

// The peer channel: connection handling, the membership view, and the
// takeover scan. Gateways are fully meshed — each pair shares one
// transport.Conn per direction of attachment — and every message type
// rides the same link: hello + snapshot on attach, appends and acks for
// replication, ping/pong for liveness, warm hints for the cache, and
// leave for clean shutdown.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fixgo/internal/proto"
	"fixgo/internal/transport"
)

// peerConn is one attached link to a peer gateway. The peer's identity
// is learned from its first message (normally the hello sent on
// attach); until then the link replicates but does not vote.
type peerConn struct {
	conn   transport.Conn
	sendMu sync.Mutex

	// pingBusy marks a heartbeat ping still being sent, since pingStart
	// (unix ns); see heartbeatLoop.
	pingBusy  atomic.Bool
	pingStart atomic.Int64

	mu sync.Mutex
	id string
}

// send transmits one pre-encoded message, serializing writers.
func (pc *peerConn) send(buf []byte) error {
	pc.sendMu.Lock()
	defer pc.sendMu.Unlock()
	return pc.conn.Send(buf)
}

func (pc *peerConn) peerID() string {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.id
}

func (pc *peerConn) setPeerID(id string) {
	pc.mu.Lock()
	pc.id = id
	pc.mu.Unlock()
}

// AttachPeer adds a link to a peer gateway and starts its receive loop.
// Both directions attach symmetrically (dialer and acceptor), and each
// side introduces itself with a hello followed by a full snapshot of its
// folded table — the state transfer that brings a rejoining or freshly
// booted gateway up to date, safe to repeat because the fold is
// idempotent.
func (r *Replicator) AttachPeer(conn transport.Conn) {
	pc := &peerConn{conn: conn}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		_ = conn.Close()
		return
	}
	r.conns[pc] = struct{}{}
	r.wg.Add(1)
	r.mu.Unlock()
	go r.recvLoop(pc)
	if err := pc.send((&proto.Message{Type: proto.TypeEdgeHello, From: r.opts.ID}).Encode()); err != nil {
		r.dropConn(pc, err)
	}
}

// recvLoop drains one peer link until it errors or closes.
func (r *Replicator) recvLoop(pc *peerConn) {
	defer r.wg.Done()
	for {
		data, err := pc.conn.Recv()
		if err != nil {
			r.dropConn(pc, err)
			return
		}
		m, err := proto.Decode(data)
		if err != nil {
			r.logf("edgelog: %s: bad peer message: %v", r.opts.ID, err)
			continue
		}
		r.handle(pc, m)
	}
}

// handle dispatches one peer message.
func (r *Replicator) handle(pc *peerConn, m *proto.Message) {
	switch m.Type {
	case proto.TypeEdgeHello:
		r.handleHello(pc, m.From)
	case proto.TypeEdgeAppend:
		r.handleAppend(pc, m)
	case proto.TypeEdgeAck:
		r.handleAck(m.From, m.Seq)
	case proto.TypeEdgeWarm:
		r.mu.Lock()
		r.touchLocked(m.From)
		r.stats.WarmReceived++
		r.mu.Unlock()
		r.offerHint(m.Handle, m.Result)
	case proto.TypePing:
		r.mu.Lock()
		r.touchLocked(m.From)
		r.mu.Unlock()
		if err := pc.send((&proto.Message{Type: proto.TypePong, From: r.opts.ID}).Encode()); err != nil {
			r.dropConn(pc, err)
		}
	case proto.TypePong:
		r.mu.Lock()
		r.touchLocked(m.From)
		r.mu.Unlock()
	case proto.TypeEdgeLeave:
		r.logf("edgelog: %s: peer %s left cleanly", r.opts.ID, m.From)
		r.peerDown(m.From)
	}
}

// handleHello registers (or revives) the peer behind a link and answers
// with a snapshot of the folded table.
func (r *Replicator) handleHello(pc *peerConn, from string) {
	pc.setPeerID(from)
	r.mu.Lock()
	r.touchLocked(from)
	entries := make([]proto.EdgeEntry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e.wire())
	}
	r.seq++
	seq := r.seq
	r.mu.Unlock()
	if len(entries) == 0 {
		return
	}
	msg := &proto.Message{Type: proto.TypeEdgeAppend, From: r.opts.ID, Seq: seq, Entries: entries}
	if err := pc.send(msg.Encode()); err != nil {
		r.dropConn(pc, err)
	}
}

// handleAppend folds a peer's entries and acks the batch. Newly done entries double as cache-warm hints.
func (r *Replicator) handleAppend(pc *peerConn, m *proto.Message) {
	var warms []proto.EdgeEntry
	r.mu.Lock()
	r.touchLocked(m.From)
	for _, w := range m.Entries {
		e, err := fromWire(w)
		if err != nil {
			r.logf("edgelog: %s: dropping entry from %s: %v", r.opts.ID, m.From, err)
			continue
		}
		if r.foldLocked(e) {
			r.stats.Replicated++
			if e.State == EntryDone {
				warms = append(warms, w)
			}
		}
	}
	r.stats.AcksSent++
	r.mu.Unlock()
	ack := &proto.Message{Type: proto.TypeEdgeAck, From: r.opts.ID, Seq: m.Seq}
	if err := pc.send(ack.Encode()); err != nil {
		r.dropConn(pc, err)
	}
	for _, w := range warms {
		r.offerHint(w.Handle, w.Result)
	}
}

// handleAck credits an append acknowledgement toward its quorum wait and
// advances the peer's replication watermark.
func (r *Replicator) handleAck(from string, seq uint64) {
	r.mu.Lock()
	r.touchLocked(from)
	r.stats.AcksReceived++
	if m := r.members[from]; m != nil && seq > m.acked {
		m.acked = seq
	}
	if w := r.waits[seq]; w != nil {
		w.got++
		if w.got >= w.need {
			close(w.ch)
			delete(r.waits, seq)
		}
	}
	r.mu.Unlock()
}

// touchLocked records liveness evidence for a peer, creating or reviving
// its membership slot. A revived peer (same gateway ID rejoining after a
// kill) reclaims its slot rather than appearing as a new member — the
// membership-flap contract.
func (r *Replicator) touchLocked(id string) {
	if id == "" || id == r.opts.ID {
		return
	}
	m := r.members[id]
	if m == nil {
		m = &member{id: id}
		r.members[id] = m
	}
	if !m.alive {
		r.logf("edgelog: %s: peer %s is live", r.opts.ID, id)
	}
	m.alive = true
	m.lastSeen = time.Now()
}

// dropConn detaches a failed link. When it was the peer's last link and
// the replicator is still serving, the peer is declared dead and its
// undrained entries are scanned for takeover — link EOF is the fast
// death signal; the heartbeat timeout is the slow one for links that
// stay open but fall silent.
func (r *Replicator) dropConn(pc *peerConn, err error) {
	_ = pc.conn.Close()
	r.mu.Lock()
	if _, attached := r.conns[pc]; !attached {
		r.mu.Unlock()
		return
	}
	delete(r.conns, pc)
	id := pc.peerID()
	lastLink := id != ""
	for other := range r.conns {
		if other.peerID() == id {
			lastLink = false
			break
		}
	}
	closed := r.closed
	r.mu.Unlock()
	if closed || !lastLink {
		return
	}
	r.logf("edgelog: %s: link to %s down: %v", r.opts.ID, id, err)
	r.peerDown(id)
}

// peerDown marks a peer dead and dispatches the takeover scan.
func (r *Replicator) peerDown(id string) {
	r.mu.Lock()
	adoptions := r.markDeadLocked(id)
	r.mu.Unlock()
	r.dispatch(adoptions)
}

// markDeadLocked transitions a live peer to dead and collects the
// adoptions this gateway is rendezvous-designated to run: every
// accepted entry whose origin is no longer live, not yet adopted here.
// The adopted flag makes duplicate death signals idempotent.
func (r *Replicator) markDeadLocked(id string) []adoption {
	m := r.members[id]
	if m == nil || !m.alive {
		return nil
	}
	m.alive = false
	r.stats.Takeovers++
	alive := make([]string, 0, len(r.members)+1)
	alive = append(alive, r.opts.ID)
	for _, mm := range r.members {
		if mm.alive {
			alive = append(alive, mm.id)
		}
	}
	var adoptions []adoption
	for _, e := range r.entries {
		if e.State != EntryAccepted || e.adopted || e.Origin == r.opts.ID {
			continue
		}
		if om := r.members[e.Origin]; om != nil && om.alive {
			continue
		}
		if pickAdopter(e.Job, alive) != r.opts.ID {
			continue
		}
		e.adopted = true
		adoptions = append(adoptions, adoption{tenant: e.Tenant, handle: e.Handle, payload: e.Objects})
	}
	r.stats.Adopted += uint64(len(adoptions))
	if len(adoptions) > 0 {
		r.logf("edgelog: %s: adopting %d undrained jobs from dead peer %s", r.opts.ID, len(adoptions), id)
	}
	return adoptions
}

// dispatch hands collected adoptions to the Takeover callback, outside
// every internal lock.
func (r *Replicator) dispatch(adoptions []adoption) {
	if r.opts.Takeover == nil {
		return
	}
	for _, a := range adoptions {
		r.opts.Takeover(a.tenant, a.handle, a.payload)
	}
}

// heartbeatLoop probes peers, expires silent ones, and retries deferred
// warm hints.
func (r *Replicator) heartbeatLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.opts.HeartbeatInterval)
	defer t.Stop()
	ping := (&proto.Message{Type: proto.TypePing, From: r.opts.ID}).Encode()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
		}
		r.mu.Lock()
		conns := r.connsLocked()
		deadline := time.Now().Add(-r.opts.HeartbeatTimeout)
		var expired []string
		for _, m := range r.members {
			if m.alive && m.lastSeen.Before(deadline) {
				expired = append(expired, m.id)
			}
		}
		r.mu.Unlock()
		now := time.Now()
		for _, pc := range conns {
			// Pings go out off-loop so one peer whose socket stopped
			// draining cannot block probing and expiring the rest. At
			// most one ping is in flight per link, and one stuck past the
			// timeout drops the link: closing it unblocks every Send
			// waiting on it, Accepted's replication among them.
			if pc.pingBusy.CompareAndSwap(false, true) {
				pc.pingStart.Store(now.UnixNano())
				r.wg.Add(1)
				go func(pc *peerConn) {
					defer r.wg.Done()
					err := pc.send(ping)
					pc.pingBusy.Store(false)
					if err != nil {
						r.dropConn(pc, err)
					}
				}(pc)
			} else if now.Sub(time.Unix(0, pc.pingStart.Load())) > r.opts.HeartbeatTimeout {
				r.dropConn(pc, fmt.Errorf("heartbeat send stalled beyond the %v timeout", r.opts.HeartbeatTimeout))
			}
		}
		for _, id := range expired {
			r.logf("edgelog: %s: peer %s heartbeat timeout", r.opts.ID, id)
			r.peerDown(id)
		}
		r.retryHints()
	}
}
