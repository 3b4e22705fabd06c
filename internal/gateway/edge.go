package gateway

// The gateway's side of the replicated edge (internal/edgelog): wiring
// the replicator's callbacks into the jobs queue and result cache.

import (
	"fixgo/internal/core"
	"fixgo/internal/edgelog"
	"fixgo/internal/jobs"
	"fixgo/internal/proto"
	"fixgo/internal/transport"
)

// AttachEdgePeer adds a peer-gateway link to the replicated edge. The
// boot path dials (or accepts) one transport connection per peer and
// hands each to this method; it panics when the server was built
// without an EdgeID, since that is a wiring bug, not a runtime
// condition.
func (s *Server) AttachEdgePeer(conn transport.Conn) {
	s.edge.AttachPeer(conn)
}

// initEdge builds the replicator. Called from NewServer before the jobs
// manager is built; the callbacks read s.jobs and s.cache at dispatch
// time, so construction order does not matter to them.
func (s *Server) initEdge(opts Options) error {
	rep, err := edgelog.New(edgelog.Options{
		ID:                opts.EdgeID,
		HeartbeatInterval: opts.EdgeHeartbeatInterval,
		HeartbeatTimeout:  opts.EdgeHeartbeatTimeout,
		Takeover:          s.adoptJob,
		Warm:              s.applyHint,
		Logf:              opts.Logf,
	})
	if err != nil {
		return err
	}
	s.edge = rep
	return nil
}

// restoreEdge rebuilds this gateway's own edge entries, which have no
// file of their own, from the jobs the jobs journal recovered: an
// undrained job is appended as accepted, with its payload, and a settled
// one as settled. NewServer calls it before any peer attaches, so no
// append waits for a quorum. The fold is rank-ordered, so a resumed job
// that settles before the loop reaches it stays settled.
func (s *Server) restoreEdge() {
	if s.edge == nil {
		return
	}
	for _, j := range s.jobs.List() {
		if j.State.Terminal() {
			s.observeSettled(j)
		} else {
			s.edge.Accepted(j.ID, j.Tenant, j.Handle, s.opts.Backend.JobPayload(j.Handle))
		}
	}
}

// adoptJob resubmits a dead peer's accepted job into the local async
// queue (the edgelog Takeover callback), first absorbing the entry's
// replicated payload so the evaluation finds the job's definition
// resident. The job ID is deterministic in (tenant, handle), so
// adopting a job the queue already holds — or a duplicate adoption
// during a split-brain — dedups onto the existing entry instead of
// re-executing.
func (s *Server) adoptJob(tenant string, h core.Handle, payload []proto.PushedObject) {
	if s.jobs == nil {
		return
	}
	s.opts.Backend.AbsorbPayload(payload)
	if _, _, err := s.jobs.Submit(tenant, h); err != nil {
		// ErrQueueFull: the entry stays accepted in the log; a later
		// membership event (or this gateway's own death) re-designates
		// an adopter. Log it — an operator watching a failover wants to
		// know adoption was shed.
		if s.opts.Logf != nil {
			s.opts.Logf("gateway: edge takeover of (%s, %v) not enqueued: %v", tenant, h, err)
		}
	}
}

// applyHint is the edgelog Warm callback: it inserts a gossiped
// (key → result) memoization into the result cache when the backend can
// actually resolve the result, and declines otherwise so the replicator
// parks the hint and retries after the object's advert arrives.
func (s *Server) applyHint(key, result core.Handle) bool {
	if s.cache == nil {
		// Nowhere to warm; consume the hint so it is not retried forever.
		return true
	}
	if !s.opts.Backend.ResolvableHint(result) {
		return false
	}
	s.cache.warm(key, result)
	return true
}

// observeSettled is the jobs Observe hook: every live terminal
// transition replicates to the peer gateways, settling the job's edge
// entry (so no peer adopts it) and — for done jobs — doubling as a
// cache-warm hint at every receiver.
func (s *Server) observeSettled(j jobs.Job) {
	if s.edge == nil {
		return
	}
	var st edgelog.EntryState
	switch j.State {
	case jobs.StateDone:
		st = edgelog.EntryDone
	case jobs.StateCancelled:
		st = edgelog.EntryCancelled
	case jobs.StateDeadLetter:
		st = edgelog.EntryDeadLetter
	default:
		return
	}
	s.edge.Settled(j.ID, j.Tenant, st, j.Handle, j.Result)
}
