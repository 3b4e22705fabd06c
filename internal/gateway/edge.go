package gateway

// The gateway's side of the replicated edge (internal/edgelog): wiring
// the replicator's callbacks into the jobs queue and result cache, the
// optional HintResolver backend facet, and the EdgeStats slice of the
// /v1/stats snapshot.

import (
	"fixgo/internal/core"
	"fixgo/internal/edgelog"
	"fixgo/internal/jobs"
	"fixgo/internal/proto"
	"fixgo/internal/transport"
)

// HintResolver is the optional Backend facet behind cache-warm gossip:
// ResolvableHint reports whether a gossiped result handle could be
// served from this backend right now (resident locally or locatable on
// a live peer). Without the facet only literal results — which carry
// their value inside the handle — are considered resolvable, so a warm
// hint can never point the cache at an answer the backend cannot
// produce. cluster.Node and *EngineBackend implement it.
type HintResolver interface {
	ResolvableHint(h core.Handle) bool
}

// ResolvableHint reports whether the engine's store holds the result
// (literals are always resolvable). Implements HintResolver.
func (b *EngineBackend) ResolvableHint(h core.Handle) bool {
	return b.eng.Store().Contains(h)
}

// JobPayloader is the optional Backend facet behind takeover payload
// replication. An accepted async job's bytes live only in the accepting
// gateway's backend until a worker pulls them; if that gateway dies
// first, the handle in the replicated log names data nobody holds. The
// origin therefore packs the job's definition closure (JobPayload) into
// its edge-log entry, and the adopting peer ingests it (AbsorbPayload)
// before resubmitting. cluster.Node and *EngineBackend implement it; a
// backend whose data plane is durable mesh-wide can omit the facet and
// replicate bare handles.
type JobPayloader interface {
	// JobPayload returns the definition closure of h resident locally,
	// bounded by the implementation's payload budget.
	JobPayload(h core.Handle) []proto.PushedObject
	// AbsorbPayload stores a replicated payload locally so a subsequent
	// evaluation of the adopted handle finds its definition resident.
	AbsorbPayload(objs []proto.PushedObject)
}

// JobPayload returns the definition closure resident in the engine's
// store (store.JobPayload). Implements JobPayloader.
func (b *EngineBackend) JobPayload(h core.Handle) []proto.PushedObject {
	return b.eng.Store().JobPayload(h)
}

// AbsorbPayload ingests a replicated payload into the engine's store.
// Implements JobPayloader.
func (b *EngineBackend) AbsorbPayload(objs []proto.PushedObject) {
	for _, p := range objs {
		_ = b.eng.Store().PutObject(p.Handle, p.Data)
	}
}

// jobPayload packs the closure to replicate with an accepted entry; nil
// when the backend has no payload facet.
func (s *Server) jobPayload(h core.Handle) []proto.PushedObject {
	if jp, ok := s.opts.Backend.(JobPayloader); ok {
		return jp.JobPayload(h)
	}
	return nil
}

// EdgeStats is the replicated-edge slice of the stats report: the
// replicator's own counters plus the gateway-side hint accounting.
type EdgeStats struct {
	edgelog.Stats
	// HintHits counts miss flights served by a deferred warm hint
	// instead of a backend evaluation.
	HintHits uint64 `json:"hint_hits"`
	// HintStale counts deferred hints that were still unresolvable when
	// a miss flight consulted them; the flight fell through to the
	// backend.
	HintStale uint64 `json:"hint_stale"`
}

// Edge exposes the replicated-edge endpoint (nil when Options.EdgeID is
// empty) — the boot path and tests read its stats and entries.
func (s *Server) Edge() *edgelog.Replicator { return s.edge }

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
			s.edge.Accepted(j.ID, j.Tenant, j.Handle, s.jobPayload(j.Handle))
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
	if len(payload) > 0 {
		if jp, ok := s.opts.Backend.(JobPayloader); ok {
			jp.AbsorbPayload(payload)
		}
	}
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
	if !s.resolvableHint(result) {
		return false
	}
	s.cache.warm(key, result)
	return true
}

// resolvableHint reports whether a gossiped result handle is servable
// here: literals always are (the value rides in the handle); otherwise
// the backend's HintResolver facet decides. A backend without the facet
// resolves nothing beyond literals — the conservative default.
func (s *Server) resolvableHint(h core.Handle) bool {
	if h.IsLiteral() {
		return true
	}
	if hr, ok := s.opts.Backend.(HintResolver); ok {
		return hr.ResolvableHint(h)
	}
	return false
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
