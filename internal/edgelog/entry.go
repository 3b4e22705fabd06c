package edgelog

import (
	"fmt"
	"hash/fnv"
	"time"

	"fixgo/internal/core"
	"fixgo/internal/proto"
)

// EntryState is an entry's lifecycle rank. States are totally ordered by
// their byte value, and the fold keeps the highest rank seen for a job —
// that commutativity is what makes replication order-independent: any
// interleaving of appends and snapshots converges replicas to the same
// table.
type EntryState byte

// The entry lifecycle mirrors the async job lifecycle, collapsed to the
// transitions peers care about. Done outranks every other state because
// determinism makes a completed answer valid forever; the terminal
// states outrank Accepted so a settled job is never re-adopted.
const (
	// EntryAccepted: the origin gateway journaled the job and replied
	// 202; the job is adoptable if the origin dies before settling it.
	EntryAccepted EntryState = 1
	// EntryCancelled: the job was cancelled before completing.
	EntryCancelled EntryState = 2
	// EntryDeadLetter: every evaluation attempt failed at the origin.
	EntryDeadLetter EntryState = 3
	// EntryDone: the job completed; Result holds the answer.
	EntryDone EntryState = 4
)

// Terminal reports whether s is a settled state (nothing left to adopt).
func (s EntryState) Terminal() bool { return s != EntryAccepted }

// Entry is one replicated edge-log record: the lifecycle position of an
// accepted async job, keyed by its deterministic job ID.
type Entry struct {
	// Job is the deterministic job ID (jobs.JobID of tenant and handle),
	// the fold key: the same submission maps to the same entry on every
	// gateway, which is what makes duplicate takeover harmless.
	Job string
	// Origin is the gateway that appended the entry's current state.
	Origin string
	// Tenant that submitted the job.
	Tenant string
	// State is the entry's lifecycle rank.
	State EntryState
	// At is the origin's append timestamp (carried on the wire, so every
	// replica evicts terminal entries in the same order).
	At time.Time
	// Handle is the submitted computation.
	Handle core.Handle
	// Result is the evaluated answer; meaningful only when State is
	// EntryDone.
	Result core.Handle
	// Objects is the job's definition closure, replicated with accepted
	// entries so an adopter can execute the job after the origin — and
	// the origin's object store — are gone. The fold drops it when the
	// entry settles: a terminal entry is never re-executed.
	Objects []proto.PushedObject

	// adopted marks that this replica already dispatched a takeover for
	// the entry, making duplicate dead-peer signals (EOF plus heartbeat
	// timeout, or a membership flap) idempotent. Local-only: never
	// replicated.
	adopted bool
}

// rank orders entries for the fold: higher state wins; on equal state
// the incumbent is kept (determinism means an equal-state duplicate
// carries the same answer).
func (e *Entry) rank() EntryState { return e.State }

// wire converts an entry to its proto form.
func (e *Entry) wire() proto.EdgeEntry {
	w := proto.EdgeEntry{
		Job:    e.Job,
		Origin: e.Origin,
		Tenant: e.Tenant,
		State:  byte(e.State),
		AtNS:   e.At.UnixNano(),
		Handle: e.Handle,
		Result: e.Result,
	}
	if !e.State.Terminal() {
		w.Objects = e.Objects
	}
	return w
}

// fromWire converts a proto entry back; invalid states are rejected so a
// corrupted or future-versioned peer cannot poison the fold.
func fromWire(w proto.EdgeEntry) (Entry, error) {
	s := EntryState(w.State)
	if s < EntryAccepted || s > EntryDone {
		return Entry{}, fmt.Errorf("edgelog: invalid entry state %d for job %s", w.State, w.Job)
	}
	e := Entry{
		Job:    w.Job,
		Origin: w.Origin,
		Tenant: w.Tenant,
		State:  s,
		At:     time.Unix(0, w.AtNS),
		Handle: w.Handle,
		Result: w.Result,
	}
	if !s.Terminal() {
		e.Objects = w.Objects
	}
	return e, nil
}

// pickAdopter deterministically designates one live gateway to adopt a
// dead origin's job: rendezvous (highest-random-weight) hashing over
// (candidate, job), so replicas with the same membership view agree on
// a single adopter without coordination — and even when views diverge
// during a partition, a double adoption only resubmits a deterministic
// job ID that the survivor's queue dedups.
func pickAdopter(job string, candidates []string) string {
	var best string
	var bestScore uint64
	for _, c := range candidates {
		h := fnv.New64a()
		h.Write([]byte(c))
		h.Write([]byte{0})
		h.Write([]byte(job))
		if s := h.Sum64(); best == "" || s > bestScore || (s == bestScore && c > best) {
			best, bestScore = c, s
		}
	}
	return best
}
