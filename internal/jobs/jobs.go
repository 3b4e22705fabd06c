// Package jobs is the gateway's asynchronous job-lifecycle subsystem: a
// durable, journaled queue of submitted thunks, a worker pool that
// drains it into the execution backend, and the status/wait/subscribe
// surface behind the gateway's /v1/jobs/{id} endpoints.
//
// The synchronous serving path (internal/gateway) holds the HTTP
// connection open for a whole evaluation, so a long dataflow ties up an
// admission slot and a dropped connection loses the work even though
// Fix's determinism means the answer is already paid for. This package
// decouples submission from execution: a submission is journaled,
// assigned an ID derived from (tenant, thunk handle), and acknowledged
// immediately; clients poll, long-poll, or stream state transitions
// until the result is ready.
//
// Determinism shapes the design throughout:
//
//   - A job ID is the digest of (tenant, handle), so resubmitting the
//     same thunk is idempotent — it joins the existing pending, running,
//     or completed job instead of enqueueing duplicate work (the async
//     mirror of the sync path's single-flight collapsing).
//   - The journal (one append-only file with internal/durable's CRC
//     framing, replayed on boot with torn-tail truncation) makes the
//     queue crash-recoverable: a restarted manager resumes pending jobs,
//     re-runs jobs that were mid-evaluation (re-evaluation is safe and,
//     when the memo journal survived, answered from cache), and keeps
//     serving completed results.
//   - A failed attempt is retried with bounded attempts; a job that
//     exhausts them parks in the dead-letter state for inspection
//     rather than retrying forever.
//
// Dequeue order is per-tenant fair round-robin, so one tenant's
// burst of a thousand jobs does not starve another's single submission.
package jobs

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"fixgo/internal/core"
	"fixgo/internal/durable"
)

// State is a job's lifecycle position.
type State string

// The job lifecycle: Pending → Running → Done, with failed attempts
// looping Running → Pending until attempts are exhausted (→ DeadLetter),
// and cancellation reachable from Pending or Running.
const (
	// StatePending: journaled and waiting for a worker.
	StatePending State = "pending"
	// StateRunning: a worker is evaluating the thunk.
	StateRunning State = "running"
	// StateDone: evaluation succeeded; Result holds the answer.
	StateDone State = "done"
	// StateDeadLetter: every allowed attempt failed; Error holds the
	// last failure. Resubmitting the same (tenant, handle) re-enqueues.
	StateDeadLetter State = "deadletter"
	// StateCancelled: cancelled by DELETE before completing.
	StateCancelled State = "cancelled"
)

// Terminal reports whether s is a final state (no further transitions
// except an explicit resubmission).
func (s State) Terminal() bool {
	return s == StateDone || s == StateDeadLetter || s == StateCancelled
}

// Job is an immutable snapshot of one asynchronous job.
type Job struct {
	// ID is hex(SHA-256(tenant, handle))[:32]: deterministic, so the
	// same submission always maps to the same job.
	ID string
	// Tenant that submitted the job.
	Tenant string
	// Handle of the submitted computation (Thunks arrive pre-wrapped in
	// a Strict Encode by the gateway).
	Handle core.Handle
	// State of the lifecycle.
	State State
	// Result of the evaluation; valid when State == StateDone.
	Result core.Handle
	// Error is the most recent attempt's failure message.
	Error string
	// Attempts counts evaluation attempts so far.
	Attempts int
	// Enqueued, Started, Finished timestamp the lifecycle; Started and
	// Finished are zero until the corresponding transition.
	Enqueued, Started, Finished time.Time
}

// job is the mutable record behind Job snapshots.
type job struct {
	view   Job
	done   chan struct{}      // closed on transition to a terminal state
	cancel context.CancelFunc // set while running
	// cancelRequested records a DELETE on a running job. It alone marks
	// the job cancelled, whatever error the backend surfaces.
	cancelRequested bool
	subs            []chan Job
}

// JobID derives the deterministic job identity for a (tenant, handle)
// submission.
func JobID(tenant string, h core.Handle) string {
	d := sha256.New()
	d.Write([]byte(tenant))
	d.Write([]byte{0})
	d.Write(h[:])
	return hex.EncodeToString(d.Sum(nil))[:32]
}

// Errors reported by the Manager.
var (
	// ErrQueueFull: the pending queue is at MaxQueue; shed load.
	ErrQueueFull = errors.New("jobs: queue is full")
	// ErrNotFound: no job with that ID.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrNotCancellable: the job already reached a terminal state.
	ErrNotCancellable = errors.New("jobs: job already finished")
	// ErrClosed: the manager has shut down.
	ErrClosed = errors.New("jobs: manager is closed")
)

// Options configures a Manager.
type Options struct {
	// Eval evaluates one job's handle to a result. Required. The manager
	// passes a context cancelled when the job is cancelled or the
	// manager closes.
	Eval func(ctx context.Context, h core.Handle) (core.Handle, error)
	// Workers is the drain pool size (default 4).
	Workers int
	// MaxQueue bounds pending jobs; Submit beyond it fails with
	// ErrQueueFull (default 1024).
	MaxQueue int
	// MaxAttempts bounds evaluation attempts before a job parks in the
	// dead-letter state (default 3).
	MaxAttempts int
	// RetainTerminal bounds how many finished (done / dead-letter /
	// cancelled) jobs stay in memory for status queries and dedup
	// (default 8192). Beyond it the oldest-finished jobs are evicted:
	// their IDs then answer 404, and resubmitting one re-enqueues — a
	// safe restart of already-memoized work. The journal keeps every
	// record until the next boot's compaction folds it down.
	RetainTerminal int
	// JournalPath, when non-empty, makes the queue durable: every state
	// transition is journaled there and replayed on the next New.
	JournalPath string
	// Fsync selects the journal's durability policy (default
	// durable.FsyncInterval).
	Fsync durable.FsyncPolicy
	// Logf, when set, receives one line per notable event (replay,
	// compaction, dead-lettered job).
	Logf func(format string, args ...any)
	// Trace, when set, wraps each dequeued attempt's evaluation: called
	// with the attempt's context and the job snapshot as a worker picks
	// the job up, it returns the context to evaluate under (typically
	// carrying a per-request trace) and a finish callback invoked with
	// the attempt's outcome. The gateway uses it to mint async traces
	// anchored at the job's enqueue time, so queue wait is a visible
	// span.
	Trace func(ctx context.Context, j Job) (context.Context, func(err error))
	// Observe, when set, receives every live terminal transition (done,
	// dead-letter, cancelled) after the transition is journaled and —
	// under FsyncAlways — flushed. Journal-replayed transitions are not
	// observed. The gateway uses it to replicate settlements to peer
	// gateways on the edge log.
	Observe func(j Job)
	// CloseGrace bounds how long Close waits for in-flight evaluations to
	// return after their contexts are cancelled (default 5s). The wait is
	// what makes a clean shutdown safe on a replicated edge: a peer that
	// adopts this gateway's jobs after the shutdown announcement must not
	// race an evaluation still executing here, so Close drains the
	// backend flights before it returns. Giving up after the grace (a
	// backend that ignores cancellation) is logged.
	CloseGrace time.Duration
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 1024
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.RetainTerminal <= 0 {
		o.RetainTerminal = 8192
	}
	if o.CloseGrace <= 0 {
		o.CloseGrace = 5 * time.Second
	}
	return o
}

// Stats is the manager's observability snapshot (surfaced at /v1/stats
// and /metrics by the gateway).
type Stats struct {
	// Workers is the drain pool size.
	Workers int `json:"workers"`
	// Depth is the current pending backlog: queued jobs plus jobs
	// waiting out a retry delay.
	Depth int `json:"depth"`
	// Running is the number of jobs being evaluated right now.
	Running int `json:"running"`
	// OldestPendingAgeNS is how long the oldest queued job has waited
	// since its original enqueue (0 when the queue is empty; jobs
	// waiting out a retry delay are counted in Depth but not here).
	OldestPendingAgeNS int64 `json:"oldest_pending_age_ns"`
	// Done / DeadLetter / Cancelled count jobs currently held in each
	// terminal state (including journal-replayed ones).
	Done       int `json:"done"`
	DeadLetter int `json:"deadletter"`
	Cancelled  int `json:"cancelled"`
	// Enqueued / Completed / Failed / Retried / CancelledTotal / Deduped
	// are lifetime counters for this process.
	Enqueued       uint64 `json:"enqueued"`
	Completed      uint64 `json:"completed"`
	Failed         uint64 `json:"failed"` // attempts that failed (retried or dead-lettered)
	Retried        uint64 `json:"retried"`
	CancelledTotal uint64 `json:"cancelled_total"`
	Deduped        uint64 `json:"deduped"`
	// Replayed counts jobs recovered from the journal at startup, and
	// Resumed how many of those re-entered the pending queue.
	Replayed int `json:"replayed"`
	Resumed  int `json:"resumed"`
}

// Manager owns the queue, the journal, and the worker pool.
type Manager struct {
	opts    Options
	journal *durable.Journal // nil when not durable

	mu           sync.Mutex
	cond         *sync.Cond // signals workers when the queue grows or the manager closes
	scratch      []byte     // journal record encode buffer
	jobs         map[string]*job
	queue        *fairQueue
	running      int
	retryWaiting int // pending jobs sitting out their retry delay
	terminal     int // jobs currently held in a terminal state
	closed       bool
	stats        Stats

	baseCtx  context.Context // cancelled on Close; parents every evaluation
	baseStop context.CancelFunc
	wg       sync.WaitGroup // workers
	evalWG   sync.WaitGroup // in-flight backend evaluations (drained by Close)
	timersMu sync.Mutex
	timers   map[*time.Timer]struct{} // outstanding retry timers
}

// New opens (and, when JournalPath is set, replays) the queue and starts
// the worker pool.
func New(opts Options) (*Manager, error) {
	opts = opts.withDefaults()
	if opts.Eval == nil {
		return nil, errors.New("jobs: Options.Eval is required")
	}
	m := &Manager{
		opts:   opts,
		jobs:   make(map[string]*job),
		queue:  newFairQueue(),
		timers: make(map[*time.Timer]struct{}),
	}
	m.cond = sync.NewCond(&m.mu)
	m.baseCtx, m.baseStop = context.WithCancel(context.Background())
	m.stats.Workers = opts.Workers

	if opts.JournalPath != "" {
		if err := m.openJournal(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < opts.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

func (m *Manager) logf(format string, args ...any) {
	if m.opts.Logf != nil {
		m.opts.Logf(format, args...)
	}
}

// recJob is the journal's one record type: a job's snapshot after a
// transition. Replay keeps each job's last snapshot.
const recJob = byte(1)

// jobsJournalMagic distinguishes a jobs journal from the memo journal
// and pack files sharing the data-dir. A FIXJOBS1 journal (one JSON
// record per transition kind) fails to open with a bad-magic error that
// names the file.
const jobsJournalMagic = "FIXJOBS2"

// stateCodes numbers the states in a record: a state's code is its index.
var stateCodes = [...]State{StatePending, StateRunning, StateDone, StateDeadLetter, StateCancelled}

// jobRecordFixed is a record's fixed-width head: state code, attempts,
// handle, result and three timestamps.
const jobRecordFixed = 1 + 4 + 2*core.HandleSize + 3*8

// appendJob appends v's record to buf: the state code, Attempts (uint32),
// Handle, Result, the Enqueued/Started/Finished times in Unix nanoseconds
// (0 for the zero time), then Tenant and Error, each behind a uint32
// length. The ID is not stored: it is JobID(Tenant, Handle).
func appendJob(buf []byte, v *Job) []byte {
	code := 0
	for i, s := range stateCodes {
		if s == v.State {
			code = i
		}
	}
	buf = append(buf, byte(code))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(v.Attempts))
	buf = append(buf, v.Handle[:]...)
	buf = append(buf, v.Result[:]...)
	for _, t := range [...]time.Time{v.Enqueued, v.Started, v.Finished} {
		var ns int64
		if !t.IsZero() {
			ns = t.UnixNano()
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(ns))
	}
	for _, s := range [...]string{v.Tenant, v.Error} {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
		buf = append(buf, s...)
	}
	return buf
}

// errJobRecord reports a jobs journal record that is not appendJob's
// output.
var errJobRecord = errors.New("jobs: malformed job record")

// decodeJob parses one appendJob record. It accepts only what appendJob
// writes, so re-encoding a decoded record gives back its bytes.
func decodeJob(p []byte) (Job, error) {
	if len(p) < jobRecordFixed || int(p[0]) >= len(stateCodes) {
		return Job{}, errJobRecord
	}
	v := Job{State: stateCodes[p[0]], Attempts: int(binary.LittleEndian.Uint32(p[1:]))}
	p = p[5:]
	p = p[copy(v.Handle[:], p):]
	p = p[copy(v.Result[:], p):]
	for _, t := range [...]*time.Time{&v.Enqueued, &v.Started, &v.Finished} {
		if ns := int64(binary.LittleEndian.Uint64(p)); ns != 0 {
			*t = time.Unix(0, ns)
		}
		p = p[8:]
	}
	for _, s := range [...]*string{&v.Tenant, &v.Error} {
		if len(p) < 4 || uint64(len(p)-4) < uint64(binary.LittleEndian.Uint32(p)) {
			return Job{}, errJobRecord
		}
		n := 4 + int(binary.LittleEndian.Uint32(p))
		*s = string(p[4:n])
		p = p[n:]
	}
	if len(p) != 0 {
		return Job{}, errJobRecord
	}
	v.ID = JobID(v.Tenant, v.Handle)
	return v, nil
}

// openJournal replays the journal into the in-memory job table,
// re-enqueues every non-terminal job, and compacts the file when replay
// shows it has grown well past the folded state.
func (m *Manager) openJournal() error {
	records := 0
	j, dropped, err := durable.OpenJournal(m.opts.JournalPath, jobsJournalMagic, m.opts.Fsync, func(recType byte, payload []byte) error {
		records++
		if recType != recJob {
			return fmt.Errorf("jobs: unexpected journal record type %d", recType)
		}
		v, err := decodeJob(payload)
		if err != nil {
			return err
		}
		m.jobs[v.ID] = &job{view: v}
		return nil
	})
	if err != nil {
		return err
	}
	m.journal = j
	if dropped > 0 {
		m.logf("jobs: %s: truncated %d-byte torn tail", m.opts.JournalPath, dropped)
	}
	// Re-enqueue everything non-terminal: pending jobs resume where they
	// were; running jobs restart from pending — determinism makes
	// re-evaluation safe, and a surviving memo entry makes it cheap. The
	// attempt count carries over, so a job that keeps killing its gateway
	// still reaches the dead-letter state.
	resumed := 0
	for _, jb := range m.jobs {
		jb.done = make(chan struct{})
		if jb.view.State.Terminal() {
			close(jb.done)
			m.terminal++
			continue
		}
		jb.view.State = StatePending
		jb.view.Error = ""
		m.queue.push(jb)
		resumed++
	}
	m.stats.Replayed = len(m.jobs)
	m.stats.Resumed = resumed
	if len(m.jobs) > 0 {
		m.logf("jobs: recovered %d jobs from %s (%d resumed as pending)", len(m.jobs), m.opts.JournalPath, resumed)
	}
	// Apply the retention bound to the replayed image too, so a journal
	// accumulated over many lives does not resurrect an unbounded job
	// table (and so the compaction below folds only what is retained).
	m.evictTerminalLocked()
	// Compact when the journal carries more than twice the records the
	// folded state needs (one snapshot per job), so a long-lived queue
	// does not replay every historical transition forever.
	if records > 2*len(m.jobs)+16 {
		if err := m.compactLocked(); err != nil {
			m.logf("jobs: compaction failed: %v", err)
		} else {
			m.logf("jobs: compacted journal %s: %d records -> %d jobs", m.opts.JournalPath, records, len(m.jobs))
		}
	}
	return nil
}

// compactLocked rewrites the journal to one snapshot per held job.
// Called during New (before workers start) — the job table is quiescent.
func (m *Manager) compactLocked() error {
	return m.journal.Rewrite(func(emit func(byte, []byte) error) error {
		for _, jb := range m.jobs {
			m.scratch = appendJob(m.scratch[:0], &jb.view)
			if err := emit(recJob, m.scratch); err != nil {
				return err
			}
		}
		return nil
	})
}

// appendLocked journals the job's snapshot (no-op without a journal).
// Journal append failures are logged, not fatal: the in-memory queue
// keeps serving, degraded to the non-durable mode, which mirrors how the
// object store surfaces PersistErrors rather than failing writes.
// Under FsyncAlways the flush itself happens in commit, outside m.mu.
func (m *Manager) appendLocked(jb *job) {
	if m.journal == nil {
		return
	}
	m.scratch = appendJob(m.scratch[:0], &jb.view)
	if err := m.journal.Append(recJob, m.scratch); err != nil {
		m.logf("jobs: journal append: %v", err)
	}
}

// commit flushes the journal when its policy demands per-transition
// durability (durable.Journal.Commit). Call it after releasing m.mu but
// before acknowledging the transition to the caller.
func (m *Manager) commit() {
	if m.journal == nil {
		return
	}
	if err := m.journal.Commit(); err != nil {
		m.logf("jobs: journal sync: %v", err)
	}
}

// Submit enqueues the evaluation of h for tenant, or joins the existing
// job for the same (tenant, handle). It reports the job's snapshot and
// whether this call enqueued new work (false: deduped onto a pending,
// running, or already-completed job).
func (m *Manager) Submit(tenant string, h core.Handle) (Job, bool, error) {
	v, isNew, err := m.submit(tenant, h)
	if isNew {
		// The enqueue record is durable before the 202 is acked.
		m.commit()
	}
	return v, isNew, err
}

func (m *Manager) submit(tenant string, h core.Handle) (Job, bool, error) {
	id := JobID(tenant, h)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return Job{}, false, ErrClosed
	}
	replacesTerminal := false
	if jb, ok := m.jobs[id]; ok {
		switch jb.view.State {
		case StatePending, StateRunning, StateDone:
			// The collapse invariant: identical submissions share one
			// job, and a completed job's answer is valid forever.
			m.stats.Deduped++
			return jb.view, false, nil
		}
		// DeadLetter / Cancelled: an explicit resubmission re-enqueues,
		// replacing the held terminal record — but only if it actually
		// enqueues, so a shed resubmission does not skew the count.
		replacesTerminal = true
	}
	if m.queue.size >= m.opts.MaxQueue {
		return Job{}, false, ErrQueueFull
	}
	if replacesTerminal {
		m.terminal--
	}
	jb := &job{
		view: Job{
			ID:       id,
			Tenant:   tenant,
			Handle:   h,
			State:    StatePending,
			Enqueued: time.Now(),
		},
		done: make(chan struct{}),
	}
	m.jobs[id] = jb
	m.queue.push(jb)
	m.stats.Enqueued++
	m.appendLocked(jb)
	m.publishLocked(jb)
	m.cond.Signal()
	return jb.view, true, nil
}

// Get returns a job's snapshot.
func (m *Manager) Get(id string) (Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	jb, ok := m.jobs[id]
	if !ok {
		return Job{}, false
	}
	return jb.view, true
}

// Wait blocks until the job reaches a terminal state, the wait duration
// elapses (returning the then-current snapshot), or ctx is cancelled.
func (m *Manager) Wait(ctx context.Context, id string, wait time.Duration) (Job, error) {
	m.mu.Lock()
	jb, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return Job{}, ErrNotFound
	}
	done := jb.done
	if jb.view.State.Terminal() {
		v := jb.view
		m.mu.Unlock()
		return v, nil
	}
	m.mu.Unlock()
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-done:
	case <-t.C:
	case <-ctx.Done():
		return Job{}, ctx.Err()
	}
	// The job can have finished AND been evicted by the retention bound
	// while we waited; report that as not-found, not a zero snapshot.
	v, ok := m.Get(id)
	if !ok {
		return Job{}, ErrNotFound
	}
	return v, nil
}

// Cancel cancels a pending or running job. A pending job is removed from
// the queue immediately; a running job's evaluation context is
// cancelled, and the job settles to StateCancelled when the worker
// observes it (unless the evaluation wins the race and completes —
// determinism means a completed answer is always worth keeping).
func (m *Manager) Cancel(id string) (Job, error) {
	v, err := m.cancel(id)
	m.commit()
	// A pending-cancel settles here; a running-cancel settles in the
	// worker loop, which observes it there.
	if err == nil && v.State.Terminal() && m.opts.Observe != nil {
		m.opts.Observe(v)
	}
	return v, err
}

func (m *Manager) cancel(id string) (Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	jb, ok := m.jobs[id]
	if !ok {
		return Job{}, ErrNotFound
	}
	switch jb.view.State {
	case StatePending:
		m.queue.remove(jb)
		m.finishLocked(jb, StateCancelled)
		return jb.view, nil
	case StateRunning:
		jb.cancelRequested = true
		if jb.cancel != nil {
			jb.cancel()
		}
		return jb.view, nil
	default:
		return jb.view, ErrNotCancellable
	}
}

// Subscribe registers for every state transition of one job, starting
// with its current snapshot. The channel is buffered; a subscriber that
// falls far behind loses intermediate transitions but always receives
// the terminal one (the channel is drained by force for it). stop must
// be called to release the subscription.
func (m *Manager) Subscribe(id string) (<-chan Job, func(), error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	jb, ok := m.jobs[id]
	if !ok {
		return nil, nil, ErrNotFound
	}
	ch := make(chan Job, 16)
	ch <- jb.view
	if jb.view.State.Terminal() {
		// Nothing further will be published; the caller sees the
		// terminal snapshot and stops.
		return ch, func() {}, nil
	}
	jb.subs = append(jb.subs, ch)
	stop := func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		for i, c := range jb.subs {
			if c == ch {
				jb.subs = append(jb.subs[:i:i], jb.subs[i+1:]...)
				break
			}
		}
	}
	return ch, stop, nil
}

// publishLocked fans a job's current snapshot out to its subscribers.
func (m *Manager) publishLocked(jb *job) {
	terminal := jb.view.State.Terminal()
	for _, ch := range jb.subs {
		select {
		case ch <- jb.view:
		default:
			if terminal {
				// Make room: the terminal transition must not be lost.
				select {
				case <-ch:
				default:
				}
				select {
				case ch <- jb.view:
				default:
				}
			}
		}
	}
	if terminal {
		jb.subs = nil
	}
}

// List snapshots every job, most recently enqueued first.
func (m *Manager) List() []Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Job, 0, len(m.jobs))
	for _, jb := range m.jobs {
		out = append(out, jb.view)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Enqueued.After(out[j].Enqueued) })
	return out
}

// Stats snapshots the manager's counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.stats
	st.Depth = m.queue.size + m.retryWaiting
	st.Running = m.running
	if oldest, ok := m.queue.oldest(); ok {
		st.OldestPendingAgeNS = time.Since(oldest).Nanoseconds()
	}
	for _, jb := range m.jobs {
		switch jb.view.State {
		case StateDone:
			st.Done++
		case StateDeadLetter:
			st.DeadLetter++
		case StateCancelled:
			st.Cancelled++
		}
	}
	return st
}

// Close stops the workers, cancels running evaluations, waits up to
// CloseGrace for the cancelled backend flights to return, and closes
// the journal. Pending jobs stay journaled and resume on the next New.
//
// The grace wait pins the no-double-execution window for replicated
// edges: interrupted jobs revert to pending (in memory and, via replay,
// in the journal), and only after their backend flights have actually
// returned does Close return — so a shutdown sequence that announces
// departure to peers *after* Close cannot let an adopting peer execute
// a job this gateway is still executing.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()
	m.baseStop()
	m.cond.Broadcast()
	m.timersMu.Lock()
	for t := range m.timers {
		t.Stop()
	}
	m.timersMu.Unlock()
	m.wg.Wait()
	drained := make(chan struct{})
	go func() {
		m.evalWG.Wait()
		close(drained)
	}()
	grace := time.NewTimer(m.opts.CloseGrace)
	defer grace.Stop()
	select {
	case <-drained:
	case <-grace.C:
		m.logf("jobs: close: abandoning in-flight evaluations after %v grace (backend ignores cancellation)", m.opts.CloseGrace)
	}
	if m.journal != nil {
		return m.journal.Close()
	}
	return nil
}

// worker drains the queue until the manager closes.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for m.queue.size == 0 && !m.closed {
			m.cond.Wait()
		}
		if m.closed {
			m.mu.Unlock()
			return
		}
		jb := m.queue.pop()
		if jb == nil || jb.view.State != StatePending {
			// Cancelled while queued (remove can miss a job a concurrent
			// pop already took).
			m.mu.Unlock()
			continue
		}
		ctx, cancel := context.WithCancel(m.baseCtx)
		jb.cancel = cancel
		jb.view.State = StateRunning
		jb.view.Attempts++
		jb.view.Started = time.Now()
		m.appendLocked(jb)
		m.publishLocked(jb)
		h := jb.view.Handle
		view := jb.view
		m.running++
		m.mu.Unlock()
		m.commit()

		evalCtx := ctx
		var traceDone func(error)
		if m.opts.Trace != nil {
			evalCtx, traceDone = m.opts.Trace(ctx, view)
		}

		// Run the evaluation in a child goroutine so shutdown does not
		// block on a backend that cannot observe cancellation: on Close
		// the worker abandons the flight (the goroutine drains into the
		// buffered channel whenever the backend eventually returns) and
		// the job reverts to pending, exactly as the journal would
		// replay it after a hard crash.
		type evalOut struct {
			result core.Handle
			err    error
		}
		ch := make(chan evalOut, 1)
		m.evalWG.Add(1)
		go func() {
			defer m.evalWG.Done()
			r, err := m.opts.Eval(evalCtx, h)
			ch <- evalOut{r, err}
		}()
		var out evalOut
		interrupted := false
		select {
		case out = <-ch:
		case <-m.baseCtx.Done():
			interrupted = true
		}
		cancel()
		result, err := out.result, out.err
		if traceDone != nil && !interrupted {
			traceDone(err)
		}

		m.mu.Lock()
		m.running--
		jb.cancel = nil
		switch {
		case interrupted:
			jb.view.State = StatePending
		case err == nil:
			// A completed answer is kept even when cancellation raced
			// it: determinism means it is paid for and valid forever.
			jb.view.Result = result
			jb.view.Error = ""
			m.stats.Completed++
			m.finishLocked(jb, StateDone)
		case jb.cancelRequested && m.baseCtx.Err() == nil:
			// Cancelled via DELETE. Only the recorded request counts: a
			// backend racing the cancellation may surface its own error,
			// and a context.Canceled nobody requested is a failed attempt.
			// (Manager shutdown instead leaves the job pending in the
			// journal, to resume on reboot.)
			m.finishLocked(jb, StateCancelled)
		case m.baseCtx.Err() != nil:
			// Shutdown interrupted the evaluation: revert to pending in
			// memory; the journal's running snapshot replays as pending.
			jb.view.State = StatePending
		default:
			m.stats.Failed++
			jb.view.Error = err.Error()
			if jb.view.Attempts >= m.opts.MaxAttempts {
				m.finishLocked(jb, StateDeadLetter)
				m.logf("jobs: job %s dead-lettered after %d attempts: %v", jb.view.ID, jb.view.Attempts, err)
			} else {
				// Finished stays zero: the job is pending again, not
				// done.
				jb.view.State = StatePending
				m.stats.Retried++
				m.appendLocked(jb)
				m.publishLocked(jb)
				m.scheduleRetryLocked(jb)
			}
		}
		settled := jb.view
		m.mu.Unlock()
		m.commit()
		if m.opts.Observe != nil && settled.State.Terminal() {
			m.opts.Observe(settled)
		}
	}
}

// finishLocked settles a job into a terminal state, journals it, closes
// its done channel, notifies subscribers, and evicts the oldest held
// terminal jobs once the retention bound is exceeded.
func (m *Manager) finishLocked(jb *job, s State) {
	jb.view.State = s
	jb.view.Finished = time.Now()
	m.terminal++
	m.evictTerminalLocked()
	if s == StateCancelled {
		m.stats.CancelledTotal++
	}
	m.appendLocked(jb)
	close(jb.done)
	m.publishLocked(jb)
}

// evictTerminalLocked drops the oldest-finished terminal jobs once the
// retention bound is exceeded by an eighth, amortizing the scan. Note
// that the retry requeue path deliberately bypasses MaxQueue: a job the
// gateway already accepted with a 202 is never dropped, and the true
// backlog stays bounded by MaxQueue + Workers anyway.
func (m *Manager) evictTerminalLocked() {
	retain := m.opts.RetainTerminal
	if m.terminal <= retain+retain/8 {
		return
	}
	oldest := make([]*job, 0, m.terminal)
	for _, jb := range m.jobs {
		if jb.view.State.Terminal() {
			oldest = append(oldest, jb)
		}
	}
	sort.Slice(oldest, func(i, j int) bool {
		return oldest[i].view.Finished.Before(oldest[j].view.Finished)
	})
	for _, jb := range oldest[:len(oldest)-retain] {
		delete(m.jobs, jb.view.ID)
		m.terminal--
	}
}

// retryDelay spaces retries of a failed attempt.
const retryDelay = 100 * time.Millisecond

// scheduleRetryLocked re-enqueues a failed job after retryDelay.
func (m *Manager) scheduleRetryLocked(jb *job) {
	m.retryWaiting++
	// timersMu is held across AfterFunc so the callback (which locks it
	// first) cannot observe t before the assignment below completes.
	m.timersMu.Lock()
	defer m.timersMu.Unlock()
	var t *time.Timer
	t = time.AfterFunc(retryDelay, func() {
		m.timersMu.Lock()
		delete(m.timers, t)
		m.timersMu.Unlock()
		m.mu.Lock()
		defer m.mu.Unlock()
		m.retryWaiting--
		if m.closed || jb.view.State != StatePending {
			return
		}
		m.queue.push(jb)
		m.cond.Signal()
	})
	m.timers[t] = struct{}{}
}
