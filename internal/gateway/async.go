package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"time"

	"fixgo/internal/core"
	"fixgo/internal/jobs"
)

// JobStatusReply is the wire form of one asynchronous job (202 reply to
// an async submission; GET /v1/jobs and /v1/jobs/{id}; SSE event data).
type JobStatusReply struct {
	ID       string `json:"id"`
	Tenant   string `json:"tenant"`
	Handle   string `json:"handle"`
	State    string `json:"state"`
	Result   string `json:"result,omitempty"`
	Error    string `json:"error,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	// Deduped marks a submission that joined an existing job instead of
	// enqueueing new work (only set on the submission reply).
	Deduped bool `json:"deduped,omitempty"`
	// EnqueuedNS / StartedNS / FinishedNS are Unix-nanosecond
	// timestamps; zero until the corresponding transition.
	EnqueuedNS int64 `json:"enqueued_ns,omitempty"`
	StartedNS  int64 `json:"started_ns,omitempty"`
	FinishedNS int64 `json:"finished_ns,omitempty"`
}

// JobListReply is the GET /v1/jobs envelope.
type JobListReply struct {
	Jobs []JobStatusReply `json:"jobs"`
}

// jobReply is the JobStatusReply of v, for the replies still encoded by
// encoding/json (GET /v1/jobs, SSE event data); appendJobStatusReply
// frames the same bytes by hand.
func jobReply(v jobs.Job) JobStatusReply {
	r := JobStatusReply{
		ID:         v.ID,
		Tenant:     v.Tenant,
		Handle:     core.FormatHandle(v.Handle),
		State:      string(v.State),
		Error:      v.Error,
		Attempts:   v.Attempts,
		EnqueuedNS: unixNano(v.Enqueued),
		StartedNS:  unixNano(v.Started),
		FinishedNS: unixNano(v.Finished),
	}
	if v.State == jobs.StateDone {
		r.Result = core.FormatHandle(v.Result)
	}
	return r
}

// replyJobStatus writes v's JobStatusReply with the given status code.
func replyJobStatus(w http.ResponseWriter, code int, v *jobs.Job, deduped bool) {
	buf := getBuf()
	defer putBuf(buf)
	replyFrame(w, code, buf, appendJobStatusReply(buf.AvailableBuffer(), v, deduped))
}

// queryGet is r.URL.Query().Get(key) without building the url.Values
// map: a raw query with nothing to unescape is read in place, and any
// other goes through url.ParseQuery as before.
func queryGet(raw, key string) string {
	if strings.ContainsAny(raw, "%+;") {
		v, _ := url.ParseQuery(raw)
		return v.Get(key)
	}
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if k, v, _ := strings.Cut(pair, "="); k == key {
			return v
		}
	}
	return ""
}

// wantsAsync reports whether a /v1/jobs submission asked for the
// asynchronous lifecycle (?mode=async or Prefer: respond-async). A sync
// submission has neither a query nor the header, and costs nothing here.
func wantsAsync(r *http.Request) bool {
	if r.URL.RawQuery == "" && len(r.Header["Prefer"]) == 0 {
		return false
	}
	if queryGet(r.URL.RawQuery, "mode") == "async" {
		return true
	}
	for _, p := range strings.Split(r.Header.Get("Prefer"), ",") {
		if strings.EqualFold(strings.TrimSpace(p), "respond-async") {
			return true
		}
	}
	return false
}

// handleSubmitAsync enqueues a submission into the job queue and replies
// 202 Accepted immediately with the job's snapshot and Location.
func (s *Server) handleSubmitAsync(w http.ResponseWriter, r *http.Request, t *tenantCounters, handle []byte) {
	h, err := parseHandleBytes(handle)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if h.RefKind() == core.RefThunk {
		// As on the sync path: submitting a bare Thunk means "force it
		// all the way".
		h, _ = core.Strict(h)
	}
	tenant := tenantName(r)
	v, isNew, err := s.jobs.Submit(tenant, h)
	t.jobs.Add(1)
	if err != nil {
		s.jobsFailed.Add(1)
		if errors.Is(err, jobs.ErrQueueFull) {
			t.rejected.Add(1)
		}
	} else if !isNew {
		t.hits.Add(1) // joined an existing job: the async collapse analogue
	}
	if err != nil {
		switch {
		case errors.Is(err, jobs.ErrQueueFull):
			s.fail(w, http.StatusTooManyRequests, err)
		default:
			s.fail(w, http.StatusInternalServerError, err)
		}
		return
	}
	if isNew && s.edge != nil {
		// Replicate the acceptance before acking the 202: once the client
		// holds the 202, a surviving peer must be able to adopt the job.
		// Blocks for a peer quorum, bounded by edgelog's AckTimeout (2s).
		s.edge.Accepted(v.ID, tenant, h, s.opts.Backend.JobPayload(h))
	}
	w.Header().Set("Location", "/v1/jobs/"+v.ID)
	replyJobStatus(w, http.StatusAccepted, &v, !isNew)
}

// errAsyncDisabled is served on the async endpoints when the server was
// built without workers.
var errAsyncDisabled = errors.New("gateway: async jobs are disabled (Options.AsyncWorkers = 0)")

// requireJobs fails the request when async serving is disabled.
func (s *Server) requireJobs(w http.ResponseWriter) bool {
	if s.jobs == nil {
		s.fail(w, http.StatusNotImplemented, errAsyncDisabled)
		return false
	}
	return true
}

// maxJobWait caps GET /v1/jobs/{id}?wait= long-polls so an abandoned
// poll cannot pin a handler goroutine for hours.
const maxJobWait = 60 * time.Second

// handleJobGet serves a job's status, optionally long-polling
// (?wait=30s) until the job reaches a terminal state or the wait
// elapses.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if !s.requireJobs(w) {
		return
	}
	id := r.PathValue("id")
	if waitStr := queryGet(r.URL.RawQuery, "wait"); waitStr != "" {
		wait, err := time.ParseDuration(waitStr)
		if err != nil {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("bad wait duration %q: %v", waitStr, err))
			return
		}
		if wait > maxJobWait {
			wait = maxJobWait
		}
		v, err := s.jobs.Wait(r.Context(), id, wait)
		switch {
		case errors.Is(err, jobs.ErrNotFound):
			s.fail(w, http.StatusNotFound, err)
		case err != nil:
			s.fail(w, http.StatusGatewayTimeout, err)
		default:
			replyJobStatus(w, http.StatusOK, &v, false)
		}
		return
	}
	v, ok := s.jobs.Get(id)
	if !ok {
		s.fail(w, http.StatusNotFound, jobs.ErrNotFound)
		return
	}
	replyJobStatus(w, http.StatusOK, &v, false)
}

// handleJobList serves every job's snapshot, most recent first.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	if !s.requireJobs(w) {
		return
	}
	all := s.jobs.List()
	reply := JobListReply{Jobs: make([]JobStatusReply, len(all))}
	for i, v := range all {
		reply.Jobs[i] = jobReply(v)
	}
	s.reply(w, http.StatusOK, reply)
}

// handleJobCancel cancels a pending or running job (DELETE
// /v1/jobs/{id}); 409 once the job is terminal.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	if !s.requireJobs(w) {
		return
	}
	v, err := s.jobs.Cancel(r.PathValue("id"))
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		s.fail(w, http.StatusNotFound, err)
	case errors.Is(err, jobs.ErrNotCancellable):
		s.fail(w, http.StatusConflict, err)
	case err != nil:
		s.fail(w, http.StatusInternalServerError, err)
	default:
		replyJobStatus(w, http.StatusOK, &v, false)
	}
}

// handleJobEvents streams a job's state transitions as server-sent
// events ("event: state", data = JobStatusReply JSON), closing after the
// terminal transition.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	if !s.requireJobs(w) {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.fail(w, http.StatusInternalServerError, errors.New("gateway: response writer does not support streaming"))
		return
	}
	ch, stop, err := s.jobs.Subscribe(r.PathValue("id"))
	if err != nil {
		s.fail(w, http.StatusNotFound, err)
		return
	}
	defer stop()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	for {
		select {
		case v := <-ch:
			data, err := json.Marshal(jobReply(v))
			if err != nil {
				return
			}
			fmt.Fprintf(w, "event: state\ndata: %s\n\n", data)
			flusher.Flush()
			if v.State.Terminal() {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// tenantName extracts the submitting tenant's identity.
func tenantName(r *http.Request) string {
	if name := r.Header.Get(TenantHeader); name != "" {
		return name
	}
	return defaultTenant
}

// defaultTenant is the tenant of a request that names none.
const defaultTenant = "default"
