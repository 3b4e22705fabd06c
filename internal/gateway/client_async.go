package gateway

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"fixgo/internal/core"
	"fixgo/internal/jobs"
)

// JobStatus is an asynchronous job as seen by the client.
type JobStatus struct {
	// ID addresses the job in every follow-up call.
	ID string
	// Tenant that owns the job.
	Tenant string
	// Handle of the submitted computation.
	Handle core.Handle
	// State of the lifecycle (jobs.StatePending … jobs.StateCancelled).
	State jobs.State
	// Result holds the answer once State == jobs.StateDone.
	Result core.Handle
	// Err is the most recent attempt's failure message.
	Err string
	// Attempts counts evaluation attempts so far.
	Attempts int
	// Deduped marks a submission that joined an existing job.
	Deduped bool
	// Enqueued, Started, Finished timestamp the lifecycle (zero until
	// the corresponding transition).
	Enqueued, Started, Finished time.Time
}

// Done reports whether the job reached a terminal state.
func (j JobStatus) Done() bool { return j.State.Terminal() }

// jobStatus converts a JobStatusReply read in place. It allocates only
// what the client does not hold already: id is reused when the reply
// names the job asked about, and so are the client's tenant, the
// server's default tenant and the lifecycle states.
func (c *Client) jobStatus(v jobStatusView, id string) (JobStatus, error) {
	if string(v.id) != id {
		id = string(v.id)
	}
	js := JobStatus{
		ID:       id,
		Tenant:   c.tenantOf(v.tenant),
		State:    stateOf(v.state),
		Attempts: int(v.attempts),
		Deduped:  v.deduped,
		Enqueued: timeOf(v.enqueuedNS),
		Started:  timeOf(v.startedNS),
		Finished: timeOf(v.finishedNS),
	}
	if len(v.err) > 0 {
		js.Err = string(v.err)
	}
	var err error
	if js.Handle, err = parseHandleBytes(v.handle); err != nil {
		return js, fmt.Errorf("gateway: job %s handle: %w", id, err)
	}
	if len(v.result) > 0 {
		if js.Result, err = parseHandleBytes(v.result); err != nil {
			return js, fmt.Errorf("gateway: job %s result: %w", id, err)
		}
	}
	return js, nil
}

// tenantOf names a reply's tenant, sharing the client's own string.
func (c *Client) tenantOf(b []byte) string {
	switch string(b) {
	case c.tenant:
		return c.tenant
	case defaultTenant:
		return defaultTenant
	}
	return string(b)
}

// stateOf names a reply's state, sharing the constants' strings.
func stateOf(b []byte) jobs.State {
	for _, s := range [...]jobs.State{jobs.StatePending, jobs.StateRunning, jobs.StateDone, jobs.StateDeadLetter, jobs.StateCancelled} {
		if string(b) == string(s) {
			return s
		}
	}
	return jobs.State(b)
}

// timeOf is a reply timestamp as a time: zero for 0.
func timeOf(ns int64) time.Time {
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// jobCall sends one request, with a JSON body or none, whose reply is a
// JobStatusReply about job id ("" when the request names none).
func (c *Client) jobCall(ctx context.Context, method, url string, body []byte, id string) (JobStatus, error) {
	var js JobStatus
	reply, err := call[JobStatusReply](ctx, c, method, url, jsonType(body), body, func(b []byte) error {
		v, ok := readJobStatusReply(b)
		if !ok {
			return errNotFramed
		}
		var err error
		js, err = c.jobStatus(v, id)
		return err
	})
	if err != nil || reply == nil {
		return js, err
	}
	return c.jobStatus(viewOf(reply), id)
}

// SubmitAsync enqueues the evaluation of h (POST /v1/jobs?mode=async)
// and returns immediately with the accepted job's status — deduplicated
// onto the existing job when the same (tenant, handle) is already
// pending, running, or done.
func (c *Client) SubmitAsync(ctx context.Context, h core.Handle) (JobStatus, error) {
	body := appendJobRequest(make([]byte, 0, jobRequestCap), h, false)
	return c.jobCall(ctx, http.MethodPost, c.asyncURL, body, "")
}

// Job fetches a job's current status (GET /v1/jobs/{id}).
func (c *Client) Job(ctx context.Context, id string) (JobStatus, error) {
	return c.jobCall(ctx, http.MethodGet, c.jobsURL+"/"+id, nil, id)
}

// WaitJob long-polls one GET /v1/jobs/{id}?wait= round: it returns when
// the job reaches a terminal state or after wait, whichever is first
// (the caller inspects State to tell which).
func (c *Client) WaitJob(ctx context.Context, id string, wait time.Duration) (JobStatus, error) {
	var buf [128]byte
	url := append(buf[:0], c.jobsURL...)
	url = append(append(url, '/'), id...)
	url = appendWait(append(url, "?wait="...), wait)
	return c.jobCall(ctx, http.MethodGet, string(url), nil, id)
}

// appendWait appends wait as time.Duration.String writes it, formatting
// a whole number of seconds under a minute (AwaitJob's rounds) in place.
func appendWait(dst []byte, wait time.Duration) []byte {
	if wait > 0 && wait < time.Minute && wait%time.Second == 0 {
		return append(strconv.AppendInt(dst, int64(wait/time.Second), 10), 's')
	}
	return append(dst, wait.String()...)
}

// AwaitJob long-polls until the job reaches a terminal state or ctx is
// cancelled.
func (c *Client) AwaitJob(ctx context.Context, id string) (JobStatus, error) {
	for {
		js, err := c.WaitJob(ctx, id, 30*time.Second)
		if err != nil || js.Done() {
			return js, err
		}
		if err := ctx.Err(); err != nil {
			return js, err
		}
	}
}

// CancelJob cancels a pending or running job (DELETE /v1/jobs/{id}).
// Cancelling an already-finished job fails with a 409 StatusError.
func (c *Client) CancelJob(ctx context.Context, id string) (JobStatus, error) {
	return c.jobCall(ctx, http.MethodDelete, c.jobsURL+"/"+id, nil, id)
}

// ListJobs fetches every job's snapshot, most recent first (GET
// /v1/jobs).
func (c *Client) ListJobs(ctx context.Context) ([]JobStatus, error) {
	var reply JobListReply
	if err := c.do(ctx, http.MethodGet, c.jobsURL, nil, &reply); err != nil {
		return nil, err
	}
	out := make([]JobStatus, len(reply.Jobs))
	for i := range reply.Jobs {
		js, err := c.jobStatus(viewOf(&reply.Jobs[i]), "")
		if err != nil {
			return nil, err
		}
		out[i] = js
	}
	return out, nil
}

// JobEvents streams a job's state transitions (GET /v1/jobs/{id}/events,
// server-sent events), calling fn for each until the terminal
// transition, fn returns an error, or ctx is cancelled. It returns nil
// after the terminal event.
func (c *Client) JobEvents(ctx context.Context, id string, fn func(JobStatus) error) error {
	resp, err := c.send(ctx, http.MethodGet, c.jobsURL+"/"+id+"/events", nil, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		data := []byte(strings.TrimPrefix(line, "data: "))
		v, ok := readJobStatusReply(data)
		if !ok {
			var reply JobStatusReply
			if err := json.Unmarshal(data, &reply); err != nil {
				return fmt.Errorf("gateway: bad event payload: %w", err)
			}
			v = viewOf(&reply)
		}
		js, err := c.jobStatus(v, id)
		if err != nil {
			return err
		}
		if err := fn(js); err != nil {
			return err
		}
		if js.Done() {
			return nil
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return err
	}
	return ctx.Err()
}
