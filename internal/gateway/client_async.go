package gateway

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
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

func parseJobStatus(r JobStatusReply) (JobStatus, error) {
	js := JobStatus{
		ID:       r.ID,
		Tenant:   r.Tenant,
		State:    jobs.State(r.State),
		Err:      r.Error,
		Attempts: r.Attempts,
		Deduped:  r.Deduped,
	}
	var err error
	if js.Handle, err = parseHandle(r.Handle); err != nil {
		return js, fmt.Errorf("gateway: job %s handle: %w", r.ID, err)
	}
	if r.Result != "" {
		if js.Result, err = parseHandle(r.Result); err != nil {
			return js, fmt.Errorf("gateway: job %s result: %w", r.ID, err)
		}
	}
	if r.EnqueuedNS != 0 {
		js.Enqueued = time.Unix(0, r.EnqueuedNS)
	}
	if r.StartedNS != 0 {
		js.Started = time.Unix(0, r.StartedNS)
	}
	if r.FinishedNS != 0 {
		js.Finished = time.Unix(0, r.FinishedNS)
	}
	return js, nil
}

// SubmitAsync enqueues the evaluation of h (POST /v1/jobs?mode=async)
// and returns immediately with the accepted job's status — deduplicated
// onto the existing job when the same (tenant, handle) is already
// pending, running, or done.
func (c *Client) SubmitAsync(ctx context.Context, h core.Handle) (JobStatus, error) {
	body := appendJobRequest(make([]byte, 0, jobRequestCap), h, false)
	var reply JobStatusReply
	if err := c.do(ctx, http.MethodPost, c.jobsURL+"?mode=async", body, &reply); err != nil {
		return JobStatus{}, err
	}
	return parseJobStatus(reply)
}

// Job fetches a job's current status (GET /v1/jobs/{id}).
func (c *Client) Job(ctx context.Context, id string) (JobStatus, error) {
	var reply JobStatusReply
	if err := c.get(ctx, "/v1/jobs/"+id, &reply); err != nil {
		return JobStatus{}, err
	}
	return parseJobStatus(reply)
}

// WaitJob long-polls one GET /v1/jobs/{id}?wait= round: it returns when
// the job reaches a terminal state or after wait, whichever is first
// (the caller inspects State to tell which).
func (c *Client) WaitJob(ctx context.Context, id string, wait time.Duration) (JobStatus, error) {
	var reply JobStatusReply
	if err := c.get(ctx, fmt.Sprintf("/v1/jobs/%s?wait=%s", id, wait), &reply); err != nil {
		return JobStatus{}, err
	}
	return parseJobStatus(reply)
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
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.base+"/v1/jobs/"+id, nil)
	if err != nil {
		return JobStatus{}, err
	}
	c.stamp(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return JobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return JobStatus{}, decodeError(resp)
	}
	var reply JobStatusReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return JobStatus{}, err
	}
	return parseJobStatus(reply)
}

// ListJobs fetches every job's snapshot, most recent first (GET
// /v1/jobs).
func (c *Client) ListJobs(ctx context.Context) ([]JobStatus, error) {
	var reply JobListReply
	if err := c.get(ctx, "/v1/jobs", &reply); err != nil {
		return nil, err
	}
	out := make([]JobStatus, len(reply.Jobs))
	for i, r := range reply.Jobs {
		js, err := parseJobStatus(r)
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
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	c.stamp(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var reply JobStatusReply
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &reply); err != nil {
			return fmt.Errorf("gateway: bad event payload: %w", err)
		}
		js, err := parseJobStatus(reply)
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

// get fetches a JSON endpoint.
func (c *Client) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	c.stamp(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
