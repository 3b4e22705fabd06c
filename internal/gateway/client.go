package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"fixgo/internal/core"
)

// DefaultMaxBlobBytes is the client-side download bound of BlobBytes,
// mirroring the server's default Options.MaxBlobBytes: a well-behaved
// gateway never serves a Blob larger than it accepts.
const DefaultMaxBlobBytes = 64 << 20

// Client is the Go SDK for a gateway's HTTP API.
type Client struct {
	base     string
	tenant   string
	maxBytes int64
	hc       *http.Client
}

// ClientOption customizes a Client.
type ClientOption func(*Client)

// WithTenant stamps every request with a tenant identity.
func WithTenant(name string) ClientOption {
	return func(c *Client) { c.tenant = name }
}

// WithHTTPClient substitutes the underlying http.Client (e.g. one whose
// Transport dispatches in-process for benchmarks).
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *Client) { c.hc = hc }
}

// WithMaxBlobBytes overrides the BlobBytes download bound (default
// DefaultMaxBlobBytes). Raise it to match a gateway deployed with a
// larger -max-blob; it never disables the bound.
func WithMaxBlobBytes(n int64) ClientOption {
	return func(c *Client) {
		if n > 0 {
			c.maxBytes = n
		}
	}
}

// NewClient targets a gateway at base, e.g. "http://127.0.0.1:7670".
func NewClient(base string, opts ...ClientOption) *Client {
	c := &Client{
		base:     base,
		maxBytes: DefaultMaxBlobBytes,
		hc:       &http.Client{Timeout: 5 * time.Minute},
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// BlobTooLargeError reports a BlobBytes download that exceeded the
// client's configured bound; the partial body is discarded. A handle
// whose declared size already exceeds the bound fails before any byte
// moves.
type BlobTooLargeError struct {
	// Limit is the configured download bound in bytes.
	Limit int64
}

// Error renders the exceeded bound.
func (e *BlobTooLargeError) Error() string {
	return fmt.Sprintf("gateway: blob exceeds client download limit of %d bytes", e.Limit)
}

// IsBlobTooLarge reports whether err is a client-side download-bound
// violation.
func IsBlobTooLarge(err error) bool {
	var tl *BlobTooLargeError
	return errors.As(err, &tl)
}

// StatusError reports a non-2xx gateway response.
type StatusError struct {
	Code    int
	Message string
}

// Error renders the status and the gateway's error message.
func (e *StatusError) Error() string {
	return fmt.Sprintf("gateway: HTTP %d: %s", e.Code, e.Message)
}

// IsOverloaded reports whether err is a 429 load-shed response.
func IsOverloaded(err error) bool {
	se, ok := err.(*StatusError)
	return ok && se.Code == http.StatusTooManyRequests
}

// IsUnavailable reports whether err is a 503 response — the cluster
// behind the gateway has no live worker to run jobs on. Unlike a 429,
// backing off does not help until workers return; unlike a 500, the job
// itself is fine and can be resubmitted as-is later.
func IsUnavailable(err error) bool {
	se, ok := err.(*StatusError)
	return ok && se.Code == http.StatusServiceUnavailable
}

// PutBlob uploads a Blob and returns its Handle.
func (c *Client) PutBlob(ctx context.Context, data []byte) (core.Handle, error) {
	var reply HandleReply
	if err := c.do(ctx, http.MethodPost, "/v1/blobs", "application/octet-stream", data, &reply); err != nil {
		return core.Handle{}, err
	}
	return parseHandle(reply.Handle)
}

// PutTree uploads a Tree and returns its Handle.
func (c *Client) PutTree(ctx context.Context, entries []core.Handle) (core.Handle, error) {
	req := TreeRequest{Entries: make([]string, len(entries))}
	for i, e := range entries {
		req.Entries[i] = core.FormatHandle(e)
	}
	body, err := json.Marshal(req)
	if err != nil {
		return core.Handle{}, err
	}
	var reply HandleReply
	if err := c.do(ctx, http.MethodPost, "/v1/trees", "application/json", body, &reply); err != nil {
		return core.Handle{}, err
	}
	return parseHandle(reply.Handle)
}

// JobResult is a completed submission as seen by the client.
type JobResult struct {
	Result  core.Handle
	Outcome CacheOutcome
	Elapsed time.Duration // server-side evaluation time
	Data    []byte        // result Blob bytes when requested
}

// Submit evaluates a job (Thunk or Encode) by Handle.
func (c *Client) Submit(ctx context.Context, h core.Handle) (JobResult, error) {
	return c.submit(ctx, h, false)
}

// SubmitFetch evaluates a job and returns the result Blob's bytes inline.
func (c *Client) SubmitFetch(ctx context.Context, h core.Handle) (JobResult, error) {
	return c.submit(ctx, h, true)
}

func (c *Client) submit(ctx context.Context, h core.Handle, includeData bool) (JobResult, error) {
	body, err := json.Marshal(JobRequest{Handle: core.FormatHandle(h), IncludeData: includeData})
	if err != nil {
		return JobResult{}, err
	}
	var reply JobReply
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", "application/json", body, &reply); err != nil {
		return JobResult{}, err
	}
	res, err := parseHandle(reply.Result)
	if err != nil {
		return JobResult{}, err
	}
	return JobResult{
		Result:  res,
		Outcome: CacheOutcome(reply.Outcome),
		Elapsed: time.Duration(reply.ElapsedNS),
		Data:    reply.Data,
	}, nil
}

// BatchResult is one item's outcome of a SubmitBatch call, in
// submission order. Err is set when that item failed; Result and
// Outcome are meaningful otherwise.
type BatchResult struct {
	Result  core.Handle
	Outcome CacheOutcome
	Err     error
}

// SubmitBatch evaluates N jobs in one round trip (POST /v1/jobs:batch).
// Results arrive per item, in submission order: one malformed or failed
// item does not fail its neighbors. A whole-batch refusal — empty batch
// (400), too many items (413), admission shed (429) — returns a
// *StatusError instead.
func (c *Client) SubmitBatch(ctx context.Context, hs []core.Handle) ([]BatchResult, error) {
	req := BatchRequest{Items: make([]BatchItem, len(hs))}
	for i, h := range hs {
		req.Items[i] = BatchItem{Handle: core.FormatHandle(h)}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var reply BatchReply
	if err := c.do(ctx, http.MethodPost, "/v1/jobs:batch", "application/json", body, &reply); err != nil {
		return nil, err
	}
	if len(reply.Items) != len(hs) {
		return nil, fmt.Errorf("gateway: batch reply has %d items, want %d", len(reply.Items), len(hs))
	}
	out := make([]BatchResult, len(reply.Items))
	for i, it := range reply.Items {
		if it.Error != "" {
			out[i].Err = errors.New(it.Error)
			continue
		}
		res, err := parseHandle(it.Result)
		if err != nil {
			out[i].Err = err
			continue
		}
		out[i] = BatchResult{Result: res, Outcome: CacheOutcome(it.Outcome)}
	}
	return out, nil
}

// BlobBytes downloads an object's packed bytes. The read is bounded by
// the client's configured limit (WithMaxBlobBytes, default
// DefaultMaxBlobBytes): a misbehaving gateway serving an endless body
// yields a typed *BlobTooLargeError instead of exhausting client memory.
func (c *Client) BlobBytes(ctx context.Context, h core.Handle) ([]byte, error) {
	if h.IsLiteral() {
		return h.LiteralData(), nil
	}
	// Blob handles carry their payload size; refuse an over-limit
	// download before any byte moves.
	if h.Kind() == core.KindBlob && h.Size() > uint64(c.maxBytes) {
		return nil, &BlobTooLargeError{Limit: c.maxBytes}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/blobs/"+core.FormatHandle(h), nil)
	if err != nil {
		return nil, err
	}
	c.stamp(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, c.maxBytes+1))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) > c.maxBytes {
		return nil, &BlobTooLargeError{Limit: c.maxBytes}
	}
	return data, nil
}

// Stats fetches the gateway's counters.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var st Stats
	return st, c.get(ctx, "/v1/stats", &st)
}

func (c *Client) do(ctx context.Context, method, path, contentType string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", contentType)
	c.stamp(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	// 200 for completed work, 202 for an accepted async submission.
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (c *Client) stamp(req *http.Request) {
	if c.tenant != "" {
		req.Header.Set(TenantHeader, c.tenant)
	}
}

func decodeError(resp *http.Response) error {
	var er ErrorReply
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if json.Unmarshal(data, &er) == nil && er.Error != "" {
		return &StatusError{Code: resp.StatusCode, Message: er.Error}
	}
	return &StatusError{Code: resp.StatusCode, Message: string(data)}
}
