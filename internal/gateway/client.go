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
	base      string
	jobsURL   string // base + "/v1/jobs", the route every Submit takes
	tenant    string
	tenantHdr []string // the X-Fix-Tenant value every request shares
	maxBytes  int64
	hc        *http.Client
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
		jobsURL:  base + "/v1/jobs",
		maxBytes: DefaultMaxBlobBytes,
		hc:       &http.Client{Timeout: 5 * time.Minute},
	}
	for _, o := range opts {
		o(c)
	}
	if c.tenant != "" {
		c.tenantHdr = []string{c.tenant}
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

// octetStreamContentType is PutBlob's Content-Type header value.
var octetStreamContentType = []string{"application/octet-stream"}

// PutBlob uploads a Blob and returns its Handle.
func (c *Client) PutBlob(ctx context.Context, data []byte) (core.Handle, error) {
	return c.postHandle(ctx, c.base+"/v1/blobs", octetStreamContentType, data)
}

// PutTree uploads a Tree and returns its Handle.
func (c *Client) PutTree(ctx context.Context, entries []core.Handle) (core.Handle, error) {
	body := make([]byte, 0, len(`{"entries":[]}`)+len(entries)*(2*core.HandleSize+3))
	return c.postHandle(ctx, c.base+"/v1/trees", jsonContentType, appendTreeRequest(body, entries))
}

// postHandle posts body and reads the HandleReply that answers it.
func (c *Client) postHandle(ctx context.Context, url string, contentType []string, body []byte) (core.Handle, error) {
	var h core.Handle
	reply, err := post[HandleReply](ctx, c, url, contentType, body, func(b []byte) error {
		text, ok := readHandleReply(b)
		if !ok {
			return errNotFramed
		}
		var err error
		h, err = parseHandleBytes(text)
		return err
	})
	if err != nil || reply == nil {
		return h, err
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

// jobRequestCap holds any JobRequest appendJobRequest writes.
const jobRequestCap = len(`{"handle":"","include_data":true}`) + 2*core.HandleSize

func (c *Client) submit(ctx context.Context, h core.Handle, includeData bool) (JobResult, error) {
	var res JobResult
	body := appendJobRequest(make([]byte, 0, jobRequestCap), h, includeData)
	reply, err := post[JobReply](ctx, c, c.jobsURL, jsonContentType, body, func(b []byte) error {
		v, ok := readJobReply(b)
		if !ok {
			return errNotFramed
		}
		r, err := parseHandleBytes(v.result)
		if err == nil {
			res = JobResult{Result: r, Outcome: outcomeOf(v.outcome), Elapsed: time.Duration(v.elapsedNS), Data: v.data}
		}
		return err
	})
	if err != nil || reply == nil {
		return res, err
	}
	r, err := parseHandle(reply.Result)
	if err != nil {
		return JobResult{}, err
	}
	return JobResult{
		Result:  r,
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
	if err := c.do(ctx, http.MethodPost, c.base+"/v1/jobs:batch", body, &reply); err != nil {
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

// do sends a JSON body to url and decodes the 2xx JSON reply into out.
func (c *Client) do(ctx context.Context, method, url string, body []byte, out any) error {
	resp, err := c.send(ctx, method, url, jsonContentType, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// send makes one request. A reply outside 2xx (200 for completed work,
// 202 for an accepted async submission) comes back as a *StatusError.
func (c *Client) send(ctx context.Context, method, url string, contentType []string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header["Content-Type"] = contentType
	c.stamp(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		defer resp.Body.Close()
		return nil, decodeError(resp)
	}
	return resp, nil
}

// maxFramedReply bounds the reply post reads whole into a pooled buffer;
// a longer reply, or one of undeclared length, streams through
// encoding/json as before.
const maxFramedReply = 64 << 10

// errNotFramed is what a post reader returns for a body that is not in
// its shape's hand-framed form.
var errNotFramed = errors.New("gateway: reply not hand-framed")

// post sends body to url and decodes a reply of shape T, which has a
// hand-framed reader (wire.go). A reply of at most maxFramedReply
// declared bytes is read into a pooled buffer and handed to read, which
// decodes it in place and must not keep b. When read returns
// errNotFramed, or the reply was not read whole, encoding/json decodes
// it into the returned *T instead; it is nil when read's result stands.
func post[T any](ctx context.Context, c *Client, url string, contentType []string, body []byte, read func(b []byte) error) (*T, error) {
	resp, err := c.send(ctx, http.MethodPost, url, contentType, body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var dec *json.Decoder
	if resp.ContentLength < 0 || resp.ContentLength > maxFramedReply {
		dec = json.NewDecoder(resp.Body)
	} else {
		buf := getBuf()
		defer putBuf(buf)
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			return nil, err
		}
		if err := read(buf.Bytes()); err != errNotFramed {
			return nil, err
		}
		dec = json.NewDecoder(buf)
	}
	out := new(T)
	if err := dec.Decode(out); err != nil {
		return nil, err
	}
	return out, nil
}

func (c *Client) stamp(req *http.Request) {
	if c.tenantHdr != nil {
		req.Header[TenantHeader] = c.tenantHdr
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
