package gateway

import (
	"encoding/base64"
	"encoding/json"
	"math"
	"strconv"
	"time"

	"fixgo/internal/core"
	"fixgo/internal/jobs"
)

// Five JSON shapes are framed by hand: the four a warm submission moves —
// JobRequest and JobReply on /v1/jobs, TreeRequest and HandleReply on
// /v1/trees — and JobStatusReply, the 202 of an async submission and the
// reply of GET and DELETE /v1/jobs/{id}. Each append function below
// writes exactly the bytes json.Marshal writes for its shape (the server
// adds the Encoder's trailing newline), and each read function accepts
// exactly that form and nothing else: the fields in declaration order, no
// whitespace, no escapes, omitempty fields absent rather than empty, at
// most one trailing newline. Any other
// input, valid JSON or not, is decoded by encoding/json as before, so the
// choice depends only on the input's bytes. FuzzWireJSON pins both
// directions against encoding/json. Handles are read and written in place
// through core.AppendHandle and core.ParseHandleBytes.

// jsonContentType is the Content-Type header value of every JSON body
// the gateway and its SDK send; header maps share it rather than each
// allocating a one-element slice.
var jsonContentType = []string{"application/json"}

// plainByte reports whether encoding/json writes c inside a string as
// itself: printable ASCII other than the quote, the backslash and the
// three characters it escapes for HTML.
func plainByte(c byte) bool {
	return c >= 0x20 && c < 0x7f && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// appendJSONString appends s as encoding/json writes it. A string of
// plain bytes is quoted as it is; any other goes through json.Marshal, so
// the two cannot disagree on escapes.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plainByte(s[i]) {
			b, _ := json.Marshal(s)
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendQuotedHandle appends h's text form as a JSON string.
func appendQuotedHandle(dst []byte, h core.Handle) []byte {
	dst = append(dst, '"')
	dst = core.AppendHandle(dst, h)
	return append(dst, '"')
}

// appendHandleReply writes HandleReply{Handle: FormatHandle(h)}.
func appendHandleReply(dst []byte, h core.Handle) []byte {
	dst = append(dst, `{"handle":`...)
	dst = appendQuotedHandle(dst, h)
	return append(dst, '}')
}

// appendTreeRequest writes a TreeRequest whose Entries are the text forms
// of entries (an empty list, never null, as the SDK always sent).
func appendTreeRequest(dst []byte, entries []core.Handle) []byte {
	dst = append(dst, `{"entries":[`...)
	for i, e := range entries {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendQuotedHandle(dst, e)
	}
	return append(dst, "]}"...)
}

// appendJobRequest writes JobRequest{Handle: FormatHandle(h),
// IncludeData: includeData}.
func appendJobRequest(dst []byte, h core.Handle, includeData bool) []byte {
	dst = append(dst, `{"handle":`...)
	dst = appendQuotedHandle(dst, h)
	if includeData {
		dst = append(dst, `,"include_data":true`...)
	}
	return append(dst, '}')
}

// appendJobReply writes the JobReply with Result FormatHandle(result)
// and the other fields as given.
func appendJobReply(dst []byte, result core.Handle, outcome CacheOutcome, elapsedNS int64, trace string, data []byte) []byte {
	dst = append(dst, `{"result":`...)
	dst = appendQuotedHandle(dst, result)
	dst = append(dst, `,"outcome":`...)
	dst = appendJSONString(dst, string(outcome))
	dst = append(dst, `,"elapsed_ns":`...)
	dst = strconv.AppendInt(dst, elapsedNS, 10)
	if trace != "" {
		dst = append(dst, `,"trace":`...)
		dst = appendJSONString(dst, trace)
	}
	if len(data) > 0 {
		dst = append(dst, `,"data":"`...)
		dst = base64.StdEncoding.AppendEncode(dst, data)
		dst = append(dst, '"')
	}
	return append(dst, '}')
}

// appendJobStatusReply writes jobReply(*v) with Deduped set to deduped.
func appendJobStatusReply(dst []byte, v *jobs.Job, deduped bool) []byte {
	dst = append(dst, `{"id":`...)
	dst = appendJSONString(dst, v.ID)
	dst = append(dst, `,"tenant":`...)
	dst = appendJSONString(dst, v.Tenant)
	dst = append(dst, `,"handle":`...)
	dst = appendQuotedHandle(dst, v.Handle)
	dst = append(dst, `,"state":`...)
	dst = appendJSONString(dst, string(v.State))
	if v.State == jobs.StateDone {
		dst = append(dst, `,"result":`...)
		dst = appendQuotedHandle(dst, v.Result)
	}
	if v.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = appendJSONString(dst, v.Error)
	}
	dst = appendNonZero(dst, `,"attempts":`, int64(v.Attempts))
	if deduped {
		dst = append(dst, `,"deduped":true`...)
	}
	dst = appendNonZero(dst, `,"enqueued_ns":`, unixNano(v.Enqueued))
	dst = appendNonZero(dst, `,"started_ns":`, unixNano(v.Started))
	dst = appendNonZero(dst, `,"finished_ns":`, unixNano(v.Finished))
	return append(dst, '}')
}

// appendNonZero writes an omitempty integer field.
func appendNonZero(dst []byte, key string, n int64) []byte {
	if n == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), n, 10)
}

// unixNano is a JobStatusReply timestamp: 0 for a transition not yet
// made.
func unixNano(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// wireReader reads one document in the append functions' form, front to
// back. The first mismatch clears ok and every later step is a no-op.
type wireReader struct {
	b  []byte
	ok bool
}

// lit consumes s.
func (r *wireReader) lit(s string) {
	if r.ok && len(r.b) >= len(s) && string(r.b[:len(s)]) == s {
		r.b = r.b[len(s):]
		return
	}
	r.ok = false
}

// has consumes s if the input continues with it.
func (r *wireReader) has(s string) bool {
	if r.ok && len(r.b) >= len(s) && string(r.b[:len(s)]) == s {
		r.b = r.b[len(s):]
		return true
	}
	return false
}

// str consumes a quoted string of plain bytes and returns its contents,
// which alias the input.
func (r *wireReader) str() []byte {
	r.lit(`"`)
	if !r.ok {
		return nil
	}
	for i, c := range r.b {
		if c == '"' {
			s := r.b[:i]
			r.b = r.b[i+1:]
			return s
		}
		if !plainByte(c) {
			break
		}
	}
	r.ok = false
	return nil
}

// int consumes an integer as strconv.AppendInt writes it.
func (r *wireReader) int() int64 {
	if !r.ok {
		return 0
	}
	neg := r.has("-")
	var n uint64 // nineteen digits fit
	i := 0
	for ; i < len(r.b) && i < 20 && isDigit(r.b[i]); i++ {
		n = n*10 + uint64(r.b[i]-'0')
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	// No digits, a leading zero, "-0", or out of int64's range.
	if i == 0 || i > 19 || (r.b[0] == '0' && (i > 1 || neg)) || n > limit || (i < len(r.b) && isDigit(r.b[i])) {
		r.ok = false
		return 0
	}
	r.b = r.b[i:]
	if neg {
		return -int64(n) // -MinInt64 wraps to itself
	}
	return int64(n)
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// optStr consumes an omitempty string field if the input continues with
// key; omitempty never writes an empty one.
func (r *wireReader) optStr(key string) []byte {
	if !r.has(key) {
		return nil
	}
	s := r.str()
	if len(s) == 0 {
		r.ok = false
	}
	return s
}

// optInt consumes an omitempty integer field if the input continues with
// key; omitempty never writes a zero.
func (r *wireReader) optInt(key string) int64 {
	if !r.has(key) {
		return 0
	}
	n := r.int()
	if n == 0 {
		r.ok = false
	}
	return n
}

// end consumes the closing brace, an optional newline and requires the
// end of input.
func (r *wireReader) end() bool {
	r.lit("}")
	r.has("\n")
	return r.ok && len(r.b) == 0
}

// readHandleReply reads appendHandleReply's form; handle aliases b.
func readHandleReply(b []byte) (handle []byte, ok bool) {
	r := wireReader{b: b, ok: true}
	r.lit(`{"handle":`)
	handle = r.str()
	return handle, r.end()
}

// readTreeRequest reads appendTreeRequest's form, appending each entry's
// text (aliasing b) to entries.
func readTreeRequest(b []byte, entries [][]byte) ([][]byte, bool) {
	r := wireReader{b: b, ok: true}
	r.lit(`{"entries":[`)
	if !r.has("]") {
		for r.ok {
			entries = append(entries, r.str())
			if !r.has(",") {
				r.lit("]")
				break
			}
		}
	}
	return entries, r.end()
}

// readJobRequest reads appendJobRequest's form; handle aliases b.
func readJobRequest(b []byte) (handle []byte, includeData, ok bool) {
	r := wireReader{b: b, ok: true}
	r.lit(`{"handle":`)
	handle = r.str()
	includeData = r.has(`,"include_data":true`)
	return handle, includeData, r.end()
}

// jobReplyView is a JobReply read in place: result, outcome and trace
// alias the input; data is decoded into its own slice.
type jobReplyView struct {
	result, outcome, trace []byte
	elapsedNS              int64
	data                   []byte
}

// readJobReply reads appendJobReply's form.
func readJobReply(b []byte) (v jobReplyView, ok bool) {
	r := wireReader{b: b, ok: true}
	r.lit(`{"result":`)
	v.result = r.str()
	r.lit(`,"outcome":`)
	v.outcome = r.str()
	r.lit(`,"elapsed_ns":`)
	v.elapsedNS = r.int()
	v.trace = r.optStr(`,"trace":`)
	if text := r.optStr(`,"data":`); len(text) > 0 {
		v.data = make([]byte, base64.StdEncoding.DecodedLen(len(text)))
		n, err := base64.StdEncoding.Decode(v.data, text)
		if err != nil {
			return v, false
		}
		v.data = v.data[:n]
	}
	return v, r.end()
}

// jobStatusView is a JobStatusReply read in place: its strings alias the
// input.
type jobStatusView struct {
	id, tenant, handle, state, result, err []byte
	attempts                               int64
	deduped                                bool
	enqueuedNS, startedNS, finishedNS      int64
}

// readJobStatusReply reads appendJobStatusReply's form.
func readJobStatusReply(b []byte) (v jobStatusView, ok bool) {
	r := wireReader{b: b, ok: true}
	r.lit(`{"id":`)
	v.id = r.str()
	r.lit(`,"tenant":`)
	v.tenant = r.str()
	r.lit(`,"handle":`)
	v.handle = r.str()
	r.lit(`,"state":`)
	v.state = r.str()
	v.result = r.optStr(`,"result":`)
	v.err = r.optStr(`,"error":`)
	v.attempts = r.optInt(`,"attempts":`)
	v.deduped = r.has(`,"deduped":true`)
	v.enqueuedNS = r.optInt(`,"enqueued_ns":`)
	v.startedNS = r.optInt(`,"started_ns":`)
	v.finishedNS = r.optInt(`,"finished_ns":`)
	return v, r.end()
}

// viewOf is the view of a reply encoding/json decoded, so the fallback
// and the in-place path share one conversion. It copies each string;
// neither the fallback nor ListJobs is on a job's path.
func viewOf(r *JobStatusReply) jobStatusView {
	return jobStatusView{
		id: []byte(r.ID), tenant: []byte(r.Tenant), handle: []byte(r.Handle), state: []byte(r.State),
		result: []byte(r.Result), err: []byte(r.Error), attempts: int64(r.Attempts), deduped: r.Deduped,
		enqueuedNS: r.EnqueuedNS, startedNS: r.StartedNS, finishedNS: r.FinishedNS,
	}
}

// outcomeOf names a reply's outcome, sharing the constants' strings for
// the four the gateway writes.
func outcomeOf(b []byte) CacheOutcome {
	for _, o := range [...]CacheOutcome{OutcomeHit, OutcomeMiss, OutcomeCollapsed, OutcomeBypass} {
		if string(b) == string(o) {
			return o
		}
	}
	return CacheOutcome(b)
}
