package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"fixgo/internal/core"
)

// encodeJSON is what encoding/json writes for v: json.Marshal's bytes and
// the Encoder's (the same plus a newline).
func encodeJSON(t *testing.T, v any) (marshal, encoder []byte) {
	t.Helper()
	marshal, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return marshal, buf.Bytes()
}

// sameFrame checks an append function's output against encoding/json's
// for the same value.
func sameFrame(t *testing.T, name string, frame []byte, v any) {
	t.Helper()
	marshal, encoder := encodeJSON(t, v)
	if !bytes.Equal(frame, marshal) {
		t.Fatalf("%s: framed %q, json.Marshal %q", name, frame, marshal)
	}
	if !bytes.Equal(append(frame, '\n'), encoder) {
		t.Fatalf("%s: framed %q plus newline, Encoder %q", name, frame, encoder)
	}
}

// handlesOf cuts b into Handles, 32 bytes each (the last zero-padded),
// valid or not: the text form does not care.
func handlesOf(b []byte) []core.Handle {
	var hs []core.Handle
	for len(b) > 0 {
		var h core.Handle
		n := copy(h[:], b)
		b = b[n:]
		hs = append(hs, h)
	}
	return hs
}

func plainString(s string) bool {
	for i := 0; i < len(s); i++ {
		if !plainByte(s[i]) {
			return false
		}
	}
	return true
}

// referenceTree is decodeTreeRequest through encoding/json alone.
func referenceTree(b []byte) ([]core.Handle, error) {
	var req TreeRequest
	if err := json.Unmarshal(b, &req); err != nil {
		return nil, fmt.Errorf("decode request: %w", err)
	}
	entries := make([]core.Handle, len(req.Entries))
	for i, e := range req.Entries {
		h, err := parseHandle(e)
		if err != nil {
			return nil, fmt.Errorf("entry %d: %w", i, err)
		}
		entries[i] = h
	}
	return entries, nil
}

// FuzzWireJSON pins the hand-framed JSON shapes to encoding/json in both
// directions. Reading: for any input, when a shape's reader accepts it,
// encoding/json decodes the same value from it, and the server's decode
// (reader, else encoding/json) agrees with encoding/json alone, errors
// included. Writing: for any field values, each append function writes
// json.Marshal's bytes (and with a newline the Encoder's), and its reader
// reads them back whenever every string in them is plain.
func FuzzWireJSON(f *testing.F) {
	enc, result := warmHit(f)
	tree := []core.Handle{core.DefaultLimits.Handle(), result, core.LiteralU64(7)}
	seeds := [][]byte{
		appendJobRequest(nil, enc, false),
		appendJobRequest(nil, enc, true),
		appendTreeRequest(nil, tree),
		appendTreeRequest(nil, nil),
		appendHandleReply(nil, result),
		append(appendJobReply(nil, result, OutcomeHit, 4242, "0123456789abcdef", nil), '\n'),
		appendJobReply(nil, result, OutcomeMiss, -1, "", []byte("inline result bytes")),
		[]byte(`{"handle":"` + core.FormatHandle(enc) + `"}` + "\n\n"),
		[]byte(`{ "handle": "` + core.FormatHandle(enc) + `" }`),
		[]byte(`{"Handle":"` + core.FormatHandle(enc) + `"}`),
		[]byte(`{"handle":"0` + core.FormatHandle(enc)[1:] + `"}`),
		[]byte(`{"entries":null}`),
		[]byte(`{"entries":["",""]}`),
		[]byte(`{"result":"x","outcome":"hit","elapsed_ns":00}`),
		[]byte(`{"result":"x","outcome":"hit","elapsed_ns":1234567890123456789}`),
		[]byte(`{"result":"x","outcome":"hit","elapsed_ns":1,"trace":""}`),
		[]byte(`{"result":"x","outcome":"hit","elapsed_ns":1,"data":"QR=="}`),
		[]byte(`{"handle":"a","include_data":false}`),
		[]byte(`{"handle":"a"}trailing`),
	}
	for i, s := range seeds {
		f.Add(s, "hit", "0123456789abcdef", int64(i*1000-3), i%2 == 0)
	}
	f.Add([]byte("<&>"), "coll apsed", "tr\"ace\\", int64(-1<<63), true)
	f.Add([]byte{0xff, 0xfe}, "\x7f", "\xff", int64(1<<62), false)

	f.Fuzz(func(t *testing.T, doc []byte, outcome, trace string, elapsed int64, includeData bool) {
		// Reading any input.
		if handle, ok := readHandleReply(doc); ok {
			var v HandleReply
			if err := json.Unmarshal(doc, &v); err != nil || v.Handle != string(handle) {
				t.Fatalf("readHandleReply(%q) = %q; encoding/json: %+v, %v", doc, handle, v, err)
			}
		}
		if texts, ok := readTreeRequest(doc, nil); ok {
			var v TreeRequest
			err := json.Unmarshal(doc, &v)
			same := err == nil && v.Entries != nil && len(v.Entries) == len(texts)
			for i := 0; same && i < len(texts); i++ {
				same = v.Entries[i] == string(texts[i])
			}
			if !same {
				t.Fatalf("readTreeRequest(%q) = %q; encoding/json: %+v, %v", doc, texts, v, err)
			}
		}
		if handle, inc, ok := readJobRequest(doc); ok {
			var v JobRequest
			if err := json.Unmarshal(doc, &v); err != nil || v.Handle != string(handle) || v.IncludeData != inc {
				t.Fatalf("readJobRequest(%q) = %q, %v; encoding/json: %+v, %v", doc, handle, inc, v, err)
			}
		}
		if r, ok := readJobReply(doc); ok {
			var v JobReply
			err := json.Unmarshal(doc, &v)
			if err != nil || v.Result != string(r.result) || v.Outcome != string(r.outcome) ||
				v.ElapsedNS != r.elapsedNS || v.Trace != string(r.trace) || !reflect.DeepEqual(v.Data, r.data) {
				t.Fatalf("readJobReply(%q) = %+v; encoding/json: %+v, %v", doc, r, v, err)
			}
		}
		got, gotErr := decodeTreeRequest(doc)
		want, wantErr := referenceTree(doc)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || (gotErr == nil && !reflect.DeepEqual(got, want)) {
			t.Fatalf("decodeTreeRequest(%q) = %v, %v; encoding/json: %v, %v", doc, got, gotErr, want, wantErr)
		}
		handle, inc, err := decodeJobRequest(doc)
		var req JobRequest
		if wantErr = json.Unmarshal(doc, &req); wantErr != nil {
			wantErr = fmt.Errorf("decode request: %w", wantErr)
		}
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || (err == nil && (string(handle) != req.Handle || inc != req.IncludeData)) {
			t.Fatalf("decodeJobRequest(%q) = %q, %v, %v; encoding/json: %+v, %v", doc, handle, inc, err, req, wantErr)
		}

		// Writing any field values.
		hs := handlesOf(doc)
		h := core.Handle{}
		if len(hs) > 0 {
			h = hs[0]
		}
		texts := make([]string, len(hs))
		for i, e := range hs {
			texts[i] = core.FormatHandle(e)
		}
		frame := appendHandleReply(nil, h)
		sameFrame(t, "HandleReply", frame, HandleReply{Handle: core.FormatHandle(h)})
		if back, ok := readHandleReply(append(frame, '\n')); !ok || string(back) != core.FormatHandle(h) {
			t.Fatalf("readHandleReply(%q) = %q, %v", frame, back, ok)
		}
		frame = appendTreeRequest(nil, hs)
		sameFrame(t, "TreeRequest", frame, TreeRequest{Entries: texts})
		if back, ok := readTreeRequest(frame, nil); !ok || len(back) != len(hs) {
			t.Fatalf("readTreeRequest(%q) = %q, %v", frame, back, ok)
		}
		frame = appendJobRequest(nil, h, includeData)
		sameFrame(t, "JobRequest", frame, JobRequest{Handle: core.FormatHandle(h), IncludeData: includeData})
		if back, inc, ok := readJobRequest(frame); !ok || string(back) != core.FormatHandle(h) || inc != includeData {
			t.Fatalf("readJobRequest(%q) = %q, %v, %v", frame, back, inc, ok)
		}
		frame = appendJobReply(nil, h, CacheOutcome(outcome), elapsed, trace, doc)
		sameFrame(t, "JobReply", frame, JobReply{
			Result: core.FormatHandle(h), Outcome: outcome, ElapsedNS: elapsed, Trace: trace, Data: doc,
		})
		back, ok := readJobReply(frame)
		if plainString(outcome) && plainString(trace) {
			if !ok || string(back.outcome) != outcome || string(back.trace) != trace || back.elapsedNS != elapsed ||
				!bytes.Equal(back.data, doc) || (len(doc) == 0) != (back.data == nil) {
				t.Fatalf("readJobReply(%q) = %+v, %v", frame, back, ok)
			}
		} else if ok {
			t.Fatalf("readJobReply accepted an escaped string: %q", frame)
		}
	})
}

// TestWireFallbackKeepsErrors: a body the readers refuse goes through
// encoding/json, whose errors reach the client as before, and a
// non-canonical but valid body is served like a canonical one.
func TestWireFallbackKeepsErrors(t *testing.T) {
	_, c := newTestGateway(t, Options{CacheEntries: 16})
	enc, _ := warmHit(t)
	for body, want := range map[string]string{
		`{"handle":`: "decode request: unexpected end of JSON input",
		`{"handle":"` + core.FormatHandle(core.Handle{}) + `"}`: "gateway: zero handle",
		`{"handle":"abc"}`:     "gateway: core: handle must be 64 hex digits, got 3",
		`{ "handle" : "abc" }`: "gateway: core: handle must be 64 hex digits, got 3",
	} {
		resp, err := c.hc.Post(c.jobsURL, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		got := decodeError(resp).(*StatusError)
		resp.Body.Close()
		if got.Code != 400 || got.Message != want {
			t.Errorf("POST %s = %d %q, want 400 %q", body, got.Code, got.Message, want)
		}
	}
	// The tree upload of a spaced body and of the canonical body name the
	// same Tree.
	tree := []core.Handle{core.LiteralU64(1), enc}
	want, err := c.PutTree(t.Context(), tree)
	if err != nil {
		t.Fatal(err)
	}
	spaced := `{ "entries" : [ "` + core.FormatHandle(tree[0]) + `" , "` + core.FormatHandle(tree[1]) + `" ] }`
	resp, err := c.hc.Post(c.base+"/v1/trees", "application/json", bytes.NewReader([]byte(spaced)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reply HandleReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil || reply.Handle != core.FormatHandle(want) {
		t.Fatalf("spaced tree upload = %+v, %v; want %v", reply, err, want)
	}
}

// TestJSONRepliesDeclareLength: a JSON reply goes out with its
// Content-Length, never chunked, whether net/http adds it (a small hand-
// framed reply) or writeJSON declares it (a body over autoLengthMax).
func TestJSONRepliesDeclareLength(t *testing.T) {
	srv, c := newTestGateway(t, Options{CacheEntries: 16})
	enc, result := warmHit(t)
	srv.cache.warm(enc.AsObject(), result)
	big := bytes.Repeat([]byte{'x'}, autoLengthMax)
	for _, req := range []struct {
		path, body string
	}{
		{"/v1/jobs", string(appendJobRequest(nil, enc, false))},
		{"/v1/blobs", "blob"},
		{"/v1/jobs", `{"handle":"` + string(big) + `"}`}, // a 400 error reply
		{"/v1/jobs:batch", `{"items":[` + strings.Repeat(`{"handle":"`+core.FormatHandle(enc)+`"},`, 15) + `{"handle":"x"}]}`},
	} {
		resp, err := c.hc.Post(c.base+req.path, "application/json", strings.NewReader(req.body))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("POST %s: %d-byte body, Content-Length %d, Transfer-Encoding %v", req.path, len(body), resp.ContentLength, resp.TransferEncoding)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("POST %s: Content-Type %q", req.path, ct)
		}
	}
}
