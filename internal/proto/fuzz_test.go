package proto

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"fixgo/internal/core"
)

// corpus is one message of every type, shaped like the ones the round-trip
// tests in proto_test.go use.
func corpus() []*Message {
	blob := bytes.Repeat([]byte{5}, 500)
	h := core.BlobHandle(blob)
	tree := core.TreeHandle([]core.Handle{core.LiteralU64(1)})
	thunk, _ := core.Application(tree)
	enc, _ := core.Strict(thunk)
	pushed := []PushedObject{
		{Handle: tree, Data: core.EncodeTree([]core.Handle{core.LiteralU64(1)})},
		{Handle: h, Data: blob},
	}
	return []*Message{
		{Type: TypeHello, From: "node-3", Role: RoleClient, Adverts: []core.Handle{h, tree, core.LiteralU64(9)}},
		{Type: TypeAdvertise, From: "w1", Adverts: []core.Handle{h}},
		{Type: TypeRequest, From: "x", Handle: h, Trace: "0123456789abcdef"},
		{Type: TypeObject, From: "n1", Handle: h, Data: blob},
		{Type: TypeMissing, From: "x", Handle: h},
		{Type: TypeJob, From: "client", Handle: enc, Hops: 2, Trace: "deadbeefcafef00d", Pushed: pushed},
		{Type: TypeResult, From: "n2", Handle: enc, Result: core.LiteralU64(7), EvalNS: 1234567, Err: "boom"},
		{Type: TypePing, From: "hb-node"},
		{Type: TypePong, From: "hb-node"},
		{Type: TypeReplicate, From: "w1", Handle: h, Trace: "feedface00000001", Data: blob},
		{Type: TypeReplicateAck, From: "w2", Handle: h},
		{Type: TypeEdgeHello, From: "gw-x"},
		{Type: TypeEdgeAppend, From: "gw-a", Seq: 42, Entries: []EdgeEntry{
			{Job: "abc123", Origin: "gw-a", Tenant: "acme", State: 1, AtNS: 999, Handle: enc},
			{Job: "def456", Origin: "gw-b", Tenant: "default", State: 4, AtNS: 1000, Handle: enc, Result: core.LiteralU64(7)},
			{Job: "ghi789", Origin: "gw-a", Tenant: "acme", State: 1, AtNS: 1001, Handle: enc, Objects: pushed},
		}},
		{Type: TypeEdgeAck, From: "gw-b", Seq: 17},
		{Type: TypeEdgeWarm, From: "gw-a", Handle: enc, Result: core.LiteralU64(9)},
		{Type: TypeEdgeLeave, From: "gw-x"},
	}
}

// decodeBudget bounds what Decode may allocate for a frame of n bytes. The
// decoded form of a pushed object or an edge-log entry is wider than its
// wire form, and the widest case (edge entries with objects) stays under
// eight times the frame; the constant covers the Message and the error.
// What the bound excludes is an allocation sized by a length field alone.
func decodeBudget(n int) uint64 { return 8*uint64(n) + 2048 }

// decodeGrowth decodes data and reports how many bytes that allocated.
func decodeGrowth(data []byte) (*Message, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := Decode(data)
	runtime.ReadMemStats(&after)
	return m, after.TotalAlloc - before.TotalAlloc, err
}

// dirty is a message with every field set, for DecodeInto to overwrite.
func dirty() *Message {
	c := corpus()
	job, edge := c[5], c[12]
	return &Message{
		Type: TypeEdgeAppend, From: "stale-sender", Role: RoleClient,
		Handle: job.Handle, Result: job.Handle, Hops: 9, Trace: "stale-trace",
		EvalNS: 77, Err: "stale", Data: []byte("stale"), Adverts: c[0].Adverts,
		Pushed: job.Pushed, Seq: 5, Entries: edge.Entries,
	}
}

// FuzzDecode: Decode never panics, never allocates beyond decodeBudget,
// and what it accepts survives a round trip through Encode. DecodeInto,
// filling a dirty, reused message, gives what Decode gives, with the same
// error, whether or not the sender hint matches; and so it does for the
// second of two frames decoded into one message, whichever of the fuzzed
// frame and a Job with two pushed objects comes first, so that no Pushed
// entry of the first frame shows through and nil and empty slices come
// out as Decode gives them.
func FuzzDecode(f *testing.F) {
	job := corpus()[5].Encode()
	for _, m := range corpus() {
		raw := m.Encode()
		f.Add(raw)
		f.Add(raw[:len(raw)*2/3])
	}
	// A Job that pushes nothing decodes to an empty, non-nil Pushed.
	f.Add((&Message{Type: TypeJob, From: "client", Handle: core.LiteralU64(3)}).Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		m, grew, err := decodeGrowth(data)
		// TotalAlloc is process-wide; another goroutine's allocation can
		// land in one measurement, not in three.
		for try := 0; grew > decodeBudget(len(data)) && try < 2; try++ {
			_, grew, _ = decodeGrowth(data)
		}
		if grew > decodeBudget(len(data)) {
			t.Fatalf("Decode of %d bytes allocated %d", len(data), grew)
		}
		hints := []string{"not-the-sender"}
		if err == nil {
			hints = append(hints, m.From)
		}
		reused := dirty()
		for _, from := range hints {
			errInto := DecodeInto(reused, data, from)
			if fmt.Sprint(errInto) != fmt.Sprint(err) {
				t.Fatalf("DecodeInto with hint %q: error %v, Decode's %v", from, errInto, err)
			}
			if err == nil && !reflect.DeepEqual(reused, m) {
				t.Fatalf("DecodeInto with hint %q differs from Decode:\n got %+v\nwant %+v", from, reused, m)
			}
		}
		for _, pair := range [][2][]byte{{job, data}, {data, job}, {data, data}} {
			want, wantErr := Decode(pair[1])
			into := new(Message)
			_ = DecodeInto(into, pair[0], "")
			errInto := DecodeInto(into, pair[1], "")
			if fmt.Sprint(errInto) != fmt.Sprint(wantErr) {
				t.Fatalf("DecodeInto after another frame: error %v, Decode's %v", errInto, wantErr)
			}
			if wantErr == nil && !reflect.DeepEqual(into, want) {
				t.Fatalf("DecodeInto after another frame differs from Decode:\n got %+v\nwant %+v", into, want)
			}
		}
		if err != nil {
			return
		}
		again, err := Decode(m.Encode())
		if err != nil {
			t.Fatalf("re-decode of an accepted message: %v", err)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("round trip changed the message:\n got %+v\nwant %+v", again, m)
		}
	})
}

// TestDecodeAliasesFrame pins the ownership rule Decode documents: payload
// bytes are slices of the frame, not copies.
func TestDecodeAliasesFrame(t *testing.T) {
	for _, m := range corpus() {
		raw := m.Encode()
		got, err := Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		payloads := [][]byte{got.Data}
		for _, p := range got.Pushed {
			payloads = append(payloads, p.Data)
		}
		for _, p := range payloads {
			if len(p) > 0 && !aliases(raw, p) {
				t.Fatalf("type %d: a payload was copied out of the frame", m.Type)
			}
		}
		for _, e := range got.Entries {
			for _, o := range e.Objects {
				if aliases(raw, o.Data) {
					t.Fatalf("type %d: an edge-log object aliases the frame", m.Type)
				}
			}
		}
	}
}

// aliases reports whether part lies inside whole's memory.
func aliases(whole, part []byte) bool {
	for i := range whole {
		if &whole[i] == &part[0] {
			return true
		}
	}
	return false
}

// TestDecodeAllocs pins the receive path of a delegation (ROADMAP 2 Part
// D): the Message, its From string and the Pushed slice, whatever the
// pushed objects weigh.
func TestDecodeAllocs(t *testing.T) {
	var pushed []PushedObject
	for i := 0; i < 4; i++ {
		data := bytes.Repeat([]byte{byte(i)}, 900)
		pushed = append(pushed, PushedObject{Handle: core.BlobHandle(data), Data: data})
	}
	raw := (&Message{Type: TypeJob, From: "client", Handle: pushed[0].Handle, Hops: 1, Pushed: pushed}).Encode()
	var derr error
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := Decode(raw); err != nil {
			derr = err
		}
	})
	if derr != nil {
		t.Fatal(derr)
	}
	if allocs > 3 {
		t.Fatalf("Decode of a Job frame with four pushed objects allocates %v times, want at most 3", allocs)
	}
}

// TestDecodeIntoReusesPushed: a Job frame decoded into a link's reused
// message, whose Pushed array has room from an earlier Job, allocates
// nothing; the pushed objects are read in place.
func TestDecodeIntoReusesPushed(t *testing.T) {
	job := corpus()[5]
	job.Trace = ""
	raw := job.Encode()
	var m Message
	var derr error
	allocs := testing.AllocsPerRun(200, func() {
		m.Pushed = m.Pushed[:0] // the link keeps the array across frames
		if err := DecodeInto(&m, raw, job.From); err != nil {
			derr = err
		}
	})
	if derr != nil {
		t.Fatal(derr)
	}
	if allocs != 0 || !reflect.DeepEqual(m.Pushed, job.Pushed) {
		t.Fatalf("DecodeInto of a Job: %v allocs, pushed %+v", allocs, m.Pushed)
	}
}

// TestDecodeIntoReusesSender: a Result frame decoded into a link's reused
// message with the sender's ID as the hint allocates nothing; the frames
// a delegation answers with cost no decode allocations.
func TestDecodeIntoReusesSender(t *testing.T) {
	raw := (&Message{Type: TypeResult, From: "worker-7", Handle: core.LiteralU64(1), Result: core.LiteralU64(8), EvalNS: 42}).Encode()
	var m Message
	from := "worker-7"
	var derr error
	allocs := testing.AllocsPerRun(200, func() {
		if err := DecodeInto(&m, raw, from); err != nil {
			derr = err
		}
	})
	if derr != nil {
		t.Fatal(derr)
	}
	if allocs != 0 || m.From != from || m.Result != core.LiteralU64(8) {
		t.Fatalf("DecodeInto of a Result: %v allocs, message %+v", allocs, m)
	}
}
