// Package proto defines the packed binary messages Fixpoint nodes exchange
// (section 4.2.1: the Network Worker's wire format). Because dependency
// information travels inside Fix objects themselves — Handles carry type
// and size, Trees carry their children — the protocol needs only a handful
// of message types and no side metadata or extra round trips: a delegation
// is one Job frame and one Result frame, and only a result that is a
// stored object (not a literal, whose contents are in the handle) is also
// advertised.
package proto

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"fixgo/internal/core"
)

// Message types.
const (
	// TypeHello introduces a node and advertises its resident objects.
	TypeHello byte = iota + 1
	// TypeAdvertise announces newly resident objects: uploads, and the
	// closure of a delegated job's result when that is a stored object.
	TypeAdvertise
	// TypeRequest asks for an object's bytes.
	TypeRequest
	// TypeObject delivers an object's bytes.
	TypeObject
	// TypeMissing reports that a requested object is not resident.
	TypeMissing
	// TypeJob delegates the forcing of an Encode, optionally carrying
	// pushed objects (the job's definition closure).
	TypeJob
	// TypeResult reports a delegated job's outcome. For a literal result
	// it is the only frame the job's completion sends.
	TypeResult
	// TypePing probes a peer's liveness (failure detection).
	TypePing
	// TypePong answers a Ping.
	TypePong
	// TypeReplicate pushes an object's bytes to a ring-designated replica
	// holder (R-way replication and anti-entropy repair).
	TypeReplicate
	// TypeReplicateAck confirms a replica is durably ingested at the
	// sender.
	TypeReplicateAck
	// TypeEdgeHello introduces a gateway on the replicated-edge peer
	// channel (the edge analogue of TypeHello).
	TypeEdgeHello
	// TypeEdgeAppend replicates a batch of edge-log entries to a peer
	// gateway; Seq sequences the sender's appends for acknowledgement
	// and lag tracking.
	TypeEdgeAppend
	// TypeEdgeAck acknowledges an EdgeAppend by the sender's Seq.
	TypeEdgeAck
	// TypeEdgeWarm gossips a cache-warm hint: Handle was memoized to
	// Result on the sending gateway, so a peer can answer a repeat
	// submission without re-evaluating.
	TypeEdgeWarm
	// TypeEdgeLeave announces a clean gateway shutdown, so peers can
	// adopt its undrained jobs without waiting out a heartbeat timeout.
	TypeEdgeLeave
)

// EdgeEntry is the wire form of one replicated edge-log entry: the
// lifecycle position of an accepted async job, keyed by its
// deterministic job ID so replicas fold entries commutatively.
type EdgeEntry struct {
	// Job is the deterministic job ID (jobs.JobID of tenant and handle).
	Job string
	// Origin is the gateway that appended the entry.
	Origin string
	// Tenant that submitted the job.
	Tenant string
	// State is the entry's lifecycle rank (edgelog.EntryState).
	State byte
	// AtNS is the origin's append timestamp in Unix nanoseconds.
	AtNS int64
	// Handle is the submitted computation.
	Handle core.Handle
	// Result is the evaluated answer; meaningful only for done entries.
	Result core.Handle
	// Objects carries the job's definition closure (trees plus blobs up
	// to the origin's payload budget) for accepted entries, so a peer
	// adopting the job after the origin dies can still execute it. Empty
	// for terminal entries and for backends that resolve data mesh-wide.
	Objects []PushedObject
}

// PushedObject is an object shipped inside a Job message.
type PushedObject struct {
	Handle core.Handle
	Data   []byte
}

// Message is the union of all Fixpoint wire messages. Handles double as
// advertisements: their metadata carries kind and size, so "what do you
// have" is answered with bare handle lists.
type Message struct {
	Type    byte
	From    string
	Role    byte           // Hello: RoleWorker or RoleClient
	Handle  core.Handle    // Request/Object/Missing/Job/Result/Replicate/ReplicateAck: subject
	Result  core.Handle    // Result: outcome handle
	Hops    uint8          // Job: delegation hop count
	Trace   string         // Job/Request/Replicate: originating trace ID (may be empty)
	EvalNS  int64          // Result: the worker's eval wall time in nanoseconds
	Err     string         // Result: error, empty on success
	Data    []byte         // Object/Replicate: payload bytes
	Adverts []core.Handle  // Hello/Advertise
	Pushed  []PushedObject // Job: definition closure
	Seq     uint64         // EdgeAppend/EdgeAck: sender append sequence
	Entries []EdgeEntry    // EdgeAppend: replicated edge-log entries
}

// Node roles carried in Hello messages.
const (
	// RoleWorker nodes execute delegated jobs.
	RoleWorker byte = iota
	// RoleClient nodes hold objects and submit jobs but never receive
	// placements.
	RoleClient
)

// Encode packs the message into a fresh buffer.
func (m *Message) Encode() []byte {
	return m.AppendEncode(make([]byte, 0, 64+len(m.Data)))
}

// AppendEncode packs the message onto buf and returns the extended
// slice, letting a hot sender reuse one scratch buffer across messages
// instead of allocating per send.
func (m *Message) AppendEncode(buf []byte) []byte {
	buf = append(buf, m.Type)
	buf = appendString(buf, m.From)
	switch m.Type {
	case TypeHello, TypeAdvertise:
		buf = append(buf, m.Role)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Adverts)))
		for _, h := range m.Adverts {
			buf = append(buf, h[:]...)
		}
	case TypeRequest:
		buf = append(buf, m.Handle[:]...)
		buf = appendString(buf, m.Trace)
	case TypeMissing:
		buf = append(buf, m.Handle[:]...)
	case TypeObject:
		buf = append(buf, m.Handle[:]...)
		buf = appendBytes(buf, m.Data)
	case TypeReplicate:
		buf = append(buf, m.Handle[:]...)
		buf = appendString(buf, m.Trace)
		buf = appendBytes(buf, m.Data)
	case TypeReplicateAck:
		buf = append(buf, m.Handle[:]...)
	case TypeJob:
		buf = append(buf, m.Handle[:]...)
		buf = append(buf, m.Hops)
		buf = appendString(buf, m.Trace)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Pushed)))
		for _, p := range m.Pushed {
			buf = append(buf, p.Handle[:]...)
			buf = appendBytes(buf, p.Data)
		}
	case TypeResult:
		buf = append(buf, m.Handle[:]...)
		buf = append(buf, m.Result[:]...)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(m.EvalNS))
		buf = appendString(buf, m.Err)
	case TypeEdgeAppend:
		buf = binary.LittleEndian.AppendUint64(buf, m.Seq)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Entries)))
		for _, e := range m.Entries {
			buf = appendString(buf, e.Job)
			buf = appendString(buf, e.Origin)
			buf = appendString(buf, e.Tenant)
			buf = append(buf, e.State)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(e.AtNS))
			buf = append(buf, e.Handle[:]...)
			buf = append(buf, e.Result[:]...)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.Objects)))
			for _, p := range e.Objects {
				buf = append(buf, p.Handle[:]...)
				buf = appendBytes(buf, p.Data)
			}
		}
	case TypeEdgeAck:
		buf = binary.LittleEndian.AppendUint64(buf, m.Seq)
	case TypeEdgeWarm:
		buf = append(buf, m.Handle[:]...)
		buf = append(buf, m.Result[:]...)
	case TypePing, TypePong, TypeEdgeHello, TypeEdgeLeave:
		// Liveness probes and edge membership events carry only the
		// sender identity.
	}
	return buf
}

// Decode unpacks a message. Data and Pushed[i].Data are slices of data,
// not copies: the message aliases the frame it was decoded from, so it is
// valid only while data is (a transport.Conn's Recv buffer lasts until
// the link's next Recv), and receivers never write into those bytes.
// Edge-log entry objects are copied, because the edge log keeps them long
// after the frame that carried them.
func Decode(data []byte) (*Message, error) {
	m := &Message{}
	if err := DecodeInto(m, data, ""); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeInto is Decode into a caller-owned message, which a receive loop
// reuses across frames. Every field of m is overwritten. A Job frame's
// Pushed reuses the array of m.Pushed when that is non-nil and has room,
// so a link that keeps one array for its Jobs decodes them without
// allocating it; every other slice is made fresh. The result equals
// Decode's, nil and empty slices included. When the frame's sender
// equals from, m.From is from itself and the sender is not copied out of
// the frame. On error m is left in an unspecified state.
func DecodeInto(m *Message, data []byte, from string) error {
	d := decoder{buf: data}
	pushed := m.Pushed
	*m = Message{Type: d.u8()}
	m.From = d.strAs(from)
	switch m.Type {
	case TypeHello, TypeAdvertise:
		m.Role = d.u8()
		n := d.u32()
		if uint64(n)*core.HandleSize > uint64(len(data)) {
			return fmt.Errorf("proto: advert count %d too large", n)
		}
		m.Adverts = make([]core.Handle, n)
		for i := range m.Adverts {
			m.Adverts[i] = d.handle()
		}
	case TypeRequest:
		m.Handle = d.handle()
		m.Trace = d.str()
	case TypeMissing:
		m.Handle = d.handle()
	case TypeObject:
		m.Handle = d.handle()
		m.Data = d.bytes()
	case TypeReplicate:
		m.Handle = d.handle()
		m.Trace = d.str()
		m.Data = d.bytes()
	case TypeReplicateAck:
		m.Handle = d.handle()
	case TypeJob:
		m.Handle = d.handle()
		m.Hops = d.u8()
		m.Trace = d.str()
		n := d.u32()
		if uint64(n)*core.HandleSize > uint64(len(data)) {
			return fmt.Errorf("proto: push count %d too large", n)
		}
		if pushed != nil && uint64(cap(pushed)) >= uint64(n) {
			m.Pushed = pushed[:n]
		} else {
			m.Pushed = make([]PushedObject, n)
		}
		for i := range m.Pushed {
			m.Pushed[i].Handle = d.handle()
			m.Pushed[i].Data = d.bytes()
		}
	case TypeResult:
		m.Handle = d.handle()
		m.Result = d.handle()
		m.EvalNS = int64(d.u64())
		m.Err = d.str()
	case TypeEdgeAppend:
		m.Seq = d.u64()
		n := d.u32()
		if uint64(n)*(2*core.HandleSize) > uint64(len(data)) {
			return fmt.Errorf("proto: edge entry count %d too large", n)
		}
		m.Entries = make([]EdgeEntry, n)
		for i := range m.Entries {
			e := &m.Entries[i]
			e.Job = d.str()
			e.Origin = d.str()
			e.Tenant = d.str()
			e.State = d.u8()
			e.AtNS = int64(d.u64())
			e.Handle = d.handle()
			e.Result = d.handle()
			no := d.u32()
			if uint64(no)*core.HandleSize > uint64(len(data)) {
				return fmt.Errorf("proto: edge object count %d too large", no)
			}
			if no > 0 {
				e.Objects = make([]PushedObject, no)
				for j := range e.Objects {
					e.Objects[j].Handle = d.handle()
					e.Objects[j].Data = bytes.Clone(d.bytes())
				}
			}
		}
	case TypeEdgeAck:
		m.Seq = d.u64()
	case TypeEdgeWarm:
		m.Handle = d.handle()
		m.Result = d.handle()
	case TypePing, TypePong, TypeEdgeHello, TypeEdgeLeave:
		// No payload beyond the sender identity.
	default:
		return fmt.Errorf("proto: unknown message type %d", m.Type)
	}
	if d.failed {
		return fmt.Errorf("proto: truncated message (type %d, %d bytes)", m.Type, len(data))
	}
	return nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

func appendBytes(buf, b []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

type decoder struct {
	buf    []byte
	failed bool
	zero   [core.HandleSize]byte // what a fixed-width read past the end returns
}

// take consumes n bytes. Past the end of the frame it marks the decoder
// failed and returns zeros, without allocating: n is at most
// core.HandleSize here, and the length-prefixed readers check their
// untrusted lengths against the frame themselves.
func (d *decoder) take(n int) []byte {
	if d.failed || len(d.buf) < n {
		d.failed = true
		return d.zero[:n]
	}
	out := d.buf[:n]
	d.buf = d.buf[n:]
	return out
}

func (d *decoder) u8() byte    { return d.take(1)[0] }
func (d *decoder) u32() uint32 { return binary.LittleEndian.Uint32(d.take(4)) }
func (d *decoder) u64() uint64 { return binary.LittleEndian.Uint64(d.take(8)) }

func (d *decoder) str() string { return d.strAs("") }

// strAs reads a string, returning hint itself instead of a copy when the
// bytes spell it.
func (d *decoder) strAs(hint string) string {
	b := d.prefixed(int(binary.LittleEndian.Uint16(d.take(2))))
	if string(b) == hint {
		return hint
	}
	return string(b)
}

func (d *decoder) bytes() []byte {
	return d.prefixed(int(d.u32()))
}

// prefixed consumes the n bytes a length prefix announced, as a slice of
// the frame; nil once the frame has run out.
func (d *decoder) prefixed(n int) []byte {
	if d.failed || n > len(d.buf) {
		d.failed = true
		return nil
	}
	out := d.buf[:n:n]
	d.buf = d.buf[n:]
	return out
}

func (d *decoder) handle() core.Handle {
	var h core.Handle
	copy(h[:], d.take(core.HandleSize))
	return h
}
