package transport

import (
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"fixgo/internal/core"
	"fixgo/internal/proto"
)

// tcpPair returns the two raw ends of one loopback TCP connection.
func tcpPair(t testing.TB) (dialed, accepted net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	dialed, err = net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	accepted, err = l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		dialed.Close()
		accepted.Close()
	})
	return dialed, accepted
}

// writeCounter counts the Write calls that reach the wrapped net.Conn.
type writeCounter struct {
	net.Conn
	writes atomic.Int64
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes.Add(1)
	return w.Conn.Write(p)
}

// TestTCPFramesOneWritePerSmallFrame pins the framing: header and payload
// of a frame that fits the link's buffer leave in a single Write.
func TestTCPFramesOneWritePerSmallFrame(t *testing.T) {
	a, b := tcpPair(t)
	counted := &writeCounter{Conn: a}
	sender, receiver := NewTCP(counted), NewTCP(b)
	const frames = 50
	for i := 0; i < frames; i++ {
		if err := sender.Send(bytes.Repeat([]byte{byte(i)}, 10+i*40)); err != nil {
			t.Fatal(err)
		}
	}
	if got := counted.writes.Load(); got != frames {
		t.Fatalf("%d frames took %d writes, want one each", frames, got)
	}
	for i := 0; i < frames; i++ {
		got, err := receiver.Recv()
		if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 10+i*40)) {
			t.Fatalf("frame %d: %d bytes, %v", i, len(got), err)
		}
	}
}

// TestTCPFramesConcurrentSendersArriveWhole sends small and large frames
// from many goroutines over one link: every frame must arrive un-torn and
// each sender's frames in the order it sent them.
func TestTCPFramesConcurrentSendersArriveWhole(t *testing.T) {
	a, b := tcpPair(t)
	sender, receiver := NewTCP(a), NewTCP(b)
	const (
		senders   = 64
		perSender = 6
		small     = 10
		large     = 200 << 10
	)
	// A frame is sender (2 bytes), sequence (2 bytes), then filler that
	// depends on both.
	frame := func(s, seq int) []byte {
		n := small
		if (s+seq)%2 == 1 {
			n = large
		}
		f := bytes.Repeat([]byte{byte(s*31 + seq)}, n)
		binary.LittleEndian.PutUint16(f, uint16(s))
		binary.LittleEndian.PutUint16(f[2:], uint16(seq))
		return f
	}
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for seq := 0; seq < perSender; seq++ {
				if err := sender.Send(frame(s, seq)); err != nil {
					t.Errorf("sender %d: %v", s, err)
					return
				}
			}
		}(s)
	}
	next := make([]int, senders)
	for i := 0; i < senders*perSender; i++ {
		got, err := receiver.Recv()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(got) < 4 {
			t.Fatalf("frame %d: %d bytes", i, len(got))
		}
		s, seq := int(binary.LittleEndian.Uint16(got)), int(binary.LittleEndian.Uint16(got[2:]))
		if s >= senders {
			t.Fatalf("frame %d: names sender %d of %d", i, s, senders)
		}
		if seq != next[s] {
			t.Fatalf("frame %d: sender %d sequence %d, want %d", i, s, seq, next[s])
		}
		next[s]++
		if !bytes.Equal(got, frame(s, seq)) {
			t.Fatalf("frame %d (sender %d, sequence %d) is torn", i, s, seq)
		}
	}
	wg.Wait()
}

// TestTCPFramesDecodedMessageSurvivesScratchReuse: Send is finished with
// the caller's buffer when it returns and Recv hands over a buffer of its
// own, so a message decoded on the far side (which aliases that buffer)
// is unaffected by the sender encoding the next message into the same
// scratch.
func TestTCPFramesDecodedMessageSurvivesScratchReuse(t *testing.T) {
	a, b := tcpPair(t)
	sender, receiver := NewTCP(a), NewTCP(b)
	first := bytes.Repeat([]byte{0xaa}, 3000)
	second := bytes.Repeat([]byte{0x55}, 3000)
	h := core.BlobHandle(first)
	job := &proto.Message{Type: proto.TypeJob, From: "a", Handle: h,
		Pushed: []proto.PushedObject{{Handle: h, Data: first}}}
	scratch := job.AppendEncode(nil)
	if err := sender.Send(scratch); err != nil {
		t.Fatal(err)
	}
	scratch = (&proto.Message{Type: proto.TypeObject, From: "a", Handle: h, Data: second}).AppendEncode(scratch[:0])
	if err := sender.Send(scratch); err != nil {
		t.Fatal(err)
	}
	var got [2]*proto.Message
	for i := range got {
		raw, err := receiver.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got[i], err = proto.Decode(raw); err != nil {
			t.Fatal(err)
		}
	}
	if len(got[0].Pushed) != 1 || !bytes.Equal(got[0].Pushed[0].Data, first) {
		t.Fatal("first message changed after the sender reused its scratch")
	}
	if !bytes.Equal(got[1].Data, second) {
		t.Fatal("second message corrupted")
	}
}

// TestTCPFramesLyingLengthPrefix: four bytes from the peer must not make
// Recv allocate the MaxFrame they claim before any payload has arrived.
func TestTCPFramesLyingLengthPrefix(t *testing.T) {
	a, b := tcpPair(t)
	receiver := NewTCP(b)
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], MaxFrame)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := a.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	a.Close()
	msg, err := receiver.Recv()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("Recv returned %d bytes from a peer that sent none", len(msg))
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 4<<20 {
		t.Fatalf("Recv allocated %d bytes for a frame that never arrived", grew)
	}
}

// TestTCPFramesLargeFrameGrows covers the growth steps of Recv: a frame
// several times recvStep arrives intact.
func TestTCPFramesLargeFrameGrows(t *testing.T) {
	a, b := tcpPair(t)
	sender, receiver := NewTCP(a), NewTCP(b)
	payload := make([]byte, 5*recvStep+12345)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	errc := make(chan error, 1)
	go func() { errc <- sender.Send(payload) }()
	got, err := receiver.Recv()
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("%d of %d bytes, %v", len(got), len(payload), err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestTCPSendAllocs pins the send path of a small frame at zero
// allocations (ROADMAP 2 Part D).
func TestTCPSendAllocs(t *testing.T) {
	a, b := tcpPair(t)
	sender := NewTCP(a)
	drained := make(chan struct{})
	go func() {
		// A raw reader: Recv would allocate a buffer per frame and
		// AllocsPerRun counts the whole process.
		defer close(drained)
		buf := make([]byte, connBufSize)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()
	frame := bytes.Repeat([]byte{1}, 200)
	var sendErr error
	allocs := testing.AllocsPerRun(200, func() {
		if err := sender.Send(frame); err != nil {
			sendErr = err
		}
	})
	if sendErr != nil {
		t.Fatal(sendErr)
	}
	if allocs != 0 {
		t.Fatalf("Send of a 200 B frame allocates %v times, want 0", allocs)
	}
	sender.Close()
	<-drained
}
