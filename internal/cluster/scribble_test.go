package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"fixgo/internal/core"
	"fixgo/internal/proto"
	"fixgo/internal/runtime"
	"fixgo/internal/transport"
	"fixgo/internal/wiki"
)

// scribbleConn overwrites the frame its last Recv returned before it
// receives the next one, as a link that reuses its receive buffer is
// allowed to. Code that still reads a frame after its link's next Recv
// sees garbage, and under -race its read races with the scribble.
type scribbleConn struct {
	transport.Conn
	last []byte
}

func (c *scribbleConn) Recv() ([]byte, error) {
	for i := range c.last {
		c.last[i] = 0xa5
	}
	raw, err := c.Conn.Recv()
	c.last = raw
	return raw, err
}

// scribbleMesh joins nodes in a full mesh of loopback TCP links whose
// every end scribbles over its previous frame and counts what it sends.
func scribbleMesh(tb testing.TB, nodes ...*Node) *frameCounts {
	tb.Helper()
	counts := &frameCounts{byType: make(map[byte]int)}
	link := func(c net.Conn) transport.Conn {
		return &scribbleConn{Conn: &countingConn{Conn: transport.NewTCP(c), counts: counts}}
	}
	for i, a := range nodes {
		for _, b := range nodes[i+1:] {
			joinTCP(tb, a, b, link)
		}
	}
	return counts
}

// scribbleChunks stores the map-reduce shape's chunks: chunk i on
// holders[i%len(holders)], each of size bytes. It returns the handles and
// the count the job must report.
func scribbleChunks(holders []*Node, chunks, size int) ([]core.Handle, uint64) {
	handles := make([]core.Handle, chunks)
	var want uint64
	for i := range handles {
		data := wiki.Chunk(int64(i), size, "needle", 64)
		want += wiki.CountNonOverlapping(data, []byte("needle"))
		handles[i] = holders[i%len(holders)].Store().PutBlob(data)
	}
	return handles, want
}

// evalCount runs the count-string job over chunks from client and checks
// its answer.
func evalCount(t *testing.T, client *Node, chunks []core.Handle, want uint64) {
	t.Helper()
	job, err := wiki.BuildJob(client.Store(), "needle", chunks)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	out, err := client.EvalBlob(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := core.DecodeU64(out); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
}

// TestScribbleMapReduceOverTCP runs the paper's map-reduce shape (the
// mesh of TestFramesPerDelegationLiteralResult) over TCP links that
// scribble over each frame once the next is received: every Job, Result
// and Advertise is done with before its link's next Recv.
func TestScribbleMapReduceOverTCP(t *testing.T) {
	reg := runtime.NewRegistry()
	wiki.Register(reg, wiki.Config{})
	client, ws, _ := countedMesh(t, reg)
	chunks, want := scribbleChunks(ws, 16, 8<<10)
	scribbleMesh(t, append([]*Node{client}, ws...)...)
	for round := 0; round < 3; round++ {
		evalCount(t, client, chunks, want)
	}
	var delegated uint64
	for _, n := range append([]*Node{client}, ws...) {
		delegated += n.NetStats().JobsDelegated
	}
	if delegated == 0 {
		t.Fatal("a client-only node evaluated a job without delegating")
	}
}

// TestScribblePushOverTCP: chunks small enough to ride inside their Job
// frames are held only by the client-only node, so every count's chunk
// and invocation tree arrive pushed. The workers store what was pushed,
// byte for byte, although each link reuses the frame the push came in:
// no push is refused for bytes that changed under it, so nothing is
// fetched.
func TestScribblePushOverTCP(t *testing.T) {
	reg := runtime.NewRegistry()
	wiki.Register(reg, wiki.Config{})
	client, ws, _ := countedMesh(t, reg)
	chunks, want := scribbleChunks([]*Node{client}, 12, 2<<10)
	counts := scribbleMesh(t, append([]*Node{client}, ws...)...)
	evalCount(t, client, chunks, want)
	if requests := counts.of(proto.TypeRequest); requests != 0 {
		t.Fatalf("%d objects fetched; every one was pushed", requests)
	}
	pushed := 0
	for _, h := range chunks {
		data, err := client.Store().Blob(h)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range ws {
			if got, err := w.Store().Blob(h); err == nil {
				pushed++
				if !bytes.Equal(got, data) {
					t.Fatalf("%s stores a pushed chunk that differs from the client's", w.ID())
				}
			}
		}
	}
	if pushed == 0 {
		t.Fatal("no chunk was pushed to a worker")
	}
}

// TestScribbleFetchOverTCP: several callers fetch each of a peer's
// objects at once (one leads, the rest join), one object in place in the
// link's read buffer and one in its kept buffer. What each caller got
// must survive the frames that follow on the same link.
func TestScribbleFetchOverTCP(t *testing.T) {
	a := NewNode("a", NodeOptions{Cores: 1})
	b := NewNode("b", NodeOptions{Cores: 1})
	t.Cleanup(func() { closeAll(a, []*Node{b}) })
	var objects [][]byte
	var handles []core.Handle
	for i, size := range []int{10 << 10, 100 << 10, 3 << 10} {
		data := bytes.Repeat([]byte{byte(i + 1)}, size)
		objects = append(objects, data)
		handles = append(handles, a.Store().PutBlob(data))
	}
	scribbleMesh(t, a, b)
	f := &clusterFetcher{n: b}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	const callers = 4
	got := make([][]byte, len(handles)*callers)
	for i, h := range handles {
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				data, err := f.Fetch(ctx, h)
				if err != nil {
					t.Errorf("fetch %d: %v", i, err)
				}
				got[i*callers+c] = data
			}()
		}
		wg.Wait()
	}
	for i, data := range got {
		if want := objects[i/callers]; !bytes.Equal(data, want) {
			t.Fatalf("caller %d of object %d holds %d bytes that differ from the %d fetched", i%callers, i/callers, len(data), len(want))
		}
	}
}

// TestScribbleReplicateOverTCP: at R=2, writes of every size class
// (in place, kept buffer, fresh buffer) reach a second holder intact
// over links that reuse each frame.
func TestScribbleReplicateOverTCP(t *testing.T) {
	ws := make([]*Node, 3)
	for i := range ws {
		ws[i] = NewNode(fmt.Sprintf("w%d", i), NodeOptions{Cores: 1, Replicas: 2})
	}
	t.Cleanup(func() {
		for _, w := range ws {
			w.Close()
		}
	})
	scribbleMesh(t, ws...)
	var objects [][]byte
	var handles []core.Handle
	for i, size := range []int{900, 20 << 10, 300 << 10, 3 << 20, 5 << 10} {
		data := bytes.Repeat([]byte{byte(i + 1), byte(i + 2)}, size/2)
		objects = append(objects, data)
		handles = append(handles, ws[0].PutBlob(data))
	}
	for i, h := range handles {
		waitFor(t, fmt.Sprintf("a second copy of object %d", i), func() bool {
			return storedCopies(h, ws...) >= 2
		})
	}
	for i, h := range handles {
		for _, w := range ws {
			if data, err := w.Store().Blob(h); err == nil && !bytes.Equal(data, objects[i]) {
				t.Fatalf("%s holds a copy of object %d that differs from the write", w.ID(), i)
			}
		}
	}
}
