package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"testing"
	"time"

	"fixgo/internal/core"
	"fixgo/internal/proto"
	"fixgo/internal/runtime"
	"fixgo/internal/store"
	"fixgo/internal/transport"
	"fixgo/internal/wiki"
)

// frameCounts tallies the frames sent over every link of a mesh, by
// message type, the handles that Request frames asked for, and what Job
// frames pushed, by sender.
type frameCounts struct {
	mu        sync.Mutex
	byType    map[byte]int
	requested []core.Handle
	pushed    map[string]pushCount
}

// pushCount is one sender's Job frames and the objects and Trees they
// pushed.
type pushCount struct{ jobs, objects, trees int }

func (c *frameCounts) of(typ byte) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.byType[typ]
}

// countingConn counts each frame its endpoint sends.
type countingConn struct {
	transport.Conn
	counts *frameCounts
}

func (c *countingConn) Send(msg []byte) error {
	if m, err := proto.Decode(msg); err == nil {
		c.counts.mu.Lock()
		c.counts.byType[m.Type]++
		switch m.Type {
		case proto.TypeRequest:
			c.counts.requested = append(c.counts.requested, m.Handle)
		case proto.TypeJob:
			pc := c.counts.pushed[m.From]
			pc.jobs++
			pc.objects += len(m.Pushed)
			for _, p := range m.Pushed {
				if p.Handle.Kind() == core.KindTree {
					pc.trees++
				}
			}
			if c.counts.pushed == nil {
				c.counts.pushed = make(map[string]pushCount)
			}
			c.counts.pushed[m.From] = pc
		}
		c.counts.mu.Unlock()
	}
	return c.Conn.Send(msg)
}

// countedMesh makes a client-only node and three workers for
// connectCounted to join. No heartbeats: the counts are exactly the frames
// the work sent.
func countedMesh(t *testing.T, reg *runtime.Registry) (client *Node, ws []*Node, counts *frameCounts) {
	t.Helper()
	counts = &frameCounts{byType: make(map[byte]int)}
	client = NewNode("client", NodeOptions{Cores: 1, ClientOnly: true, Registry: reg})
	for i := 0; i < 3; i++ {
		ws = append(ws, NewNode(fmt.Sprintf("w%d", i), NodeOptions{Cores: 2, Registry: reg}))
	}
	t.Cleanup(func() { closeAll(client, ws) })
	return client, ws, counts
}

// connectCounted joins nodes in a full mesh of in-memory links whose
// every endpoint counts its frames; call it once the workers' stores hold
// what their Hellos should advertise.
func connectCounted(counts *frameCounts, nodes ...*Node) {
	for i, a := range nodes {
		for _, b := range nodes[i+1:] {
			ca, cb := transport.Pipe(transport.LinkConfig{})
			a.AttachPeer(&countingConn{Conn: ca, counts: counts})
			b.AttachPeer(&countingConn{Conn: cb, counts: counts})
			waitPeer(a, b.id)
			waitPeer(b, a.id)
		}
	}
}

// TestFramesPerDelegationLiteralResult pins the wire cost of the paper's
// map-reduce shape: every delegation is one Job frame and one Result
// frame, and counts (literal results) are advertised to nobody.
func TestFramesPerDelegationLiteralResult(t *testing.T) {
	reg := runtime.NewRegistry()
	wiki.Register(reg, wiki.Config{})
	client, ws, counts := countedMesh(t, reg)
	chunks := make([]core.Handle, 16)
	for i := range chunks {
		chunks[i] = ws[i%len(ws)].Store().PutBlob(wiki.Chunk(int64(i), 8<<10, "needle", 512))
	}
	nodes := append([]*Node{client}, ws...)
	connectCounted(counts, nodes...)

	job, err := wiki.BuildJob(client.Store(), "needle", chunks)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := client.Eval(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	if !res.IsLiteral() {
		t.Fatalf("count %v is not a literal", res)
	}
	var delegated uint64
	for _, n := range nodes {
		delegated += n.NetStats().JobsDelegated
	}
	if delegated == 0 {
		t.Fatal("a client-only node evaluated a job without delegating")
	}
	if jobs := counts.of(proto.TypeJob); uint64(jobs) != delegated {
		t.Fatalf("%d Job frames for %d delegations", jobs, delegated)
	}
	if results := counts.of(proto.TypeResult); uint64(results) != delegated {
		t.Fatalf("%d Result frames for %d delegations", results, delegated)
	}
	if adverts := counts.of(proto.TypeAdvertise); adverts != 0 {
		t.Fatalf("%d Advertise frames for a job whose every result is a literal", adverts)
	}
}

// TestPushedObjectsPerMapReduceJob counts what the Job frames of fresh
// 16-chunk map-reduce jobs push, on a client-only node and three workers
// with chunk c on worker c%3. The client's one Job per job pushes the
// job's whole dataflow, its 31 invocation Trees. A worker that delegates
// part of a merge on pushes that part's Trees again, so a job pushes more
// objects in all: 52 per job on average when this test was written, but
// a mesh settles into a placement pattern early and keeps it, so one
// mesh's mean ranged from 37 to 67. The bound is over four meshes, loose
// enough not to flake; a placement change that lowers the count should
// tighten it.
func TestPushedObjectsPerMapReduceJob(t *testing.T) {
	const (
		meshes, jobs = 4, 16
		jobChunks    = 16
		trees        = 2*jobChunks - 1
		maxPerJob    = 64.0
	)
	reg := runtime.NewRegistry()
	wiki.Register(reg, wiki.Config{})
	var frames, objects int
	for m := range meshes {
		client, ws, counts := countedMesh(t, reg)
		chunks := make([]core.Handle, jobChunks)
		for c := range chunks {
			chunks[c] = ws[c%len(ws)].Store().PutBlob(wiki.Chunk(int64(c), 4<<10, "", 0))
		}
		connectCounted(counts, append([]*Node{client}, ws...)...)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		for j := range jobs {
			job, err := wiki.BuildJob(client.Store(), fmt.Sprintf("needle %d", j), chunks)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := client.Eval(ctx, job); err != nil {
				t.Fatalf("mesh %d, job %d: %v", m, j, err)
			}
		}
		cancel()
		closeAll(client, ws)

		counts.mu.Lock()
		c := counts.pushed[client.ID()]
		if c.jobs != jobs || c.objects != trees*jobs || c.trees != trees*jobs {
			t.Errorf("mesh %d: the client sent %d Job frames pushing %d objects (%d Trees) for %d fresh jobs, want one pushing %d Trees each",
				m, c.jobs, c.objects, c.trees, jobs, trees)
		}
		for _, pc := range counts.pushed {
			frames += pc.jobs
			objects += pc.objects
		}
		counts.mu.Unlock()
	}
	perJob := float64(objects) / (meshes * jobs)
	t.Logf("%.2f Job frames pushing %.2f objects per job", float64(frames)/(meshes*jobs), perJob)
	if perJob > maxPerJob {
		t.Errorf("Job frames push %.2f objects per job, want ≤ %v", perJob, maxPerJob)
	}
}

// TestAdvertStoredResultReachesBystanders pins what the remaining
// broadcast is for: a result that is a stored object is advertised, so a
// node that neither ran nor delegated the job can still locate it (the
// gateway's cache-warm hints ask exactly this through ResolvableHint).
func TestAdvertStoredResultReachesBystanders(t *testing.T) {
	reg := runtime.NewRegistry()
	reg.RegisterFunc("pad", func(api core.API, input core.Handle) (core.Handle, error) {
		return api.CreateBlob(bytes.Repeat([]byte{7}, 1024)), nil
	})
	client, ws, counts := countedMesh(t, reg)
	connectCounted(counts, append([]*Node{client}, ws...)...)

	fn := client.Store().PutBlob(core.NativeFunctionBlob("pad"))
	tree, err := client.Store().PutTree(core.InvocationTree(core.DefaultLimits.Handle(), fn, core.LiteralU64(1)))
	if err != nil {
		t.Fatal(err)
	}
	th, _ := core.Application(tree)
	enc, _ := core.Strict(th)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := client.Eval(ctx, enc)
	if err != nil {
		t.Fatal(err)
	}
	if res.IsLiteral() {
		t.Fatalf("result %v is a literal; the test needs a stored object", res)
	}
	bystanders := 0
	for _, w := range ws {
		if w.Store().Contains(res) {
			continue // the worker that ran the job
		}
		bystanders++
		waitFor(t, w.ID()+" can locate the result", func() bool { return w.ResolvableHint(res) })
		if w.Store().Contains(res) {
			t.Fatalf("%s holds the result; it should only know where it is", w.ID())
		}
	}
	if bystanders != len(ws)-1 {
		t.Fatalf("%d of %d workers are bystanders, want all but the one that ran the job", bystanders, len(ws))
	}
	// One advert to each of the worker's three peers.
	if adverts := counts.of(proto.TypeAdvertise); adverts != len(ws) {
		t.Fatalf("%d Advertise frames, want %d", adverts, len(ws))
	}
}

// TestPlacementAllocs pins the placer's per-delegation bookkeeping at zero
// allocations while the membership is unchanged (ROADMAP 2 Part D).
func TestPlacementAllocs(t *testing.T) {
	n := NewNode("self", NodeOptions{Cores: 1})
	defer n.Close()
	addFakePeer(n, "w1", proto.RoleWorker)
	addFakePeer(n, "w2", proto.RoleWorker)
	n.mu.Lock()
	n.rebuildRingLocked()
	n.mu.Unlock()
	held := core.BlobHandle(bytes.Repeat([]byte{1}, 4096))
	setView(n, held, "w1", "w2")
	deps := []store.Dep{{Handle: held.AsObject(), Size: 4096}, {Handle: core.BlobHandle(bytes.Repeat([]byte{2}, 600)).AsObject(), Size: 600}}
	enc := testEnc(t, n, 1)
	var target string
	allocs := testing.AllocsPerRun(200, func() {
		candidates, _ := n.candidates()
		target = n.pick(enc, candidates, deps, 64)
	})
	if target == "" {
		t.Fatal("pick chose nothing")
	}
	if allocs != 0 {
		t.Fatalf("candidates + pick allocate %v times per placement, want 0", allocs)
	}
}

// TestTieBreakMatchesFNV holds the inlined hash to hash/fnv's bits: the
// tie-break decides placements, so it may get cheaper but never different.
func TestTieBreakMatchesFNV(t *testing.T) {
	reference := func(s string) uint64 {
		f := fnv.New64a()
		f.Write([]byte(s))
		return f.Sum64()
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		id := make([]byte, rng.Intn(24))
		rng.Read(id)
		var enc core.Handle
		rng.Read(enc[:])
		if got, want := fnvHash(string(id)), reference(string(id)); got != want {
			t.Fatalf("fnvHash(%q) = %x, want %x", id, got, want)
		}
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], reference(string(id)))
		if got, want := tieBreak(enc, string(id)), reference(string(enc[:])+string(buf[:])); got != want {
			t.Fatalf("tieBreak(%v, %q) = %x, want %x", enc, id, got, want)
		}
	}
}
