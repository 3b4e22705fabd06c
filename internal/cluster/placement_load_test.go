package cluster

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"fixgo/internal/core"
	"fixgo/internal/proto"
	"fixgo/internal/runtime"
	"fixgo/internal/wiki"
)

// TestPlacementWaitingParentIsNotLoad pins the placer's self load on a
// worker serving a received merge whose own apply is waiting on its
// children: neither the received job nor the waiting merge holds a slot,
// so neither may count. A sibling count whose chunk both the worker and a
// peer hold then ties on chunk bytes, and the invocation tree the peer
// lacks keeps it on the worker.
func TestPlacementWaitingParentIsNotLoad(t *testing.T) {
	reg := runtime.NewRegistry()
	wiki.Register(reg, wiki.Config{})
	n := NewNode("self", NodeOptions{Cores: 2, Registry: reg})
	defer n.Close()
	addFakePeer(n, "w1", proto.RoleWorker)
	addFakePeer(n, "w2", proto.RoleWorker)
	n.mu.Lock()
	n.rebuildRingLocked()
	n.mu.Unlock()

	chunk := func(seed int64) []byte { return wiki.Chunk(seed, 16<<10, "", 0) }
	// The merge's two counts scan chunks only w2 holds. w2 never answers,
	// so the merge waits on them for as long as the test runs.
	far := []core.Handle{core.BlobHandle(chunk(1)), core.BlobHandle(chunk(2))}
	for _, h := range far {
		setView(n, h, "w2")
	}
	merge, err := wiki.BuildJob(n.Store(), "abc", far)
	if err != nil {
		t.Fatal(err)
	}
	// The sibling count's chunk is here and on w1.
	near := n.Store().PutBlob(chunk(3))
	setView(n, near, "w1")
	sibling, err := wiki.BuildJob(n.Store(), "abc", []core.Handle{near})
	if err != nil {
		t.Fatal(err)
	}

	served := make(chan struct{})
	go func() {
		defer close(served)
		n.serveJob(&proto.Message{Type: proto.TypeJob, From: "client", Handle: merge, Hops: 1})
	}()
	defer func() {
		n.Close() // fails the two delegations the merge waits on
		<-served
	}()
	waitFor(t, "the merge's counts delegated to w2", func() bool {
		n.mu.Lock()
		defer n.mu.Unlock()
		return n.pending["w2"] == 2
	})

	c, hint := n.jobDeps(sibling)
	if c == nil {
		t.Fatal("sibling count cannot be priced")
	}
	candidates, _ := n.candidates()
	got := n.pick(sibling, candidates, c.Deps, hint)
	c.Release()
	if got != "self" {
		n.mu.Lock()
		self := n.pending["self"]
		n.mu.Unlock()
		t.Fatalf("pick = %s, want self (engine in flight %d, pending here %d)", got, n.eng.InFlight(), self)
	}
}

// TestPlacementMapReduceDelegations runs seeded 16-chunk count-string
// jobs from a client-only node over three workers holding chunk c on
// worker c%3. Counts stay where their chunks are, and equal-cost work
// stays on the node that forced it: at most 11 delegations per job (the
// client's one included), no chunk is ever fetched, and every count is
// the naive one.
func TestPlacementMapReduceDelegations(t *testing.T) {
	const (
		corpus    = 48
		jobs      = 32
		jobChunks = 16
	)
	reg := runtime.NewRegistry()
	wiki.Register(reg, wiki.Config{})
	client, ws, counts := countedMesh(t, reg)
	data := make([][]byte, corpus)
	handles := make([]core.Handle, corpus)
	isChunk := make(map[core.Handle]bool, corpus)
	for c := range data {
		data[c] = wiki.Chunk(int64(c), 64<<10, "", 0)
		handles[c] = ws[c%len(ws)].Store().PutBlob(data[c])
		isChunk[handles[c].AsObject()] = true
	}
	nodes := append([]*Node{client}, ws...)
	connectCounted(counts, nodes...)

	rng := rand.New(rand.NewSource(29))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for j := 0; j < jobs; j++ {
		needle := []byte{byte('a' + rng.Intn(26)), byte('a' + rng.Intn(26)), byte('a' + rng.Intn(26))}
		var want uint64
		chunks := make([]core.Handle, 0, jobChunks)
		for _, c := range rng.Perm(corpus)[:jobChunks] {
			chunks = append(chunks, handles[c])
			want += uint64(bytes.Count(data[c], needle))
		}
		job, err := wiki.BuildJob(client.Store(), string(needle), chunks)
		if err != nil {
			t.Fatal(err)
		}
		res, err := client.Eval(ctx, job)
		if err != nil {
			t.Fatalf("job %d: %v", j, err)
		}
		got, err := core.DecodeU64(res.LiteralData())
		if err != nil || got != want {
			t.Fatalf("job %d (%q): count %d (%v), want %d", j, needle, got, err, want)
		}
	}

	var delegated uint64
	for _, n := range nodes {
		delegated += n.NetStats().JobsDelegated
	}
	perJob := float64(delegated) / jobs
	t.Logf("%.2f delegations per job", perJob)
	if perJob > 11 {
		t.Errorf("%.2f delegations per job, want ≤ 11", perJob)
	}
	counts.mu.Lock()
	defer counts.mu.Unlock()
	for _, h := range counts.requested {
		if isChunk[h.AsObject()] {
			t.Errorf("chunk %v was fetched", h)
		}
	}
}

// TestPlacementPricingAllocs pins pricing a warm 16-chunk job's top
// Encode — the dependency walk, then pick — at zero allocations. The walk
// state comes from a pool that never drops, so this holds under the race
// detector too (ROADMAP 2 Part D).
func TestPlacementPricingAllocs(t *testing.T) {
	reg := runtime.NewRegistry()
	wiki.Register(reg, wiki.Config{})
	n := NewNode("self", NodeOptions{Cores: 1, Registry: reg})
	defer n.Close()
	peers := []string{"w1", "w2"}
	for _, id := range peers {
		addFakePeer(n, id, proto.RoleWorker)
	}
	n.mu.Lock()
	n.rebuildRingLocked()
	n.mu.Unlock()
	chunks := make([]core.Handle, 16)
	for c := range chunks {
		data := wiki.Chunk(int64(c), 4<<10, "", 0)
		if c%3 == 0 {
			chunks[c] = n.Store().PutBlob(data)
			continue
		}
		chunks[c] = core.BlobHandle(data)
		setView(n, chunks[c], peers[c%3-1])
	}
	job, err := wiki.BuildJob(n.Store(), "needle", chunks)
	if err != nil {
		t.Fatal(err)
	}
	candidates, _ := n.candidates()
	var target string
	var deps int
	allocs := testing.AllocsPerRun(200, func() {
		c, hint := n.jobDeps(job)
		if c == nil {
			panic(fmt.Sprintf("job %v cannot be priced", job))
		}
		deps = len(c.Deps)
		target = n.pick(job, candidates, c.Deps, hint)
		c.Release()
	})
	// 31 invocation trees and 16 chunks; the needle is a literal.
	if deps != 47 {
		t.Fatalf("walk collected %d dependencies, want 47", deps)
	}
	if target == "" {
		t.Fatal("pick chose nothing")
	}
	if allocs != 0 {
		t.Fatalf("jobDeps + pick allocate %v times per placement, want 0", allocs)
	}
}
