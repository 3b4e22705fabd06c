package cluster

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"fixgo/internal/core"
	"fixgo/internal/runtime"
	"fixgo/internal/transport"
)

// replMesh builds a client-only edge fronting `workers` worker nodes in
// a full mesh, every node at replication factor r with fast heartbeats.
func replMesh(t *testing.T, workers, r int, reg *runtime.Registry) (*Node, []*Node) {
	t.Helper()
	client := NewNode("client", hbOpts(NodeOptions{Cores: 1, ClientOnly: true, Replicas: r}))
	ws := make([]*Node, workers)
	for i := range ws {
		ws[i] = NewNode(fmt.Sprintf("w%d", i), hbOpts(NodeOptions{Cores: 2, Replicas: r, Registry: reg}))
	}
	for _, w := range ws {
		Connect(client, w, fastLink())
	}
	FullMesh(fastLink(), ws...)
	return client, ws
}

func closeAll(client *Node, ws []*Node) {
	client.Close()
	for _, w := range ws {
		w.Close()
	}
}

// storedCopies counts how many of the given nodes hold h resident.
func storedCopies(h core.Handle, nodes ...*Node) int {
	n := 0
	for _, node := range nodes {
		if node.Store().Contains(h) {
			n++
		}
	}
	return n
}

// TestRingAgreesAcrossNodes pins the distributed determinism the
// fetcher's ring tier relies on: every node in a converged mesh derives
// the identical owner list for any handle, including the client-only
// edge (which is not itself a ring member).
func TestRingAgreesAcrossNodes(t *testing.T) {
	client, ws := replMesh(t, 3, 2, nil)
	defer closeAll(client, ws)
	h := core.BlobHandle(bytes.Repeat([]byte{7}, 900))
	want := client.RingOwners(h)
	if len(want) != 2 {
		t.Fatalf("client ring owners = %v, want 2 entries", want)
	}
	for _, w := range ws {
		if got := w.RingOwners(h); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s ring owners %v != client's %v", w.ID(), got, want)
		}
	}
	// The client is not a ring member; the workers are.
	if ns := client.NetStats(); ns.RingMembers != 3 || ns.Replicas != 2 {
		t.Fatalf("client NetStats ring=%d replicas=%d, want 3/2", ns.RingMembers, ns.Replicas)
	}
	if ns := ws[0].NetStats(); ns.RingMembers != 3 {
		t.Fatalf("worker NetStats ring=%d, want 3", ns.RingMembers)
	}
}

// TestReplicationOnWrite pins the write path: a PutBlob at R=2 ends up
// resident on two nodes (writer + one ring successor) without any fetch
// traffic, and the writer's view learns of the ack'd copy.
func TestReplicationOnWrite(t *testing.T) {
	client, ws := replMesh(t, 3, 2, nil)
	defer closeAll(client, ws)
	data := bytes.Repeat([]byte{3}, 1200)
	h := ws[0].PutBlob(data)
	all := append([]*Node{client}, ws...)
	waitFor(t, "2 replicas after PutBlob", func() bool {
		return storedCopies(h, all...) >= 2
	})
	waitFor(t, "replicate ack", func() bool {
		return ws[0].NetStats().ReplicasAcked >= 1
	})
	if sent := ws[0].NetStats().ReplicasSent; sent != 1 {
		t.Fatalf("ReplicasSent = %d, want 1 (R−1 successors)", sent)
	}
	// The copy landed where the ring says it should.
	owners := ws[0].RingOwners(h)
	held := 0
	for _, id := range owners {
		for _, w := range ws {
			if w.ID() == id && w.Store().Contains(h) {
				held++
			}
		}
	}
	if held == 0 {
		t.Fatalf("no ring owner of %v holds a copy (owners %v)", h, owners)
	}
}

// TestReplicationDisabledAtR1 pins the R=1 contract: no replication
// traffic, the writer's copy is the only copy.
func TestReplicationDisabledAtR1(t *testing.T) {
	client, ws := replMesh(t, 3, 1, nil)
	defer closeAll(client, ws)
	h := ws[0].PutBlob(bytes.Repeat([]byte{4}, 1200))
	time.Sleep(50 * time.Millisecond) // would-be replication window
	all := append([]*Node{client}, ws...)
	if got := storedCopies(h, all...); got != 1 {
		t.Fatalf("copies at R=1 = %d, want 1", got)
	}
	ns := ws[0].NetStats()
	if ns.ReplicasSent != 0 || ns.RepairReplicasSent != 0 {
		t.Fatalf("replication traffic at R=1: %+v", ns)
	}
}

// TestChaosReplicatedFetchSurvivesKill is the acceptance regression for
// replicated placement: an object written on a worker that is then
// killed must still be fetchable at R=2 (a ring successor holds a
// replica the fetcher locates without ever having been told) — and must
// NOT be fetchable at R=1, proving the replica was doing the work.
func TestChaosReplicatedFetchSurvivesKill(t *testing.T) {
	data := bytes.Repeat([]byte{9}, 2048)

	t.Run("R=2 survives", func(t *testing.T) {
		client, ws := replMesh(t, 3, 2, nil)
		defer closeAll(client, ws)
		h := ws[0].PutBlob(data)
		all := append([]*Node{client}, ws...)
		waitFor(t, "replica established", func() bool {
			return storedCopies(h, all...) >= 2
		})
		ws[0].Close() // the writer dies with its copy
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		got, err := client.ObjectBytes(ctx, h)
		if err != nil {
			t.Fatalf("fetch after killing the writer at R=2: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("fetched bytes mismatch")
		}
	})

	t.Run("R=1 loses the object", func(t *testing.T) {
		client, ws := replMesh(t, 3, 1, nil)
		defer closeAll(client, ws)
		h := ws[0].PutBlob(data)
		ws[0].Close()
		// Wait until the client has evicted the dead writer, so the fetch
		// deterministically asks only survivors.
		waitFor(t, "writer evicted", func() bool {
			return client.NetStats().Peers == 2
		})
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if _, err := client.ObjectBytes(ctx, h); err == nil {
			t.Fatal("fetch at R=1 succeeded after the only holder died; expected failure")
		}
	})
}

// TestChaosRepairReestablishesReplicas pins anti-entropy: killing a
// replica holder leaves an object under-replicated; the surviving
// holder's eviction-triggered repair pass must push a fresh copy onto
// the ring's new successor, restoring R copies.
func TestChaosRepairReestablishesReplicas(t *testing.T) {
	client, ws := replMesh(t, 3, 2, nil)
	defer closeAll(client, ws)
	data := bytes.Repeat([]byte{5}, 1500)
	h := ws[0].PutBlob(data)
	all := append([]*Node{client}, ws...)
	waitFor(t, "initial replication", func() bool {
		return storedCopies(h, all...) >= 2
	})
	// Kill one holder (writer or successor — either leaves one copy).
	var killed *Node
	for _, w := range ws {
		if w.Store().Contains(h) {
			killed = w
			break
		}
	}
	killed.Close()
	var survivors []*Node
	for _, w := range ws {
		if w != killed {
			survivors = append(survivors, w)
		}
	}
	waitFor(t, "repair re-established 2 copies on survivors", func() bool {
		return storedCopies(h, append([]*Node{client}, survivors...)...) >= 2
	})
	repaired := false
	for _, w := range survivors {
		if ns := w.NetStats(); ns.RepairPasses > 0 {
			repaired = true
		}
	}
	if !repaired {
		t.Fatal("no surviving worker ran a repair pass")
	}
}

// TestReplicationOfEvalOutputs pins the third write path: a delegated
// job's result closure is replicated off the worker that computed it,
// so a completed answer survives that worker's death.
func TestReplicationOfEvalOutputs(t *testing.T) {
	reg := runtime.NewRegistry()
	reg.RegisterFunc("pad", func(api core.API, input core.Handle) (core.Handle, error) {
		entries, err := api.AttachTree(input)
		if err != nil {
			return core.Handle{}, err
		}
		b, err := api.AttachBlob(entries[2])
		if err != nil {
			return core.Handle{}, err
		}
		v, err := core.DecodeU64(b)
		if err != nil {
			return core.Handle{}, err
		}
		// A result big enough to be a real stored object, not a literal.
		return api.CreateBlob(bytes.Repeat([]byte{byte(v)}, 1024)), nil
	})
	client, ws := replMesh(t, 2, 2, reg)
	defer closeAll(client, ws)

	fn := client.PutBlob(core.NativeFunctionBlob("pad"))
	tree, err := client.PutTree(core.InvocationTree(core.DefaultLimits.Handle(), fn, core.LiteralU64(7)))
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
	waitFor(t, "result replicated onto 2 workers", func() bool {
		return storedCopies(res, ws...) >= 2
	})
}

// TestChaosReplicationUnderChaosLink runs the R=2 survival scenario with
// the client↔worker links wrapped in seeded Chaos conns (deterministic
// latency spikes), confirming replication and ring-tier fetching hold up
// under the chaos harness's fault machinery rather than only on clean
// pipes.
func TestChaosReplicationUnderChaosLink(t *testing.T) {
	data := bytes.Repeat([]byte{11}, 2048)
	client := NewNode("client", hbOpts(NodeOptions{Cores: 1, ClientOnly: true, Replicas: 2}))
	ws := make([]*Node, 3)
	for i := range ws {
		ws[i] = NewNode(fmt.Sprintf("w%d", i), hbOpts(NodeOptions{Cores: 2, Replicas: 2}))
	}
	defer closeAll(client, ws)
	for i, w := range ws {
		pa, pb := transport.Pipe(fastLink())
		ca := transport.Chaos(pa, transport.ChaosConfig{
			Seed:         int64(1000 + i),
			SpikeEvery:   5,
			SpikeLatency: time.Millisecond,
		})
		client.AttachPeer(ca)
		w.AttachPeer(pb)
		waitPeer(client, w.ID())
		waitPeer(w, client.ID())
	}
	FullMesh(fastLink(), ws...)

	h := ws[1].PutBlob(data)
	all := append([]*Node{client}, ws...)
	waitFor(t, "replica established", func() bool {
		return storedCopies(h, all...) >= 2
	})
	ws[1].Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, err := client.ObjectBytes(ctx, h)
	if err != nil {
		t.Fatalf("fetch over chaos links after kill: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("fetched bytes mismatch")
	}
}

// RingOwners returns the ordered ring owner list for h at the node's
// replication factor — where the object is canonically placed once
// written and repaired.
func (n *Node) RingOwners(h core.Handle) []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ring.Owners(h.AsObject(), n.opts.Replicas)
}
