package cluster

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"fixgo/internal/codelet"
	"fixgo/internal/core"
	"fixgo/internal/proto"
	"fixgo/internal/transport"
)

// sendJob ships enc from one node to a connected peer as a Job frame
// carrying exactly pushed, and waits for the Result.
func sendJob(t *testing.T, from *Node, to string, enc core.Handle, pushed []proto.PushedObject) jobResult {
	t.Helper()
	w := &jobWaiter{ch: make(chan jobResult, 1), peerID: to}
	from.mu.Lock()
	p := from.peers[to]
	from.jobW[enc] = w
	from.mu.Unlock()
	if err := p.send(&proto.Message{Type: proto.TypeJob, From: from.id, Handle: enc, Hops: 1, Pushed: pushed}); err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-w.ch:
		return res
	case <-time.After(10 * time.Second):
		t.Fatal("no Result for the job")
		return jobResult{}
	}
}

// pushPair connects a sender to a worker and returns the add invocation
// (40 + 2) whose tree both tests push, with forged bytes for that tree:
// a well-formed encoding of a different tree (41 + 2), same length.
func pushPair(t *testing.T) (sender, worker *Node, entries []core.Handle, enc core.Handle, forged []byte) {
	t.Helper()
	sender = NewNode("sender", NodeOptions{Cores: 1, ClientOnly: true})
	worker = NewNode("worker", NodeOptions{Cores: 1})
	t.Cleanup(func() { closeAll(sender, []*Node{worker}) })
	Connect(sender, worker, transport.LinkConfig{})
	fn := core.BlobHandle(codelet.AddFunctionBlob())
	entries = core.InvocationTree(core.DefaultLimits.Handle(), fn, core.LiteralU64(40), core.LiteralU64(2))
	th, _ := core.Application(core.TreeHandle(entries))
	enc, _ = core.Strict(th)
	forged = core.EncodeTree(core.InvocationTree(core.DefaultLimits.Handle(), fn, core.LiteralU64(41), core.LiteralU64(2)))
	return sender, worker, entries, enc, forged
}

// TestResidentPushNotReverified: a Job frame pushing an already-resident
// tree under forged bytes leaves the stored entries as they were, and the
// job computes from them. The sender is recorded as a holder, as an
// Advertise would have it.
func TestResidentPushNotReverified(t *testing.T) {
	sender, worker, entries, enc, forged := pushPair(t)
	worker.Store().PutBlob(codelet.AddFunctionBlob())
	tree, err := worker.Store().PutTree(entries)
	if err != nil {
		t.Fatal(err)
	}
	res := sendJob(t, sender, worker.ID(), enc, []proto.PushedObject{{Handle: tree, Data: forged}})
	if res.err != nil {
		t.Fatal(res.err)
	}
	if got, _ := core.DecodeU64(res.result.LiteralData()); got != 42 {
		t.Fatalf("job result = %d, want 42", got)
	}
	if got, err := worker.Store().Tree(tree); err != nil || !reflect.DeepEqual(got, entries) {
		t.Fatalf("stored entries changed: %v, %v", got, err)
	}
	if owners := worker.ViewOwners(tree); !reflect.DeepEqual(owners, []string{sender.ID()}) {
		t.Fatalf("view owners of the pushed tree = %v, want the sender", owners)
	}
}

// TestCorruptPushRefused: the same forged push for a tree the worker does
// not hold is verified and refused. Nothing is stored, the sender is not
// recorded as a holder, and the job fails for want of its definition.
func TestCorruptPushRefused(t *testing.T) {
	sender, worker, entries, enc, forged := pushPair(t)
	worker.Store().PutBlob(codelet.AddFunctionBlob())
	tree := core.TreeHandle(entries)
	res := sendJob(t, sender, worker.ID(), enc, []proto.PushedObject{{Handle: tree, Data: forged}})
	if res.err == nil {
		t.Fatalf("job with a refused definition returned %v", res.result)
	}
	if worker.Store().Contains(tree) {
		t.Fatal("forged tree bytes were stored")
	}
	if owners := worker.ViewOwners(tree); len(owners) != 0 {
		t.Fatalf("view owners of the refused tree = %v, want none", owners)
	}
	if worker.Store().Len() != 1 {
		t.Fatalf("worker holds %d objects, want only the function", worker.Store().Len())
	}
}

// TestIngestPushedRecordsStoredAndResident: one Job's pushed objects,
// stored, resident, forged and malformed, are ingested together. The
// sender is recorded as the holder of what was stored or already
// resident, and of nothing that was refused.
func TestIngestPushedRecordsStoredAndResident(t *testing.T) {
	sender, worker, entries, _, forged := pushPair(t)
	resident, _ := worker.Store().PutTree(entries[:2])
	fresh := core.InvocationTree(core.DefaultLimits.Handle(), core.LiteralU64(5), core.LiteralU64(6))
	malformed := core.TreeHandle(fresh)
	malformed[31] |= 1 << 7 // the reserved flag bit
	pushed := []proto.PushedObject{
		{Handle: core.TreeHandle(entries), Data: forged},
		{Handle: resident, Data: forged},
		{Handle: core.TreeHandle(fresh), Data: core.EncodeTree(fresh)},
		{Handle: malformed, Data: core.EncodeTree(fresh)},
	}
	worker.ingestPushed(sender.ID(), pushed)
	for _, c := range []struct {
		h    core.Handle
		held bool
	}{{core.TreeHandle(entries), false}, {resident, true}, {core.TreeHandle(fresh), true}, {malformed, false}} {
		var want []string
		if c.held {
			want = []string{sender.ID()}
		}
		if owners := worker.ViewOwners(c.h); !slices.Equal(owners, want) {
			t.Errorf("view owners of %v = %v, want %v", c.h, owners, want)
		}
		if worker.Store().Contains(c.h) != c.held {
			t.Errorf("%v resident = %v, want %v", c.h, !c.held, c.held)
		}
	}
}
