package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"fixgo/internal/core"
	"fixgo/internal/proto"
	"fixgo/internal/store"
	"fixgo/internal/transport"
)

// addFakePeer injects a synthetic peer (no receive loop) so pick and
// candidates can be exercised without real links.
func addFakePeer(n *Node, id string, role byte) *peer {
	a, _ := transport.Pipe(transport.LinkConfig{})
	p := &peer{id: id, role: role, conn: a}
	p.lastSeen.Store(time.Now().UnixNano())
	n.mu.Lock()
	n.peers[id] = p
	n.mu.Unlock()
	return p
}

func setView(n *Node, h core.Handle, owners ...string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, o := range owners {
		n.viewAddLocked(h, o)
	}
}

func testEnc(t *testing.T, n *Node, arg uint64) core.Handle {
	t.Helper()
	fn := n.Store().PutBlob(core.NativeFunctionBlob("f"))
	tree, err := n.Store().PutTree(core.InvocationTree(core.DefaultLimits.Handle(), fn, core.LiteralU64(arg)))
	if err != nil {
		t.Fatal(err)
	}
	th, _ := core.Application(tree)
	enc, _ := core.Strict(th)
	return enc
}

// TestPickPlacementTable pins pick's cost model: bytes that must move to
// each candidate, plus the output-size hint for non-local placements.
func TestPickPlacementTable(t *testing.T) {
	remote := core.BlobHandle(bytes.Repeat([]byte{1}, 4096)) // never resident locally
	cases := []struct {
		name  string
		local bool     // the 4 KiB dependency is resident on the picker
		view  []string // peers the view locates the dependency on
		hint  uint64
		want  string
	}{
		{name: "dep only on w1 goes to w1", view: []string{"w1"}, want: "w1"},
		{name: "dep local stays local", local: true, hint: 64, want: "self"},
		{name: "huge hint beats locality", view: []string{"w1"}, hint: 1 << 20, want: "self"},
		{name: "dep on both w1 and self stays local (hint breaks the tie)", local: true, view: []string{"w1"}, hint: 64, want: "self"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := NewNode("self", NodeOptions{Cores: 1})
			defer n.Close()
			addFakePeer(n, "w1", proto.RoleWorker)
			addFakePeer(n, "w2", proto.RoleWorker)
			var depH core.Handle
			if tc.local {
				depH = n.Store().PutBlob(bytes.Repeat([]byte{1}, 4096))
			} else {
				depH = remote
			}
			setView(n, depH, tc.view...)
			deps := []store.Dep{{Handle: depH.AsObject(), Size: 4096}}
			enc := testEnc(t, n, 1)
			if got := n.pick(enc, []string{"self", "w1", "w2"}, deps, tc.hint); got != tc.want {
				t.Fatalf("pick = %s, want %s", got, tc.want)
			}
		})
	}
}

// TestPickDeterministic: identical inputs must produce identical picks,
// call after call — placement is a pure function of (enc, view, load).
func TestPickDeterministic(t *testing.T) {
	n := NewNode("self", NodeOptions{Cores: 1})
	defer n.Close()
	addFakePeer(n, "w1", proto.RoleWorker)
	addFakePeer(n, "w2", proto.RoleWorker)
	for arg := uint64(0); arg < 32; arg++ {
		enc := testEnc(t, n, arg)
		first := n.pick(enc, []string{"self", "w1", "w2"}, nil, 0)
		for i := 0; i < 50; i++ {
			if got := n.pick(enc, []string{"self", "w1", "w2"}, nil, 0); got != first {
				t.Fatalf("arg %d: pick flapped %s → %s on call %d", arg, first, got, i)
			}
		}
	}
}

// TestPickTieBreakSpreads: with equal costs (no deps, no hint) the
// deterministic pseudo-random tie-break must spread distinct jobs across
// candidates instead of piling onto one.
func TestPickTieBreakSpreads(t *testing.T) {
	n := NewNode("self", NodeOptions{Cores: 1})
	defer n.Close()
	addFakePeer(n, "w1", proto.RoleWorker)
	addFakePeer(n, "w2", proto.RoleWorker)
	winners := make(map[string]int)
	for arg := uint64(0); arg < 64; arg++ {
		winners[n.pick(testEnc(t, n, arg), []string{"self", "w1", "w2"}, nil, 0)]++
	}
	if len(winners) < 2 {
		t.Fatalf("64 equal-cost jobs all picked one node: %v", winners)
	}
}

// TestPickEmptyViewFallback: a dependency nobody is known to hold costs
// the same bytes everywhere, so the output-size hint (charged only to
// remote placements) must keep the job local.
func TestPickEmptyViewFallback(t *testing.T) {
	n := NewNode("self", NodeOptions{Cores: 1})
	defer n.Close()
	addFakePeer(n, "w1", proto.RoleWorker)
	ghost := core.BlobHandle(bytes.Repeat([]byte{3}, 2048))
	deps := []store.Dep{{Handle: ghost.AsObject(), Size: 2048}}
	for arg := uint64(0); arg < 16; arg++ {
		if got := n.pick(testEnc(t, n, arg), []string{"self", "w1"}, deps, 64); got != "self" {
			t.Fatalf("arg %d: pick = %s, want self (hint must break the unknown-owner tie)", arg, got)
		}
	}
}

// TestPickNeverSelectsEvictedPeer is the property-style pin: after any
// sequence of evictions, neither candidates() nor pick() may name an
// evicted peer, and the view must hold no evicted owner.
func TestPickNeverSelectsEvictedPeer(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := NewNode("self", NodeOptions{Cores: 1})
		peerIDs := []string{"w0", "w1", "w2", "w3", "w4"}
		peers := make(map[string]*peer, len(peerIDs))
		for _, id := range peerIDs {
			peers[id] = addFakePeer(n, id, proto.RoleWorker)
		}
		// Scatter view entries over random owner subsets.
		handles := make([]core.Handle, 20)
		for i := range handles {
			handles[i] = core.BlobHandle(bytes.Repeat([]byte{byte(i)}, 600+i))
			for _, id := range peerIDs {
				if rng.Intn(2) == 0 {
					setView(n, handles[i], id)
				}
			}
		}
		// Evict a random non-empty subset.
		evicted := make(map[string]bool)
		for _, id := range peerIDs {
			if rng.Intn(2) == 0 {
				evicted[id] = true
				n.evictPeer(peers[id], fmt.Errorf("test eviction"))
			}
		}
		if len(evicted) == 0 {
			evicted[peerIDs[0]] = true
			n.evictPeer(peers[peerIDs[0]], fmt.Errorf("test eviction"))
		}
		// The view must be clean of evicted owners.
		n.mu.Lock()
		for _, h := range handles {
			for _, id := range n.view.Owners(h.AsObject()) {
				if evicted[id] {
					n.mu.Unlock()
					t.Fatalf("seed %d: view[%v] still lists evicted %s", seed, h, id)
				}
			}
		}
		n.mu.Unlock()
		// And placement must never name an evicted peer.
		for trial := 0; trial < 200; trial++ {
			var deps []store.Dep
			for k := 0; k < rng.Intn(4); k++ {
				h := handles[rng.Intn(len(handles))]
				deps = append(deps, store.Dep{Handle: h.AsObject(), Size: h.Size()})
			}
			candidates, peerByID := n.candidates()
			for _, c := range candidates {
				if evicted[c] {
					t.Fatalf("seed %d: candidates() lists evicted %s", seed, c)
				}
			}
			target := n.pick(testEnc(t, n, uint64(trial)), candidates, deps, uint64(rng.Intn(2048)))
			if evicted[target] {
				t.Fatalf("seed %d trial %d: pick selected evicted peer %s", seed, trial, target)
			}
			if target != n.id && peerByID[target] == nil {
				t.Fatalf("seed %d trial %d: pick selected unknown peer %s", seed, trial, target)
			}
		}
		n.Close()
	}
}
