package cluster

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fixgo/internal/core"
	"fixgo/internal/proto"
	"fixgo/internal/storage"
	"fixgo/internal/transport"
)

// countingTier is a storage tier that counts Gets and serves one blob
// after a delay long enough for every concurrent Fetch to pile up on the
// in-flight wait. Only Get is implemented: a node given it with
// demoteAfter 0 never writes to its tier.
type countingTier struct {
	storage.Storage
	calls atomic.Int64
	h     core.Handle
	data  []byte
	delay time.Duration
}

func (f *countingTier) Get(ctx context.Context, h core.Handle) ([]byte, error) {
	f.calls.Add(1)
	time.Sleep(f.delay)
	if h.StorageKey() == f.h.StorageKey() {
		return f.data, nil
	}
	return nil, &storage.NotFoundError{Handle: h, Tier: "counting"}
}

// TestFetchSingleFlight drives N concurrent clusterFetcher.Fetch calls for
// one handle against a scripted peer that always answers Missing. Exactly
// one peer request and one tier read may occur: the other N−1 callers
// must join the in-flight wait (fetchW in fetcher.go).
func TestFetchSingleFlight(t *testing.T) {
	data := bytes.Repeat([]byte{0xA5}, 1024)
	h := core.BlobHandle(data)

	tier := &countingTier{h: h, data: data, delay: 50 * time.Millisecond}
	n := NewNode("n", NodeOptions{Cores: 1})
	n.SetTier(tier, 0)
	defer n.Close()

	// A scripted peer: replies to the Hello, advertises ownership of h so
	// the fetcher asks it first, then answers every Request with Missing,
	// counting the requests it sees.
	ours, theirs := transport.Pipe(transport.LinkConfig{})
	n.AttachPeer(ours)
	var peerRequests atomic.Int64
	go func() {
		hello := &proto.Message{Type: proto.TypeHello, From: "scripted", Role: proto.RoleWorker, Adverts: []core.Handle{h}}
		_ = theirs.Send(hello.Encode())
		for {
			raw, err := theirs.Recv()
			if err != nil {
				return
			}
			m, err := proto.Decode(raw)
			if err != nil || m.Type != proto.TypeRequest {
				continue
			}
			peerRequests.Add(1)
			reply := &proto.Message{Type: proto.TypeMissing, From: "scripted", Handle: m.Handle}
			_ = theirs.Send(reply.Encode())
		}
	}()
	waitPeer(n, "scripted")

	const N = 32
	f := &clusterFetcher{n: n}
	var wg sync.WaitGroup
	errs := make([]error, N)
	outs := make([][]byte, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = f.Fetch(context.Background(), h)
		}(i)
	}
	wg.Wait()

	for i := 0; i < N; i++ {
		if errs[i] != nil {
			t.Fatalf("fetch %d: %v", i, errs[i])
		}
		if !bytes.Equal(outs[i], data) {
			t.Fatalf("fetch %d: wrong bytes (%d, want %d)", i, len(outs[i]), len(data))
		}
	}
	if got := peerRequests.Load(); got != 1 {
		t.Errorf("peer requests = %d, want exactly 1 (single-flight)", got)
	}
	if got := tier.calls.Load(); got != 1 {
		t.Errorf("tier reads = %d, want exactly 1 (single-flight)", got)
	}
	if !n.Store().Contains(h) {
		t.Error("fetched object not resident after fetch")
	}
}

// gatedTier is a storage tier whose Get announces each call on entered,
// then serves data once release closes, or gives up when its caller's
// context ends. Like countingTier, it implements only Get.
type gatedTier struct {
	storage.Storage
	calls   atomic.Int64
	data    []byte
	entered chan struct{}
	release chan struct{}
}

func (f *gatedTier) Get(ctx context.Context, h core.Handle) ([]byte, error) {
	f.calls.Add(1)
	f.entered <- struct{}{}
	select {
	case <-f.release:
		return f.data, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TestCancelledFetchLeaderLeavesJoiner: a fetch leader whose own context
// ends fails with that context's error, and a joiner whose context is
// live fetches again instead of sharing it.
func TestCancelledFetchLeaderLeavesJoiner(t *testing.T) {
	data := bytes.Repeat([]byte{0x5A}, 1024)
	h := core.BlobHandle(data)
	tier := &gatedTier{data: data, entered: make(chan struct{}, 2), release: make(chan struct{})}
	n := NewNode("n", NodeOptions{Cores: 1})
	n.SetTier(tier, 0)
	defer n.Close()
	f := &clusterFetcher{n: n}

	lctx, cancel := context.WithCancel(context.Background())
	leader := make(chan error, 1)
	go func() { _, err := f.Fetch(lctx, h); leader <- err }()
	<-tier.entered // the leader is inside the tier read
	type out struct {
		data []byte
		err  error
	}
	joiner := make(chan out, 1)
	go func() { d, err := f.Fetch(context.Background(), h); joiner <- out{d, err} }()
	time.Sleep(20 * time.Millisecond) // let the joiner reach the fetch wait
	cancel()
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leader: %v, want context.Canceled", err)
	}
	<-tier.entered // the joiner fetches on its own
	close(tier.release)
	j := <-joiner
	if j.err != nil {
		t.Fatalf("joiner failed with its leader's cancellation: %v", j.err)
	}
	if !bytes.Equal(j.data, data) {
		t.Fatalf("joiner got %d bytes, want the %d-byte object", len(j.data), len(data))
	}
	if got := tier.calls.Load(); got != 2 {
		t.Fatalf("tier reads = %d, want 2 (the leader's and the joiner's)", got)
	}
}
