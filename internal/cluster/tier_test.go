package cluster

import (
	"bytes"
	"context"
	"fmt"
	goruntime "runtime"
	"sync"
	"testing"
	"time"

	"fixgo/internal/core"
	"fixgo/internal/storage"
)

// testTier builds an LFC-fronted Dir tier in temp dirs.
func testTier(t *testing.T, budget int64) *storage.LFC {
	t.Helper()
	remote, err := storage.NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	lfc, err := storage.NewLFC(t.TempDir(), budget, remote)
	if err != nil {
		t.Fatal(err)
	}
	return lfc
}

// storedTier returns a remote-style tier (a storage.Dir) already holding
// data: an object the platform stores and no peer has.
func storedTier(t *testing.T, data []byte) (storage.Storage, core.Handle) {
	t.Helper()
	tier, err := storage.NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h := core.BlobHandle(data)
	if err := tier.Put(context.Background(), h.AsObject(), data); err != nil {
		t.Fatal(err)
	}
	return tier, h
}

// tierNode returns a node with tier attached and no demotion loop: the
// test runs every DemotePass itself.
func tierNode(id string, opts NodeOptions, tier storage.Storage) *Node {
	n := NewNode(id, opts)
	n.SetTier(tier, 0)
	return n
}

// demoteLoops counts the live goroutines SetTier started: the demotion
// loops. One that has not run yet shows SetTier's go-statement wrapper
// as its frame; a running one names SetTier as its creator.
func demoteLoops() int {
	buf := make([]byte, 1<<16)
	for {
		n := goruntime.Stack(buf, true)
		if n < len(buf) {
			loops := 0
			for _, g := range bytes.Split(buf[:n], []byte("\n\n")) {
				if bytes.Contains(g, []byte("cluster.(*Node).SetTier")) {
					loops++
				}
			}
			return loops
		}
		buf = make([]byte, 2*len(buf))
	}
}

// waitDemoteLoops waits until exactly want demotion loops run.
func waitDemoteLoops(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for demoteLoops() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%d demotion loops running, want %d", demoteLoops(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSetTierDemotion pins the one way a node gets its tier. With
// demoteAfter 0 no demotion loop runs, and DemotePass demotes exactly
// the objects idle since before its cutoff; with demoteAfter > 0
// exactly one loop runs, until Close.
func TestSetTierDemotion(t *testing.T) {
	waitDemoteLoops(t, 0) // earlier tests' nodes are closed
	n := tierNode("w0", NodeOptions{Cores: 1}, testTier(t, 1<<20))
	defer n.Close()
	if got := demoteLoops(); got != 0 {
		t.Fatalf("SetTier(tier, 0) started %d demotion loops", got)
	}
	idle := n.PutBlob(bytes.Repeat([]byte{1}, 300))
	time.Sleep(time.Millisecond)
	cutoff := time.Now()
	fresh := n.PutBlob(bytes.Repeat([]byte{2}, 300))
	if got := n.DemotePass(context.Background(), cutoff); got != 1 {
		t.Fatalf("DemotePass = %d, want 1 (the object idle since before the cutoff)", got)
	}
	if n.Store().Contains(idle) {
		t.Fatal("object idle past the cutoff survives the pass")
	}
	if !n.Store().Contains(fresh) {
		t.Fatal("object written after the cutoff was demoted")
	}

	m := NewNode("w1", NodeOptions{Cores: 1})
	m.SetTier(testTier(t, 1<<20), time.Hour)
	if got := demoteLoops(); got != 1 {
		m.Close()
		t.Fatalf("SetTier(tier, time.Hour) started %d demotion loops, want 1", got)
	}
	m.Close()
	waitDemoteLoops(t, 0)
}

// TestTierDemoteAndRefetch pins the demotion/promotion lifecycle on one
// node: a cold object is spilled to the tier and evicted from the hot
// store, then a later read recovers it through the fetcher's tier hop
// and promotes it back.
func TestTierDemoteAndRefetch(t *testing.T) {
	const idle = 10 * time.Millisecond
	tier := testTier(t, 1<<20)
	n := tierNode("w0", NodeOptions{Cores: 1}, tier)
	defer n.Close()

	data := bytes.Repeat([]byte{42}, 512)
	h := n.PutBlob(data)
	if !n.Store().Contains(h) {
		t.Fatal("object not resident after PutBlob")
	}

	// Too hot to demote: inside the idle window nothing moves.
	if got := n.DemotePass(context.Background(), time.Now().Add(-idle)); got != 0 {
		t.Fatalf("hot object demoted: %d", got)
	}

	time.Sleep(2 * idle)
	if got := n.DemotePass(context.Background(), time.Now().Add(-idle)); got != 1 {
		t.Fatalf("DemotePass = %d, want 1", got)
	}
	if n.Store().Contains(h) {
		t.Fatal("hot copy survives demotion")
	}
	if ok, err := tier.Has(context.Background(), h.AsObject()); err != nil || !ok {
		t.Fatalf("tier does not hold demoted object: %v %v", ok, err)
	}

	// The read path recovers and promotes it.
	got, err := n.ObjectBytes(context.Background(), h)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("ObjectBytes after demotion = %v", err)
	}
	if !n.Store().Contains(h) {
		t.Fatal("tier fetch did not promote the object back")
	}

	ss := n.StorageStats()
	if ss == nil {
		t.Fatal("StorageStats nil with a tier configured")
	}
	if ss.Demoted != 1 || ss.TierFetches != 1 || ss.DemotePasses != 2 {
		t.Fatalf("counters: %+v", ss)
	}
}

// TestTierPinnedObjectSurvivesDemotion: pins block eviction, so a pinned
// object stays hot even when cold by access time.
func TestTierPinnedObjectSurvivesDemotion(t *testing.T) {
	tier := testTier(t, 1<<20)
	n := tierNode("w0", NodeOptions{Cores: 1}, tier)
	defer n.Close()
	h := n.PutBlob(bytes.Repeat([]byte{7}, 256))
	n.Store().Pin(h)
	time.Sleep(15 * time.Millisecond)
	n.DemotePass(context.Background(), time.Now().Add(-5*time.Millisecond))
	if !n.Store().Contains(h) {
		t.Fatal("pinned object was demoted")
	}
}

// TestTierDemoteRequiresReplicas: with replication on, an object this
// node cannot account R copies of is not demoted — repair must
// re-establish replicas before demotion thins the holders.
func TestTierDemoteRequiresReplicas(t *testing.T) {
	tier := testTier(t, 1<<20)
	// R=2 but no peers: every object is under-replicated.
	n := tierNode("w0", NodeOptions{Cores: 1, Replicas: 2}, tier)
	defer n.Close()
	h := n.PutBlob(bytes.Repeat([]byte{9}, 256))
	time.Sleep(15 * time.Millisecond)
	if got := n.DemotePass(context.Background(), time.Now().Add(-5*time.Millisecond)); got != 0 {
		t.Fatalf("under-replicated object demoted: %d", got)
	}
	if !n.Store().Contains(h) {
		t.Fatal("under-replicated object left the hot store")
	}
}

// TestTierMissRecoversFromTier: an object present only in the tier (e.g.
// demoted by a node that then died) is recovered by the fetcher's final
// hop.
func TestTierMissRecoversFromTier(t *testing.T) {
	tier := testTier(t, 1<<20)
	data := bytes.Repeat([]byte{3}, 400)
	h := core.BlobHandle(data)
	if err := tier.Put(context.Background(), h.AsObject(), data); err != nil {
		t.Fatal(err)
	}
	n := tierNode("w0", NodeOptions{Cores: 1}, tier)
	defer n.Close()
	got, err := n.ObjectBytes(context.Background(), h)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("tier-only object not recovered: %v", err)
	}
	if ss := n.StorageStats(); ss.TierFetches != 1 {
		t.Fatalf("TierFetches = %d, want 1", ss.TierFetches)
	}
}

// TestTierDemoteFetchRace is the demotion-vs-concurrent-fetch stress:
// readers hammer ObjectBytes while demotion passes continuously spill
// cold objects, under -race in the chaos job. Every read must succeed —
// an object caught mid-demotion is always recoverable from the tier.
func TestTierDemoteFetchRace(t *testing.T) {
	tier := testTier(t, 1<<20)
	n := tierNode("w0", NodeOptions{Cores: 1}, tier)
	defer n.Close()

	const objects = 24
	handles := make([]core.Handle, objects)
	payloads := make([][]byte, objects)
	for i := range handles {
		payloads[i] = bytes.Repeat([]byte{byte(i), 0xA5}, 200+i)
		handles[i] = n.PutBlob(payloads[i])
	}
	time.Sleep(3 * time.Millisecond)

	stop := make(chan struct{})
	var demoters sync.WaitGroup
	demoters.Add(1)
	go func() {
		defer demoters.Done()
		for {
			select {
			case <-stop:
				return
			default:
				n.DemotePass(context.Background(), time.Now().Add(-time.Millisecond))
			}
		}
	}()

	var readers sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; i < 80; i++ {
				idx := (g*13 + i) % objects
				got, err := n.ObjectBytes(context.Background(), handles[idx])
				if err != nil {
					errs <- fmt.Errorf("reader %d object %d: %w", g, idx, err)
					return
				}
				if !bytes.Equal(got, payloads[idx]) {
					errs <- fmt.Errorf("reader %d object %d: corrupt read", g, idx)
					return
				}
			}
		}(g)
	}
	readers.Wait()
	close(stop)
	demoters.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}
