package cluster

import (
	"bytes"
	"context"
	"fmt"
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

// TestTierDemoteAndRefetch pins the demotion/promotion lifecycle on one
// node: a cold object is spilled to the tier and evicted from the hot
// store, then a later read recovers it through the fetcher's tier hop
// and promotes it back.
func TestTierDemoteAndRefetch(t *testing.T) {
	tier := testTier(t, 1<<20)
	n := NewNode("w0", NodeOptions{Cores: 1, Tier: tier, DemoteAfter: 10 * time.Millisecond, DemoteEvery: time.Hour})
	defer n.Close()

	data := bytes.Repeat([]byte{42}, 512)
	h := n.PutBlob(data)
	if !n.Store().Contains(h) {
		t.Fatal("object not resident after PutBlob")
	}

	// Too hot to demote: inside the idle window nothing moves.
	if got := n.DemotePass(context.Background()); got != 0 {
		t.Fatalf("hot object demoted: %d", got)
	}

	time.Sleep(20 * time.Millisecond)
	if got := n.DemotePass(context.Background()); got != 1 {
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
	n := NewNode("w0", NodeOptions{Cores: 1, Tier: tier, DemoteAfter: 5 * time.Millisecond, DemoteEvery: time.Hour})
	defer n.Close()
	h := n.PutBlob(bytes.Repeat([]byte{7}, 256))
	n.Store().Pin(h)
	time.Sleep(15 * time.Millisecond)
	n.DemotePass(context.Background())
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
	n := NewNode("w0", NodeOptions{Cores: 1, Replicas: 2, Tier: tier, DemoteAfter: 5 * time.Millisecond, DemoteEvery: time.Hour})
	defer n.Close()
	h := n.PutBlob(bytes.Repeat([]byte{9}, 256))
	time.Sleep(15 * time.Millisecond)
	if got := n.DemotePass(context.Background()); got != 0 {
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
	n := NewNode("w0", NodeOptions{Cores: 1, Tier: tier})
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
	n := NewNode("w0", NodeOptions{Cores: 1, Tier: tier, DemoteAfter: time.Millisecond, DemoteEvery: time.Hour})
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
				n.DemotePass(context.Background())
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
