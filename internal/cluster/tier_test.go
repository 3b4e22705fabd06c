package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	goruntime "runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"fixgo/internal/core"
	"fixgo/internal/durable"
	"fixgo/internal/storage"
	"fixgo/internal/transport"
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

// TestSetTierZeroSweep: a demoteAfter whose sweep period, demoteAfter/2,
// rounds to zero starts no demotion loop. It used to panic on a ticker
// of period 0.
func TestSetTierZeroSweep(t *testing.T) {
	waitDemoteLoops(t, 0)
	n := NewNode("w0", NodeOptions{Cores: 1})
	defer n.Close()
	n.SetTier(testTier(t, 1<<20), 1)
	if got := demoteLoops(); got != 0 {
		t.Fatalf("SetTier(tier, 1ns) started %d demotion loops, want 0", got)
	}
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
	if got, err := tier.Get(context.Background(), h.AsObject()); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("tier does not hold demoted object: %v", err)
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

// packedNode returns a node whose store reads and writes through to
// durable packs in dir, with tier attached and no demotion loop.
func packedNode(t *testing.T, id, dir string, tier storage.Storage) *Node {
	t.Helper()
	n := NewNode(id, NodeOptions{Cores: 1})
	packs, _, err := durable.Attach(dir, durable.Options{}, n.Store())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close(); packs.Close() })
	n.SetTier(tier, 0)
	return n
}

// TestTierDemoteServesFromPacks puts a node over the shape a daemon with
// -data-dir and -remote-dir builds: durable packs in front of an LFC →
// remote tier. One pass demotes N cold objects with one remote write each
// and leaves none resident; the store then reads each back from the
// packs, so the packs serve every read: neither the fetcher's tier hop
// nor the remote serves one.
func TestTierDemoteServesFromPacks(t *testing.T) {
	const objects = 12
	n := packedNode(t, "w0", t.TempDir(), testTier(t, 1<<20))

	handles := make([]core.Handle, objects)
	payloads := make([][]byte, objects)
	for i := range handles {
		payloads[i] = bytes.Repeat([]byte{byte(i), 0x5A}, 150+i)
		handles[i] = n.PutBlob(payloads[i])
	}
	time.Sleep(time.Millisecond)
	if got := n.DemotePass(context.Background(), time.Now()); got != objects {
		t.Fatalf("DemotePass = %d, want %d", got, objects)
	}
	if ss := n.StorageStats(); ss.RemotePuts != objects {
		t.Fatalf("RemotePuts = %d, want %d (one per demoted object)", ss.RemotePuts, objects)
	}
	if got := n.Store().Len(); got != 0 {
		t.Fatalf("%d objects resident after demotion, want 0", got)
	}
	for i, h := range handles {
		got, err := n.ObjectBytes(context.Background(), h)
		if err != nil || !bytes.Equal(got, payloads[i]) {
			t.Fatalf("object %d after demotion: %v", i, err)
		}
	}
	ss := n.StorageStats()
	if ss.TierFetches != 0 || ss.RemoteGets != 0 || n.Store().Len() != objects {
		t.Fatalf("TierFetches = %d, RemoteGets = %d, resident %d; want 0, 0 and %d (the packs serve every read)",
			ss.TierFetches, ss.RemoteGets, n.Store().Len(), objects)
	}
}

// TestRestartAdvertisesRecoveredObjects: a worker restarted on its data
// dir holds no object in RAM, yet its Hello names every object its packs
// recovered, so a peer still locates each one on it.
func TestRestartAdvertisesRecoveredObjects(t *testing.T) {
	dir := t.TempDir()
	w := NewNode("w", NodeOptions{Cores: 1})
	packs, _, err := durable.Attach(dir, durable.Options{}, w.Store())
	if err != nil {
		t.Fatal(err)
	}
	var handles []core.Handle
	for i := 0; i < 8; i++ {
		handles = append(handles, w.PutBlob(bytes.Repeat([]byte{byte(i), 0x3C}, 100)))
	}
	tree, err := w.Store().PutTree(handles[:2])
	if err != nil {
		t.Fatal(err)
	}
	handles = append(handles, tree)
	w.Close()
	if err := packs.Close(); err != nil {
		t.Fatal(err)
	}

	restarted := packedNode(t, "w", dir, nil)
	if got := restarted.Store().Len(); got != 0 {
		t.Fatalf("restarted worker holds %d objects in RAM, want 0", got)
	}
	client := NewNode("c", NodeOptions{Cores: 1, ClientOnly: true})
	defer client.Close()
	Connect(client, restarted, transport.LinkConfig{})
	for i, h := range handles {
		waitFor(t, fmt.Sprintf("the advert of recovered object %d", i), func() bool {
			return slices.Contains(client.ViewOwners(h), "w")
		})
	}
	if got := restarted.Store().Len(); got != 0 {
		t.Fatalf("advertising made %d objects resident, want 0", got)
	}
}

// TestRestartRepairReplicatesRecoveredObjects: a worker restarted on its
// data dir at R=2 holds its objects in its packs only, and its repair
// passes still cover them. Joining the mesh gives each recovered object a
// second copy; after those copies leave RAM and a peer dies, each is back
// to two copies on the survivors. Repair reads the objects through the
// packs without faulting them in, so none is resident after it.
func TestRestartRepairReplicatesRecoveredObjects(t *testing.T) {
	dir := t.TempDir()
	w := NewNode("w0", NodeOptions{Cores: 1})
	packs, _, err := durable.Attach(dir, durable.Options{}, w.Store())
	if err != nil {
		t.Fatal(err)
	}
	var handles []core.Handle
	for i := 0; i < 6; i++ {
		handles = append(handles, w.PutBlob(bytes.Repeat([]byte{byte(i), 0x5E}, 300)))
	}
	w.Close()
	if err := packs.Close(); err != nil {
		t.Fatal(err)
	}

	opts := hbOpts(NodeOptions{Cores: 1, Replicas: 2})
	restarted := NewNode("w0", opts)
	if packs, _, err = durable.Attach(dir, durable.Options{}, restarted.Store()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { restarted.Close(); packs.Close() })
	peers := []*Node{NewNode("w1", opts), NewNode("w2", opts)}
	defer peers[0].Close()
	defer peers[1].Close()
	FullMesh(fastLink(), restarted, peers[0], peers[1])
	all := []*Node{restarted, peers[0], peers[1]}
	for i, h := range handles {
		waitFor(t, fmt.Sprintf("a second copy of recovered object %d", i), func() bool {
			return storedCopies(h, all...) >= 2
		})
	}

	for _, h := range handles {
		restarted.Store().Evict(h)
	}
	if got := restarted.Store().Len(); got != 0 {
		t.Fatalf("restarted worker holds %d objects in RAM, want 0", got)
	}
	killed, survivor := peers[0], peers[1]
	if storedCopies(handles[0], survivor) > storedCopies(handles[0], killed) {
		killed, survivor = survivor, killed
	}
	passes := restarted.NetStats().RepairPasses
	killed.Close()
	for i, h := range handles {
		waitFor(t, fmt.Sprintf("two copies of recovered object %d after a peer died", i), func() bool {
			return storedCopies(h, restarted, survivor) >= 2
		})
	}
	if got := restarted.NetStats().RepairPasses; got <= passes {
		t.Fatalf("restarted worker ran %d repair passes after the peer died, want at least 1", got-passes)
	}
	resident := 0
	restarted.Store().ForEach(func(h core.Handle, _ uint64) {
		if slices.Contains(handles, h) {
			resident++
		}
	})
	if resident != 0 {
		t.Fatalf("%d of the %d recovered objects are resident after repair, want 0: repair reads through the packs", resident, len(handles))
	}
}

// TestTierReadThroughDemoteRace is TestTierDemoteFetchRace over durable
// packs: readers hammer ObjectBytes while demotion passes evict every
// cold object, so the store's read-through races Evict. Every read
// succeeds from the packs, and none reaches the tier.
func TestTierReadThroughDemoteRace(t *testing.T) {
	n := packedNode(t, "w0", t.TempDir(), testTier(t, 1<<20))
	const objects = 24
	handles := make([]core.Handle, objects)
	payloads := make([][]byte, objects)
	for i := range handles {
		payloads[i] = bytes.Repeat([]byte{byte(i), 0x96}, 200+i)
		handles[i] = n.PutBlob(payloads[i])
	}
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
				n.DemotePass(context.Background(), time.Now())
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
				idx := (g*7 + i) % objects
				got, err := n.ObjectBytes(context.Background(), handles[idx])
				if err == nil && !bytes.Equal(got, payloads[idx]) {
					err = errors.New("corrupt read")
				}
				if err != nil {
					errs <- fmt.Errorf("reader %d object %d: %w", g, idx, err)
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
	if ss := n.StorageStats(); ss.TierFetches != 0 || ss.RemoteGets != 0 {
		t.Fatalf("TierFetches = %d, RemoteGets = %d; want 0 and 0 (the packs serve every read)", ss.TierFetches, ss.RemoteGets)
	}
}

// failingTier is a storage tier whose Put fails for the handles in fail
// and otherwise writes to the tier it wraps.
type failingTier struct {
	storage.Storage
	fail map[core.Handle]bool
}

func (f *failingTier) Put(ctx context.Context, h core.Handle, data []byte) error {
	if f.fail[h] {
		return errors.New("tier write refused")
	}
	return f.Storage.Put(ctx, h, data)
}

// TestTierDemoteFailedPutKeepsHotCopy: a pass evicts exactly the
// objects the tier accepted. Those whose Put failed, a seeded third,
// stay hot.
func TestTierDemoteFailedPutKeepsHotCopy(t *testing.T) {
	const objects = 24
	tier := &failingTier{Storage: testTier(t, 1<<20), fail: map[core.Handle]bool{}}
	n := tierNode("w0", NodeOptions{Cores: 1}, tier)
	defer n.Close()
	handles := make([]core.Handle, objects)
	for i := range handles {
		handles[i] = n.PutBlob(bytes.Repeat([]byte{byte(i), 0xC3}, 100+i))
	}
	for _, i := range rand.New(rand.NewSource(44)).Perm(objects)[:objects/3] {
		tier.fail[handles[i].AsObject()] = true
	}
	time.Sleep(time.Millisecond)
	if got, want := n.DemotePass(context.Background(), time.Now()), objects-len(tier.fail); got != want {
		t.Fatalf("DemotePass = %d, want %d", got, want)
	}
	for i, h := range handles {
		if hot := n.Store().Contains(h); hot != tier.fail[h.AsObject()] {
			t.Errorf("object %d: hot = %v, its tier write failed = %v", i, hot, tier.fail[h.AsObject()])
		}
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

// TestTierCorruptLFCFileFallsThrough: an object good in the remote but
// corrupted in the node's cache directory is read from the remote by the
// fetcher's tier hop, and once refilled, from the cache.
func TestTierCorruptLFCFileFallsThrough(t *testing.T) {
	remote, err := storage.NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cacheDir := t.TempDir()
	data := bytes.Repeat([]byte{0x4C}, 4096)
	h := core.BlobHandle(data)
	if err := remote.Put(context.Background(), h, data); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(cacheDir, core.FormatHandle(h)), bytes.Repeat([]byte{0x4D}, 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	tier, err := storage.NewLFC(cacheDir, 1<<20, remote)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		n := tierNode(fmt.Sprintf("w%d", i), NodeOptions{Cores: 1}, tier)
		got, err := n.ObjectBytes(context.Background(), h)
		n.Close()
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	if ss := tier.StorageStats(); ss.RemoteGets != 1 || ss.LFCHits != 1 {
		t.Fatalf("RemoteGets = %d, LFCHits = %d; want 1 and 1", ss.RemoteGets, ss.LFCHits)
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

// PutBlob uploads a copy of data through PutBlobOwned.
func (n *Node) PutBlob(data []byte) core.Handle {
	return n.PutBlobOwned(core.BlobHandle(data), bytes.Clone(data))
}
