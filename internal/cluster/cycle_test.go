package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fixgo/internal/core"
	"fixgo/internal/transport"
)

// staleView makes n believe that x lives on wrong instead of on holder,
// once the holder's Hello has told n where x is.
func staleView(t *testing.T, n *Node, x core.Handle, holder, wrong string) {
	t.Helper()
	waitFor(t, "the holder's Hello", func() bool { return slices.Contains(n.ViewOwners(x), holder) })
	n.mu.Lock()
	n.view.Remove(x, holder)
	n.viewAddLocked(x, wrong)
	n.mu.Unlock()
}

// delegationCycle runs the same len job on the first k of k+1 nodes at
// once, under a 5 s deadline. Its 4 KiB input lives on the last node
// only, and node i's stale view places it on node i+1 (mod k), so each
// evaluating node delegates the job to the next: a cycle of delegations
// of one Encode.
func delegationCycle(t *testing.T, k int) {
	nodes := make([]*Node, k+1)
	for i := range nodes {
		nodes[i] = NewNode(string(rune('a'+i)), NodeOptions{Cores: 2, Registry: countRegistry()})
	}
	defer closeAll(nodes[k], nodes[:k])
	holder := nodes[k]
	x := holder.Store().PutBlob(bytes.Repeat([]byte{9}, 4096))
	FullMesh(transport.LinkConfig{Latency: 50 * time.Millisecond}, nodes...)
	encs := make([]core.Handle, k)
	for i := range encs {
		encs[i] = lenJob(t, nodes[i], x)
		staleView(t, nodes[i], x, holder.id, nodes[(i+1)%k].id)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	errs := make(chan error, k)
	for i, n := range nodes[:k] {
		go func() {
			got, err := n.EvalBlob(ctx, encs[i])
			if v, _ := core.DecodeU64(got); err == nil && v != 4096 {
				err = fmt.Errorf("len = %d, want 4096", v)
			}
			if err != nil {
				err = fmt.Errorf("%s: %w", n.id, err)
			}
			errs <- err
		}()
	}
	for range k {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	for _, n := range nodes[:k] {
		if n.NetStats().JobsDelegated == 0 {
			t.Errorf("%s delegated nothing: the cycle did not form", n.id)
		}
	}
}

// TestDelegationCycleTwoNodes: two nodes whose stale views each place the
// job's input on the other delegate the same Encode to each other at
// once. Each forces the Encode it received where it lands, so both
// answer; neither waits on its own force, which waits on the other.
func TestDelegationCycleTwoNodes(t *testing.T) { delegationCycle(t, 2) }

// TestDelegationCycleThreeNodes: the same with three nodes in a ring of
// stale views, a→b→c→a.
func TestDelegationCycleThreeNodes(t *testing.T) { delegationCycle(t, 3) }

// staleViewSeedsPerRun is how many seeds one run of
// TestDelegationStaleViewSeeds covers. Each run in a process takes the
// next ones, so -count=20 covers 500 distinct seeds.
const staleViewSeedsPerRun = 25

var staleViewRuns atomic.Int64

// TestDelegationStaleViewSeeds: per seed, 4 nodes over links of 0–2 ms
// hold 4 blobs, each on one node, and every other node's view places
// each blob on a wrong node. Every node then evaluates every blob's len
// job at once, in seeded order, under a 3 s deadline. No evaluation may
// reach the deadline or fail, every length must be right, and no
// goroutine of the package may outlive Close.
func TestDelegationStaleViewSeeds(t *testing.T) {
	first := (staleViewRuns.Add(1) - 1) * staleViewSeedsPerRun
	var late, failed, wrong int
	for seed := first; seed < first+staleViewSeedsPerRun; seed++ {
		l, f, w := staleViewSeed(t, seed)
		late, failed, wrong = late+l, failed+f, wrong+w
	}
	evals := staleViewSeedsPerRun * 16
	t.Logf("seeds %d–%d: %d evaluations, %d past the deadline, %d failed, %d wrong", first, first+staleViewSeedsPerRun-1, evals, late, failed, wrong)
	if late+failed+wrong > 0 {
		t.Fatalf("of %d evaluations, %d reached the deadline, %d failed otherwise and %d returned a wrong length", evals, late, failed, wrong)
	}
}

// staleViewSeed runs one seed of TestDelegationStaleViewSeeds and counts
// its evaluations that reached the deadline, failed otherwise, or
// returned a wrong length.
func staleViewSeed(t *testing.T, seed int64) (late, failed, wrong int) {
	before := clusterGoroutines()
	rng := rand.New(rand.NewSource(seed))
	const size = 4
	nodes := make([]*Node, size)
	for i := range nodes {
		nodes[i] = NewNode(fmt.Sprintf("n%d", i), NodeOptions{Cores: 2, Registry: countRegistry(), Seed: seed})
	}
	blobs := make([]core.Handle, size)
	holders := make([]int, size)
	lens := make([]uint64, size)
	for b := range blobs {
		holders[b] = rng.Intn(size)
		data := make([]byte, 2048+rng.Intn(8192))
		rng.Read(data)
		blobs[b], lens[b] = nodes[holders[b]].Store().PutBlob(data), uint64(len(data))
	}
	for i := range nodes {
		for j := i + 1; j < size; j++ {
			Connect(nodes[i], nodes[j], transport.LinkConfig{Latency: time.Duration(rng.Intn(2001)) * time.Microsecond})
		}
	}
	for b, x := range blobs {
		holder := nodes[holders[b]].id
		for i, n := range nodes {
			if i == holders[b] {
				continue
			}
			w := rng.Intn(size)
			for w == i || w == holders[b] {
				w = rng.Intn(size)
			}
			staleView(t, n, x, holder, nodes[w].id)
		}
	}
	type eval struct {
		n    *Node
		blob int
		enc  core.Handle
	}
	var evals []eval
	for _, n := range nodes {
		for b, x := range blobs {
			evals = append(evals, eval{n, b, lenJob(t, n, x)})
		}
	}
	rng.Shuffle(len(evals), func(i, j int) { evals[i], evals[j] = evals[j], evals[i] })

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, ev := range evals {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := ev.n.EvalBlob(ctx, ev.enc)
			v, _ := core.DecodeU64(got)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case errors.Is(err, context.DeadlineExceeded):
				late++
			case err != nil:
				failed++
				t.Errorf("seed %d: %s, blob %d: %v", seed, ev.n.id, ev.blob, err)
			case v != lens[ev.blob]:
				wrong++
				t.Errorf("seed %d: %s, blob %d: len = %d, want %d", seed, ev.n.id, ev.blob, v, lens[ev.blob])
			}
		}()
	}
	wg.Wait()
	cancel()
	closeAll(nodes[0], nodes[1:])
	waitFor(t, "the package's goroutines to end after Close", func() bool {
		for id := range clusterGoroutines() {
			if _, ok := before[id]; !ok {
				return false
			}
		}
		return true
	})
	return late, failed, wrong
}
