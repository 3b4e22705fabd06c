package cluster

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	goruntime "runtime"

	"fixgo/internal/core"
	"fixgo/internal/runtime"
	"fixgo/internal/store"
	"fixgo/internal/wiki"
)

// goid parses the calling goroutine's id out of its stack header
// ("goroutine 42 [running]:").
func goid() uint64 {
	var buf [64]byte
	fields := bytes.Fields(buf[:goruntime.Stack(buf[:], false)])
	id, _ := strconv.ParseUint(string(fields[1]), 10, 64)
	return id
}

// TestWarmDelegationsReuseGoroutines: a worker serves sequential jobs on
// parked goroutines, not on a fresh one per job.
func TestWarmDelegationsReuseGoroutines(t *testing.T) {
	var ran sync.Map
	reg := runtime.NewRegistry()
	reg.RegisterFunc("f", func(api core.API, input core.Handle) (core.Handle, error) { // testEnc's procedure
		ran.Store(goid(), true)
		return core.LiteralU64(7), nil
	})
	client := NewNode("client", NodeOptions{Cores: 1, ClientOnly: true, Registry: reg})
	worker := NewNode("worker", NodeOptions{Cores: 1, Registry: reg})
	defer client.Close()
	defer worker.Close()
	Connect(client, worker, fastLink())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const jobs = 100
	for i := 0; i < jobs; i++ {
		if _, err := client.Eval(ctx, testEnc(t, client, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := worker.NetStats().JobsDelegated + client.NetStats().JobsDelegated; got != jobs {
		t.Fatalf("%d delegations for %d jobs", got, jobs)
	}
	distinct := 0
	ran.Range(func(_, _ any) bool { distinct++; return true })
	if distinct > 8 {
		t.Fatalf("%d sequential delegations ran on %d distinct goroutines, want ≤ 8", jobs, distinct)
	}
}

// TestPanicRemoteProcedureReturnsResultFrame: a procedure that panics on
// a worker fails the delegation with an ordinary Result frame; the worker
// keeps serving.
func TestPanicRemoteProcedureReturnsResultFrame(t *testing.T) {
	reg := countRegistry()
	reg.RegisterFunc("f", func(api core.API, input core.Handle) (core.Handle, error) { // testEnc's procedure
		panic("kaboom")
	})
	client := NewNode("client", NodeOptions{Cores: 1, ClientOnly: true, Registry: reg})
	worker := NewNode("worker", NodeOptions{Cores: 1, Registry: reg})
	defer client.Close()
	defer worker.Close()
	Connect(client, worker, fastLink())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err := client.Eval(ctx, testEnc(t, client, 1))
	if err == nil || !strings.Contains(err.Error(), "remote job on worker failed") ||
		!strings.Contains(err.Error(), "runtime: procedure panicked: kaboom") {
		t.Fatalf("want the worker's panic in a Result frame, got %v", err)
	}
	got, err := client.EvalBlob(ctx, lenJob(t, client, client.Store().PutBlob(make([]byte, 42))))
	if v, _ := core.DecodeU64(got); err != nil || v != 42 {
		t.Fatalf("job after a panic = %d, %v; want 42", v, err)
	}
}

// clusterGoroutines returns the stacks, keyed by header ("goroutine 42"),
// of every goroutine but the caller that mentions this package.
func clusterGoroutines() map[string]string {
	buf := make([]byte, 1<<20)
	for {
		if n := goruntime.Stack(buf, true); n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := make(map[string]string)
	for i, g := range strings.Split(string(buf), "\n\n") {
		if i == 0 || !strings.Contains(g, "internal/cluster") { // the first record is the caller
			continue
		}
		header, _, _ := strings.Cut(g, " [")
		out[header] = g
	}
	return out
}

// TestGoroutinesGoneAfterClose: once every node of a mesh that served
// jobs is closed, none of the package's goroutines remains and no parked
// evaluation goroutine keeps a node's store alive.
func TestGoroutinesGoneAfterClose(t *testing.T) {
	before := clusterGoroutines() // what earlier tests left running is not this test's
	finalized := make(chan struct{})
	func() {
		reg := runtime.NewRegistry()
		wiki.Register(reg, wiki.Config{})
		client := NewNode("client", NodeOptions{Cores: 1, ClientOnly: true, Registry: reg})
		ws := make([]*Node, 3)
		for i := range ws {
			ws[i] = NewNode(fmt.Sprintf("w%d", i), NodeOptions{Cores: 2, Registry: reg})
		}
		goruntime.SetFinalizer(ws[0].Store(), func(*store.Store) { close(finalized) })
		chunks := make([]core.Handle, 16)
		for i := range chunks {
			chunks[i] = ws[i%len(ws)].Store().PutBlob(wiki.Chunk(int64(i), 8<<10, "needle", 512))
		}
		for _, w := range ws {
			Connect(client, w, fastLink())
		}
		FullMesh(fastLink(), ws...)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for _, needle := range []string{"needle", "the", "of"} {
			job, err := wiki.BuildJob(client.Store(), needle, chunks)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := client.Eval(ctx, job); err != nil {
				t.Fatal(err)
			}
		}
		var served uint64
		for _, w := range ws {
			served += w.Stats().Usage(time.Second).Tasks
		}
		if served == 0 {
			t.Fatal("the workers served no job")
		}
		closeAll(client, ws)
	}()

	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		leaked := clusterGoroutines()
		for id := range before {
			delete(leaked, id)
		}
		if len(leaked) == 0 {
			break
		}
		if time.Now().After(deadline) {
			for _, g := range leaked {
				t.Errorf("goroutine left after Close:\n%s", g)
			}
			t.FailNow()
		}
	}
	deadline := time.After(10 * time.Second)
	for {
		goruntime.GC()
		select {
		case <-finalized:
			return
		case <-deadline:
			t.Fatal("a closed worker's store is still reachable")
		case <-time.After(10 * time.Millisecond):
		}
	}
}
