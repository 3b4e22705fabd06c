package cluster

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"fixgo/internal/codelet"
	"fixgo/internal/core"
	"fixgo/internal/runtime"
	"fixgo/internal/transport"
)

func fastLink() transport.LinkConfig {
	return transport.LinkConfig{Latency: 200 * time.Microsecond}
}

// countRegistry registers a "len" procedure returning its blob argument's
// length and a "sum" procedure adding two integer blobs.
func countRegistry() *runtime.Registry {
	reg := runtime.NewRegistry()
	reg.RegisterFunc("len", func(api core.API, input core.Handle) (core.Handle, error) {
		entries, err := api.AttachTree(input)
		if err != nil {
			return core.Handle{}, err
		}
		b, err := api.AttachBlob(entries[2])
		if err != nil {
			return core.Handle{}, err
		}
		return api.CreateBlob(core.LiteralU64(uint64(len(b))).LiteralData()), nil
	})
	reg.RegisterFunc("sum", func(api core.API, input core.Handle) (core.Handle, error) {
		entries, err := api.AttachTree(input)
		if err != nil {
			return core.Handle{}, err
		}
		var total uint64
		for _, arg := range entries[2:] {
			b, err := api.AttachBlob(arg)
			if err != nil {
				return core.Handle{}, err
			}
			v, err := core.DecodeU64(b)
			if err != nil {
				return core.Handle{}, err
			}
			total += v
		}
		return api.CreateBlob(core.LiteralU64(total).LiteralData()), nil
	})
	return reg
}

// lenJob builds strict(application([lim, len, blobHandle])) on node n.
func lenJob(t *testing.T, n *Node, blob core.Handle) core.Handle {
	t.Helper()
	fn := n.Store().PutBlob(core.NativeFunctionBlob("len"))
	tree, err := n.Store().PutTree(core.InvocationTree(core.DefaultLimits.Handle(), fn, blob))
	if err != nil {
		t.Fatal(err)
	}
	th, _ := core.Application(tree)
	enc, _ := core.Strict(th)
	return enc
}

func TestTwoNodeFetch(t *testing.T) {
	a := NewNode("a", NodeOptions{Cores: 2, Registry: countRegistry()})
	b := NewNode("b", NodeOptions{Cores: 2, Registry: countRegistry()})
	defer a.Close()
	defer b.Close()

	data := bytes.Repeat([]byte{7}, 1000)
	blob := b.Store().PutBlob(data)
	Connect(a, b, fastLink())

	// a evaluates a job depending on b's blob. Either the job moves to b
	// (locality) or the data moves to a; the answer must come out.
	enc := lenJob(t, a, blob)
	got, err := a.EvalBlob(context.Background(), enc)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := core.DecodeU64(got); v != 1000 {
		t.Fatalf("len = %d, want 1000", v)
	}
}

func TestLocalityPlacement(t *testing.T) {
	a := NewNode("a", NodeOptions{Cores: 2, Registry: countRegistry()})
	b := NewNode("b", NodeOptions{Cores: 2, Registry: countRegistry()})
	defer a.Close()
	defer b.Close()

	// Big blob lives on b; the job should be delegated to b, not pull
	// the blob to a.
	data := bytes.Repeat([]byte{1}, 1<<20)
	blob := b.Store().PutBlob(data)
	Connect(a, b, fastLink())

	enc := lenJob(t, a, blob)
	got, err := a.EvalBlob(context.Background(), enc)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := core.DecodeU64(got); v != 1<<20 {
		t.Fatalf("len = %d", v)
	}
	if n := b.Stats().Usage(time.Second).Tasks; n != 1 {
		t.Fatalf("b ran %d tasks, want 1 (locality placement)", n)
	}
	if n := a.Stats().Usage(time.Second).Tasks; n != 0 {
		t.Fatalf("a ran %d tasks, want 0", n)
	}
	// The big blob must not have moved to a.
	if a.Store().Contains(blob) {
		t.Fatal("blob was transferred despite locality placement")
	}
}

func TestClientOnlyNeverExecutes(t *testing.T) {
	client := NewNode("client", NodeOptions{Cores: 2, ClientOnly: true, Registry: countRegistry()})
	worker := NewNode("worker", NodeOptions{Cores: 2, Registry: countRegistry()})
	defer client.Close()
	defer worker.Close()
	Connect(client, worker, fastLink())

	// Data lives on the client; the job still must run on the worker.
	data := bytes.Repeat([]byte{9}, 128)
	blob := client.PutBlob(data)
	enc := lenJob(t, client, blob)
	got, err := client.EvalBlob(context.Background(), enc)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := core.DecodeU64(got); v != 128 {
		t.Fatalf("len = %d", v)
	}
	if n := client.Stats().Usage(time.Second).Tasks; n != 0 {
		t.Fatalf("client executed %d tasks, want 0", n)
	}
	if n := worker.Stats().Usage(time.Second).Tasks; n != 1 {
		t.Fatalf("worker executed %d tasks, want 1", n)
	}
}

func TestChainAcrossClientServer(t *testing.T) {
	client := NewNode("client", NodeOptions{Cores: 1, ClientOnly: true})
	server := NewNode("server", NodeOptions{Cores: 4})
	defer client.Close()
	defer server.Close()
	Connect(client, server, transport.LinkConfig{Latency: time.Millisecond})

	// Build a 100-deep inc chain on the client; one Eval ships it all.
	st := client.Store()
	inc := st.PutBlob(codelet.IncFunctionBlob())
	lim := core.DefaultLimits.Handle()
	arg := core.LiteralU64(0)
	for i := 0; i < 100; i++ {
		tree, err := st.PutTree([]core.Handle{lim, inc, arg})
		if err != nil {
			t.Fatal(err)
		}
		th, _ := core.Application(tree)
		enc, _ := core.Strict(th)
		arg = enc
	}
	got, err := client.EvalBlob(context.Background(), arg)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := core.DecodeU64(got); v != 100 {
		t.Fatalf("chain = %d, want 100", v)
	}
	if n := client.Stats().Usage(time.Second).Tasks; n != 0 {
		t.Fatalf("client executed %d tasks, want 0", n)
	}
	if n := server.Stats().Usage(time.Second).Tasks; n != 100 {
		t.Fatalf("server executed %d tasks, want 100", n)
	}
}

func TestMapReduceAcrossMesh(t *testing.T) {
	reg := countRegistry()
	nodes := make([]*Node, 4)
	for i := range nodes {
		nodes[i] = NewNode(fmt.Sprintf("n%d", i), NodeOptions{Cores: 4, Registry: reg, Seed: int64(i)})
		defer nodes[i].Close()
	}

	// Scatter 8 chunks round-robin before connecting (Hello advertises).
	chunks := make([]core.Handle, 8)
	total := 0
	for i := range chunks {
		data := bytes.Repeat([]byte{byte(i)}, 100*(i+1))
		total += len(data)
		chunks[i] = nodes[i%len(nodes)].Store().PutBlob(data)
	}
	FullMesh(fastLink(), nodes...)

	// Build len jobs per chunk and a sum reduction on node 0.
	st := nodes[0].Store()
	lenFn := st.PutBlob(core.NativeFunctionBlob("len"))
	sumFn := st.PutBlob(core.NativeFunctionBlob("sum"))
	lim := core.DefaultLimits.Handle()
	var encs []core.Handle
	for _, c := range chunks {
		tree, err := st.PutTree(core.InvocationTree(lim, lenFn, c))
		if err != nil {
			t.Fatal(err)
		}
		th, _ := core.Application(tree)
		enc, _ := core.Strict(th)
		encs = append(encs, enc)
	}
	// Binary reduction.
	for len(encs) > 1 {
		var next []core.Handle
		for i := 0; i+1 < len(encs); i += 2 {
			tree, err := st.PutTree(core.InvocationTree(lim, sumFn, encs[i], encs[i+1]))
			if err != nil {
				t.Fatal(err)
			}
			th, _ := core.Application(tree)
			enc, _ := core.Strict(th)
			next = append(next, enc)
		}
		if len(encs)%2 == 1 {
			next = append(next, encs[len(encs)-1])
		}
		encs = next
	}
	got, err := nodes[0].EvalBlob(context.Background(), encs[0])
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := core.DecodeU64(got); v != uint64(total) {
		t.Fatalf("sum = %d, want %d", v, total)
	}
	// Work should have spread: at least two nodes executed tasks.
	busy := 0
	for _, n := range nodes {
		if n.Stats().Usage(time.Second).Tasks > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d nodes executed tasks; expected distribution", busy)
	}
}

func TestNoLocalityStillCorrect(t *testing.T) {
	a := NewNode("a", NodeOptions{Cores: 2, Registry: countRegistry(), NoLocality: true, Seed: 1})
	b := NewNode("b", NodeOptions{Cores: 2, Registry: countRegistry(), NoLocality: true, Seed: 2})
	defer a.Close()
	defer b.Close()
	blob := b.Store().PutBlob(bytes.Repeat([]byte{3}, 512))
	Connect(a, b, fastLink())
	enc := lenJob(t, a, blob)
	got, err := a.EvalBlob(context.Background(), enc)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := core.DecodeU64(got); v != 512 {
		t.Fatalf("len = %d", v)
	}
}

func TestTierFetchFallback(t *testing.T) {
	// Object lives only in the storage tier; no peer has it.
	data := bytes.Repeat([]byte{4}, 777)
	tier, h := storedTier(t, data)
	a := NewNode("a", NodeOptions{Cores: 2, Registry: countRegistry()})
	b := NewNode("b", NodeOptions{Cores: 2, Registry: countRegistry()})
	a.SetTier(tier, 0)
	b.SetTier(tier, 0)
	defer a.Close()
	defer b.Close()
	Connect(a, b, fastLink())
	enc := lenJob(t, a, h)
	got, err := a.EvalBlob(context.Background(), enc)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := core.DecodeU64(got); v != 777 {
		t.Fatalf("len = %d", v)
	}
}

func TestFetchUnknownObjectFails(t *testing.T) {
	a := NewNode("a", NodeOptions{Cores: 2, Registry: countRegistry()})
	b := NewNode("b", NodeOptions{Cores: 2, Registry: countRegistry()})
	defer a.Close()
	defer b.Close()
	Connect(a, b, fastLink())
	ghost := core.BlobHandle(bytes.Repeat([]byte{6}, 99))
	enc := lenJob(t, a, ghost)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := a.EvalBlob(ctx, enc); err == nil {
		t.Fatal("expected failure for unknown object")
	}
}

func TestRemoteJobErrorPropagates(t *testing.T) {
	reg := runtime.NewRegistry()
	reg.RegisterFunc("fail", func(api core.API, input core.Handle) (core.Handle, error) {
		return core.Handle{}, fmt.Errorf("deliberate failure")
	})
	client := NewNode("client", NodeOptions{Cores: 1, ClientOnly: true, Registry: reg})
	worker := NewNode("worker", NodeOptions{Cores: 1, Registry: reg})
	defer client.Close()
	defer worker.Close()
	Connect(client, worker, fastLink())
	fn := client.Store().PutBlob(core.NativeFunctionBlob("fail"))
	tree, _ := client.Store().PutTree(core.InvocationTree(core.DefaultLimits.Handle(), fn))
	th, _ := core.Application(tree)
	enc, _ := core.Strict(th)
	_, err := client.Eval(context.Background(), enc)
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("deliberate failure")) {
		t.Fatalf("want remote error, got %v", err)
	}
}

func TestConcurrentClusterEvals(t *testing.T) {
	a := NewNode("a", NodeOptions{Cores: 4, Registry: countRegistry()})
	b := NewNode("b", NodeOptions{Cores: 4, Registry: countRegistry()})
	defer a.Close()
	defer b.Close()
	blobs := make([]core.Handle, 16)
	for i := range blobs {
		data := bytes.Repeat([]byte{byte(i)}, 50+i)
		if i%2 == 0 {
			blobs[i] = a.Store().PutBlob(data)
		} else {
			blobs[i] = b.Store().PutBlob(data)
		}
	}
	Connect(a, b, fastLink())
	var wg sync.WaitGroup
	errs := make([]error, len(blobs))
	for i, blob := range blobs {
		wg.Add(1)
		go func(i int, blob core.Handle) {
			defer wg.Done()
			enc := lenJob(t, a, blob)
			got, err := a.EvalBlob(context.Background(), enc)
			if err != nil {
				errs[i] = err
				return
			}
			if v, _ := core.DecodeU64(got); v != uint64(50+i) {
				errs[i] = fmt.Errorf("len = %d, want %d", v, 50+i)
			}
		}(i, blob)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("eval %d: %v", i, err)
		}
	}
}

// TestTwoClientsKeepTheirLinks pins the identity rule the daemons'
// derived -id exists for: a worker's Hello path treats a second link
// under a known ID as a reconnect and closes the first, so two gateways
// in front of one worker must carry different IDs — and when they do,
// both links stay up and both can place jobs.
func TestTwoClientsKeepTheirLinks(t *testing.T) {
	w := NewNode("worker", NodeOptions{Cores: 2, Registry: countRegistry()})
	defer w.Close()
	gws := []*Node{
		NewNode("host:7670", NodeOptions{Cores: 1, ClientOnly: true, Registry: countRegistry()}),
		NewNode("host:7671", NodeOptions{Cores: 1, ClientOnly: true, Registry: countRegistry()}),
	}
	for _, gw := range gws {
		defer gw.Close()
		Connect(gw, w, fastLink())
	}
	if got := len(w.Peers()); got != 2 {
		t.Fatalf("worker has %d peers after two gateways attached, want 2: %v", got, w.Peers())
	}
	for i, gw := range gws {
		data := bytes.Repeat([]byte{byte(i + 1)}, 100*(i+1))
		res, err := gw.Eval(context.Background(), lenJob(t, gw, gw.Store().PutBlob(data)))
		if err != nil {
			t.Fatalf("gateway %s: %v", gw.ID(), err)
		}
		if v, _ := core.DecodeU64(res.LiteralData()); v != uint64(len(data)) {
			t.Errorf("gateway %s: len = %d, want %d", gw.ID(), v, len(data))
		}
		if got := gw.Peers(); len(got) != 1 {
			t.Errorf("gateway %s lost its worker link: peers = %v", gw.ID(), got)
		}
	}
}
