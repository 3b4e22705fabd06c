package bench

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"fixgo/internal/baselines/raysim"
	"fixgo/internal/baselines/s3sim"
	"fixgo/internal/baselines/whisk"
	"fixgo/internal/buildsys"
	"fixgo/internal/cluster"
	"fixgo/internal/runtime"
	"fixgo/internal/transport"
)

// Fig10 measures the burst-parallel software-compilation job of section
// 5.5: parallel compile invocations feeding a single link, on Fixpoint
// (dependencies uploaded from the client, jobs outsourced with their data
// needs bundled), Ray + MinIO (Popen-style executables reading the object
// store), and OpenWhisk + MinIO + K8s (including function creation, as in
// the paper).
func Fig10(s Scale) (Result, error) {
	res := Result{ID: "fig10", Title: fmt.Sprintf("compile %d sources + link on %d nodes", s.SourceFiles, s.Nodes)}

	p := buildsys.GenProject(11, s.SourceFiles, s.SourceSize, s.HeaderSize)
	var objs [][]byte
	for _, src := range p.Sources {
		objs = append(objs, buildsys.CompileOutput(src, p.Headers))
	}
	want := buildsys.LinkOutput(objs)

	fixDur, err := fig10Fixpoint(s, p, want)
	if err != nil {
		return res, fmt.Errorf("fixpoint: %w", err)
	}
	rayDur, err := fig10Ray(s, p, want)
	if err != nil {
		return res, fmt.Errorf("ray: %w", err)
	}
	whiskDur, err := fig10Whisk(s, p, want)
	if err != nil {
		return res, fmt.Errorf("openwhisk: %w", err)
	}
	res.Rows = []Row{
		{System: "Fixpoint", Measured: fixDur, Paper: 39530 * time.Millisecond},
		{System: "Ray + MinIO", Measured: rayDur, Paper: 76870 * time.Millisecond},
		{System: "OpenWhisk + MinIO + K8s", Measured: whiskDur, Paper: 100010 * time.Millisecond},
	}
	res.Notes = append(res.Notes,
		"Fixpoint uploads all dependencies from the client at execution time; OpenWhisk time includes function creation (cold starts)")
	return res, nil
}

func fig10Fixpoint(s Scale, p *buildsys.Project, want []byte) (time.Duration, error) {
	reg := runtime.NewRegistry()
	buildsys.Register(reg, buildsys.Config{CompileTime: s.CompileTime, LinkTime: s.LinkTime})
	client := cluster.NewNode("client", cluster.NodeOptions{Cores: 1, ClientOnly: true, Registry: reg})
	defer client.Close()
	nodes := make([]*cluster.Node, s.Nodes)
	link := transport.LinkConfig{Latency: s.LinkLatency, Bandwidth: s.LinkBandwidth}
	for i := range nodes {
		nodes[i] = cluster.NewNode(fmt.Sprintf("w%02d", i), cluster.NodeOptions{
			Cores: s.CoresPerNode, Registry: reg, Seed: int64(i) + 31,
		})
		defer nodes[i].Close()
	}
	cluster.FullMesh(link, nodes...)
	for _, n := range nodes {
		cluster.Connect(client, n, link)
	}

	job, err := buildsys.BuildJob(client.Store(), p)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	out, err := client.EvalBlob(context.Background(), job)
	wall := time.Since(start)
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(out, want) {
		return 0, fmt.Errorf("fig10: linked binary mismatch")
	}
	return wall, nil
}

func fig10Ray(s Scale, p *buildsys.Project, want []byte) (time.Duration, error) {
	store := s3sim.New(s3sim.Config{Latency: s.StoreLatency, Bandwidth: s.StoreBW})
	ctx := context.Background()
	if err := store.Put(ctx, "headers", p.Headers); err != nil {
		return 0, err
	}
	for i, src := range p.Sources {
		if err := store.Put(ctx, fmt.Sprintf("src-%d", i), src); err != nil {
			return 0, err
		}
	}
	c := raysim.NewCluster(raysim.Options{
		Nodes: s.Nodes, CoresPerNode: s.CoresPerNode,
		Link: transport.LinkConfig{Latency: s.LinkLatency, Bandwidth: s.LinkBandwidth},
		Seed: 17,
	})
	defer c.Close()

	// Popen-style executables: the binary starts on one node and is
	// pulled to others on first use (modeled as a ref argument).
	binary := c.Put(0, make([]byte, 4<<20))

	c.Register("cc", func(tc *raysim.TaskCtx, args []raysim.Arg) ([]byte, error) {
		idx := string(args[1].Data)
		src, err := storeGet(ctx, store, "src-"+idx)
		if err != nil {
			return nil, err
		}
		hdrs, err := storeGet(ctx, store, "headers")
		if err != nil {
			return nil, err
		}
		if s.CompileTime > 0 {
			time.Sleep(s.CompileTime)
		}
		obj := buildsys.CompileOutput(src, hdrs)
		if err := store.Put(ctx, "obj-"+idx, obj); err != nil {
			return nil, err
		}
		return []byte("ok"), nil
	})
	c.Register("ld", func(tc *raysim.TaskCtx, args []raysim.Arg) ([]byte, error) {
		n, _ := strconv.Atoi(string(args[1].Data))
		objs := make([][]byte, n)
		for i := 0; i < n; i++ {
			o, err := storeGet(ctx, store, fmt.Sprintf("obj-%d", i))
			if err != nil {
				return nil, err
			}
			objs[i] = o
		}
		if s.LinkTime > 0 {
			time.Sleep(s.LinkTime)
		}
		return buildsys.LinkOutput(objs), nil
	})

	start := time.Now()
	var compiles []raysim.Ref
	for i := range p.Sources {
		ref, err := c.Submit(ctx, "cc", raysim.ByRef(binary), raysim.ByValue([]byte(strconv.Itoa(i))))
		if err != nil {
			return 0, err
		}
		compiles = append(compiles, ref)
	}
	for _, ref := range compiles {
		if err := c.Wait(ctx, ref); err != nil {
			return 0, err
		}
	}
	ldRef, err := c.Submit(ctx, "ld", raysim.ByRef(binary), raysim.ByValue([]byte(strconv.Itoa(len(p.Sources)))))
	if err != nil {
		return 0, err
	}
	out, err := c.Get(ctx, ldRef)
	wall := time.Since(start)
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(out, want) {
		return 0, fmt.Errorf("fig10 ray: linked binary mismatch")
	}
	return wall, nil
}

func storeGet(ctx context.Context, s *s3sim.Store, key string) ([]byte, error) {
	return s.Get(ctx, key)
}

func fig10Whisk(s Scale, p *buildsys.Project, want []byte) (time.Duration, error) {
	store := s3sim.New(s3sim.Config{Latency: s.StoreLatency, Bandwidth: s.StoreBW})
	ctx := context.Background()
	if err := store.Put(ctx, "headers", p.Headers); err != nil {
		return 0, err
	}
	for i, src := range p.Sources {
		if err := store.Put(ctx, fmt.Sprintf("src-%d", i), src); err != nil {
			return 0, err
		}
	}
	plat := whisk.New(whisk.Options{Nodes: s.Nodes, CoresPerNode: s.CoresPerNode, Store: store})
	plat.Register("cc", func(ctx context.Context, inv *whisk.Invocation) ([]byte, error) {
		src, err := inv.GetObject(ctx, "src-"+inv.Params["i"])
		if err != nil {
			return nil, err
		}
		hdrs, err := inv.GetObject(ctx, "headers")
		if err != nil {
			return nil, err
		}
		if s.CompileTime > 0 {
			time.Sleep(s.CompileTime)
		}
		obj := buildsys.CompileOutput(src, hdrs)
		if err := inv.PutObject(ctx, "obj-"+inv.Params["i"], obj); err != nil {
			return nil, err
		}
		return []byte("ok"), nil
	})
	plat.Register("ld", func(ctx context.Context, inv *whisk.Invocation) ([]byte, error) {
		n, _ := strconv.Atoi(inv.Params["n"])
		objs := make([][]byte, n)
		for i := 0; i < n; i++ {
			o, err := inv.GetObject(ctx, fmt.Sprintf("obj-%d", i))
			if err != nil {
				return nil, err
			}
			objs[i] = o
		}
		if s.LinkTime > 0 {
			time.Sleep(s.LinkTime)
		}
		return buildsys.LinkOutput(objs), nil
	})

	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, len(p.Sources))
	for i := range p.Sources {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = plat.Invoke(ctx, "cc", map[string]string{"i": strconv.Itoa(i)})
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	out, err := plat.Invoke(ctx, "ld", map[string]string{"n": strconv.Itoa(len(p.Sources))})
	wall := time.Since(start)
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(out, want) {
		return 0, fmt.Errorf("fig10 whisk: linked binary mismatch")
	}
	return wall, nil
}
