package bench

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"fixgo/internal/baselines/pheromone"
	"fixgo/internal/baselines/raysim"
	"fixgo/internal/baselines/s3sim"
	"fixgo/internal/baselines/whisk"
	"fixgo/internal/cluster"
	"fixgo/internal/core"
	"fixgo/internal/runtime"
	"fixgo/internal/stats"
	"fixgo/internal/transport"
	"fixgo/internal/wiki"
)

// Fig8b counts occurrences of a short string across chunked text on a
// simulated 10-node cluster (section 5.3.2): Fixpoint with and without
// locality and late binding, Ray in continuation-passing and blocking
// styles, Pheromone (map phase only, as in the paper), and OpenWhisk.
func Fig8b(s Scale) (Result, error) {
	res := Result{ID: "fig8b", Title: fmt.Sprintf("count-string over %d × %d KiB chunks on %d nodes", s.Chunks, s.ChunkSize>>10, s.Nodes)}

	chunks := make([][]byte, s.Chunks)
	var want uint64
	for i := range chunks {
		chunks[i] = wiki.Chunk(int64(i), s.ChunkSize, s.Needle, 797)
		want += wiki.CountNonOverlapping(chunks[i], []byte(s.Needle))
	}

	type variant struct {
		name         string
		noLocality   bool
		internalIO   bool
		paper        time.Duration
		paperWaitPct string
	}
	fixVariants := []variant{
		{name: "Fixpoint", paper: 3250 * time.Millisecond, paperWaitPct: "37%"},
		{name: "Fixpoint (no locality)", noLocality: true, paper: 31430 * time.Millisecond},
		{name: "Fixpoint (no locality + internal I/O)", noLocality: true, internalIO: true, paper: 33780 * time.Millisecond, paperWaitPct: "92%"},
	}
	for _, v := range fixVariants {
		dur, usage, moved, err := fig8bFixpoint(s, chunks, want, v.noLocality, v.internalIO)
		if err != nil {
			return res, fmt.Errorf("%s: %w", v.name, err)
		}
		// moved and iowait are counted, not timed, so they separate
		// these three rows on any host (TestFig8b asserts on them).
		detail := fmt.Sprintf("waiting=%.0f%% moved=%dB iowait=%dµs", usage.WaitingPct(), moved, usage.IOWait.Microseconds())
		if v.paperWaitPct != "" {
			detail += " (paper " + v.paperWaitPct + ")"
		}
		res.Rows = append(res.Rows, Row{System: v.name, Measured: dur, Paper: v.paper, Detail: detail})
	}

	cpsDur, err := fig8bRay(s, chunks, want, true)
	if err != nil {
		return res, fmt.Errorf("ray cps: %w", err)
	}
	res.Rows = append(res.Rows, Row{System: "Ray (continuation-passing)", Measured: cpsDur, Paper: 6390 * time.Millisecond})

	blockDur, err := fig8bRay(s, chunks, want, false)
	if err != nil {
		return res, fmt.Errorf("ray blocking: %w", err)
	}
	res.Rows = append(res.Rows, Row{System: "Ray (blocking)", Measured: blockDur, Paper: 17870 * time.Millisecond})

	pherDur, err := fig8bPheromone(s, chunks, want)
	if err != nil {
		return res, fmt.Errorf("pheromone: %w", err)
	}
	res.Rows = append(res.Rows, Row{System: "Pheromone + MinIO (map phase only)", Measured: pherDur, Paper: 42290 * time.Millisecond})

	whiskDur, whiskUsage, err := fig8bWhisk(s, chunks, want)
	if err != nil {
		return res, fmt.Errorf("openwhisk: %w", err)
	}
	res.Rows = append(res.Rows, Row{System: "OpenWhisk + MinIO + K8s", Measured: whiskDur, Paper: 63680 * time.Millisecond,
		Detail: fmt.Sprintf("waiting=%.0f%% (paper 92%%)", whiskUsage.WaitingPct())})

	res.Notes = append(res.Notes,
		"chunks scattered round-robin for Fixpoint/Ray; stored in the MinIO analog for Pheromone/OpenWhisk",
		"modeled per-chunk compute restores the full-scale compute/transfer ratio (BENCHMARKS.md)")
	return res, nil
}

// fig8bFixpoint runs one Fixpoint variant and reports its wall time, the
// merged per-node usage, and the bytes copied between nodes during the
// eval (growth of the nodes' stores: every object a node did not already
// hold arrived over a link or was created there).
func fig8bFixpoint(s Scale, chunks [][]byte, want uint64, noLocality, internalIO bool) (time.Duration, stats.Usage, uint64, error) {
	reg := runtime.NewRegistry()
	wiki.Register(reg, wiki.Config{ComputePerByte: s.ComputePerByte})
	nodes := make([]*cluster.Node, s.Nodes)
	for i := range nodes {
		nodes[i] = cluster.NewNode(fmt.Sprintf("n%02d", i), cluster.NodeOptions{
			Cores:              s.CoresPerNode,
			Registry:           reg,
			NoLocality:         noLocality,
			InternalIO:         internalIO,
			OversubscribeCores: s.CoresPerNode * 4,
			Seed:               int64(i) + 1,
		})
		defer nodes[i].Close()
	}
	// Scatter the chunks before connecting; Hello advertises them.
	handles := make([]core.Handle, len(chunks))
	for i, c := range chunks {
		handles[i] = nodes[i%len(nodes)].Store().PutBlob(c)
	}
	cluster.FullMesh(transport.LinkConfig{Latency: s.LinkLatency, Bandwidth: s.Fig8bLinkBW}, nodes...)

	job, err := wiki.BuildJob(nodes[0].Store(), s.Needle, handles)
	if err != nil {
		return 0, stats.Usage{}, 0, err
	}
	resident := func() (total uint64) {
		for _, n := range nodes {
			total += n.Store().TotalBytes()
		}
		return total
	}
	before := resident()
	start := time.Now()
	out, err := nodes[0].EvalBlob(context.Background(), job)
	wall := time.Since(start)
	if err != nil {
		return 0, stats.Usage{}, 0, err
	}
	if got, _ := core.DecodeU64(out); got != want {
		return 0, stats.Usage{}, 0, fmt.Errorf("count = %d, want %d", got, want)
	}
	moved := resident() - before
	us := make([]stats.Usage, len(nodes))
	for i, n := range nodes {
		us[i] = n.Stats().Usage(wall)
	}
	return wall, stats.Merge(us...), moved, nil
}

func fig8bRay(s Scale, chunks [][]byte, want uint64, cps bool) (time.Duration, error) {
	c := raysim.NewCluster(raysim.Options{
		Nodes: s.Nodes, CoresPerNode: s.CoresPerNode,
		Link: transport.LinkConfig{Latency: s.LinkLatency, Bandwidth: s.Fig8bLinkBW},
		Seed: 3,
	})
	defer c.Close()
	needle := []byte(s.Needle)
	compute := func(n int) {
		if s.ComputePerByte > 0 {
			time.Sleep(time.Duration(n) * s.ComputePerByte)
		}
	}
	// CPS style: chunk refs are task *arguments*, so the scheduler sees
	// them (locality) and pulls them before claiming a worker.
	c.Register("count-args", func(tc *raysim.TaskCtx, args []raysim.Arg) ([]byte, error) {
		data, err := tc.Get(context.Background(), args[0].Ref) // local: pre-pulled
		if err != nil {
			return nil, err
		}
		compute(len(data))
		return core.LiteralU64(wiki.CountNonOverlapping(data, needle)).LiteralData(), nil
	})
	// Blocking style: the chunk ref travels opaquely by value; the
	// scheduler cannot see it, and the get happens inside the task while
	// it holds its worker slot.
	c.Register("count-get", func(tc *raysim.TaskCtx, args []raysim.Arg) ([]byte, error) {
		id := binary.LittleEndian.Uint64(args[0].Data)
		data, err := tc.Get(context.Background(), raysim.Ref{ID: id})
		if err != nil {
			return nil, err
		}
		compute(len(data))
		return core.LiteralU64(wiki.CountNonOverlapping(data, needle)).LiteralData(), nil
	})
	c.Register("merge", func(tc *raysim.TaskCtx, args []raysim.Arg) ([]byte, error) {
		var total uint64
		for _, a := range args {
			data := a.Data
			if a.IsRef {
				var err error
				data, err = tc.Get(context.Background(), a.Ref)
				if err != nil {
					return nil, err
				}
			}
			v, _ := core.DecodeU64(data)
			total += v
		}
		return core.LiteralU64(total).LiteralData(), nil
	})

	refs := make([]raysim.Ref, len(chunks))
	for i, data := range chunks {
		refs[i] = c.Put(i%s.Nodes, data)
	}
	ctx := context.Background()
	start := time.Now()
	level := make([]raysim.Ref, 0, len(refs))
	for _, r := range refs {
		var task raysim.Ref
		var err error
		if cps {
			task, err = c.Submit(ctx, "count-args", raysim.ByRef(r))
		} else {
			var id [8]byte
			binary.LittleEndian.PutUint64(id[:], r.ID)
			task, err = c.Submit(ctx, "count-get", raysim.ByValue(id[:]))
		}
		if err != nil {
			return 0, err
		}
		level = append(level, task)
	}
	for len(level) > 1 {
		var next []raysim.Ref
		for i := 0; i+1 < len(level); i += 2 {
			m, err := c.Submit(ctx, "merge", raysim.ByRef(level[i]), raysim.ByRef(level[i+1]))
			if err != nil {
				return 0, err
			}
			next = append(next, m)
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	out, err := c.Get(ctx, level[0])
	wall := time.Since(start)
	if err != nil {
		return 0, err
	}
	if got, _ := core.DecodeU64(out); got != want {
		return 0, fmt.Errorf("count = %d, want %d", got, want)
	}
	return wall, nil
}

func fig8bPheromone(s Scale, chunks [][]byte, want uint64) (time.Duration, error) {
	store := s3sim.New(s3sim.Config{Latency: s.Fig8bStoreLatency, Bandwidth: s.Fig8bStoreBW})
	ctx := context.Background()
	inputs := make([][]byte, len(chunks))
	for i, data := range chunks {
		key := fmt.Sprintf("chunk-%d", i)
		if err := store.Put(ctx, key, data); err != nil {
			return 0, err
		}
		inputs[i] = []byte(key)
	}
	e := pheromone.New(pheromone.Options{Workers: s.Nodes * s.CoresPerNode, Store: store})
	needle := []byte(s.Needle)
	e.Register("count", func(ctx context.Context, env *pheromone.Env, input []byte) ([]byte, error) {
		data, err := env.GetObject(ctx, string(input))
		if err != nil {
			return nil, err
		}
		if s.ComputePerByte > 0 {
			time.Sleep(time.Duration(len(data)) * s.ComputePerByte)
		}
		return core.LiteralU64(wiki.CountNonOverlapping(data, needle)).LiteralData(), nil
	})
	start := time.Now()
	outs, err := e.RunMap(ctx, "count", inputs)
	wall := time.Since(start)
	if err != nil {
		return 0, err
	}
	var got uint64
	for _, o := range outs {
		v, _ := core.DecodeU64(o)
		got += v
	}
	if got != want {
		return 0, fmt.Errorf("map-phase count = %d, want %d", got, want)
	}
	// Map phase only: Pheromone's reduce could not be run in the paper.
	return wall, nil
}

func fig8bWhisk(s Scale, chunks [][]byte, want uint64) (time.Duration, stats.Usage, error) {
	store := s3sim.New(s3sim.Config{Latency: s.Fig8bStoreLatency, Bandwidth: s.Fig8bStoreBW})
	ctx := context.Background()
	for i, data := range chunks {
		if err := store.Put(ctx, fmt.Sprintf("chunk-%d", i), data); err != nil {
			return 0, stats.Usage{}, err
		}
	}
	p := whisk.New(whisk.Options{Nodes: s.Nodes, CoresPerNode: s.CoresPerNode, Store: store})
	needle := []byte(s.Needle)
	p.Register("count", func(ctx context.Context, inv *whisk.Invocation) ([]byte, error) {
		data, err := inv.GetObject(ctx, inv.Params["chunk"])
		if err != nil {
			return nil, err
		}
		if s.ComputePerByte > 0 {
			time.Sleep(time.Duration(len(data)) * s.ComputePerByte)
		}
		out := core.LiteralU64(wiki.CountNonOverlapping(data, needle)).LiteralData()
		if err := inv.PutObject(ctx, inv.Params["out"], out); err != nil {
			return nil, err
		}
		return out, nil
	})
	p.Register("merge", func(ctx context.Context, inv *whisk.Invocation) ([]byte, error) {
		a, err := inv.GetObject(ctx, inv.Params["a"])
		if err != nil {
			return nil, err
		}
		b, err := inv.GetObject(ctx, inv.Params["b"])
		if err != nil {
			return nil, err
		}
		av, _ := core.DecodeU64(a)
		bv, _ := core.DecodeU64(b)
		out := core.LiteralU64(av + bv).LiteralData()
		if err := inv.PutObject(ctx, inv.Params["out"], out); err != nil {
			return nil, err
		}
		return out, nil
	})

	start := time.Now()
	// Map phase.
	var wg sync.WaitGroup
	errs := make([]error, len(chunks))
	level := make([]string, len(chunks))
	for i := range chunks {
		level[i] = fmt.Sprintf("count-%d", i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = p.Invoke(ctx, "count", map[string]string{
				"chunk": fmt.Sprintf("chunk-%d", i), "out": level[i]})
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, stats.Usage{}, err
		}
	}
	// Reduce phase: binary merges, each a fresh invocation.
	gen := 0
	var final []byte
	for len(level) > 1 {
		var next []string
		var mwg sync.WaitGroup
		merr := make([]error, len(level)/2)
		outs := make([][]byte, len(level)/2)
		for i := 0; i+1 < len(level); i += 2 {
			out := fmt.Sprintf("merge-%d-%d", gen, i/2)
			next = append(next, out)
			mwg.Add(1)
			go func(slot int, a, b, out string) {
				defer mwg.Done()
				outs[slot], merr[slot] = p.Invoke(ctx, "merge", map[string]string{"a": a, "b": b, "out": out})
			}(i/2, level[i], level[i+1], out)
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		mwg.Wait()
		for _, err := range merr {
			if err != nil {
				return 0, stats.Usage{}, err
			}
		}
		if len(next) == 1 && len(outs) > 0 {
			final = outs[len(outs)-1]
		}
		level = next
		gen++
	}
	wall := time.Since(start)
	if final == nil {
		data, err := store.Get(ctx, level[0])
		if err != nil {
			return 0, stats.Usage{}, err
		}
		final = data
	}
	if got, _ := core.DecodeU64(final); got != want {
		return 0, stats.Usage{}, fmt.Errorf("count = %d, want %d", got, want)
	}
	return wall, p.Usage(wall), nil
}
