package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"fixgo/internal/baselines/s3sim"
	"fixgo/internal/core"
	"fixgo/internal/runtime"
	"fixgo/internal/store"
)

// Fig8a measures 1,024 one-off function invocations whose single input
// lives on network storage with a 150 ms response time (section 5.3.1):
// externalized I/O (fetch, then bind CPU/RAM) versus the status-quo
// internal I/O (bind CPU/RAM, then fetch, with the CPU oversubscribed).
func Fig8a(s Scale) (Result, error) {
	res := Result{ID: "fig8a", Title: fmt.Sprintf("%d one-off invocations, %v network storage", s.OneOffTasks, s.StorageLatency)}

	ext, extUsage, err := fig8aRun(s, false)
	if err != nil {
		return res, err
	}
	internal, intUsage, err := fig8aRun(s, true)
	if err != nil {
		return res, err
	}
	res.Rows = []Row{
		{System: "Fix (externalized I/O)", Measured: ext, Paper: 268 * time.Millisecond,
			Detail: fmt.Sprintf("user=%v io+wait=%v %.0f tasks/s", extUsage.User.Round(time.Millisecond), extUsage.IOWait.Round(time.Millisecond), extUsage.Throughput())},
		{System: "Fix (\"internal\" I/O)", Measured: internal, Paper: 2638 * time.Millisecond,
			Detail: fmt.Sprintf("user=%v io+wait=%v %.0f tasks/s", intUsage.User.Round(time.Millisecond), intUsage.IOWait.Round(time.Millisecond), intUsage.Throughput())},
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("%d CPU slots, %d GiB RAM, 1 CPU + 1 GB per task; internal mode oversubscribes CPU to %d (paper: 3,827 vs 388 tasks/s)",
			s.Fig8aCores, s.Fig8aMemory>>30, s.Fig8aOversub))
	return res, nil
}

func fig8aRun(s Scale, internalIO bool) (time.Duration, usageLite, error) {
	remote := s3sim.New(s3sim.Config{Latency: s.StorageLatency})
	ctx := context.Background()

	st := store.New()
	reg := runtime.NewRegistry()
	// "reads an input ... and adds the input to itself."
	reg.RegisterFunc("add-self", func(api core.API, input core.Handle) (core.Handle, error) {
		entries, err := api.AttachTree(input)
		if err != nil {
			return core.Handle{}, err
		}
		raw, err := api.AttachBlob(entries[2])
		if err != nil {
			return core.Handle{}, err
		}
		if len(raw) > 8 {
			raw = raw[:8] // value prefix; the rest is padding that forces a real fetch
		}
		v, err := core.DecodeU64(raw)
		if err != nil {
			return core.Handle{}, err
		}
		return core.LiteralU64(v + v), nil
	})
	e := runtime.New(st, runtime.Options{
		Cores:              s.Fig8aCores,
		MemoryBytes:        s.Fig8aMemory,
		InternalIO:         internalIO,
		OversubscribeCores: s.Fig8aOversub,
		Registry:           reg,
		Fetcher:            remote,
	})

	// Each invocation depends on a distinct input resident only on the
	// remote storage. Inputs must exceed the literal size to require a
	// fetch.
	lim := core.Limits{MemoryBytes: s.Fig8aTaskMem, Gas: 1 << 20}.Handle()
	fn := st.PutBlob(core.NativeFunctionBlob("add-self"))
	encs := make([]core.Handle, s.OneOffTasks)
	var setup sync.WaitGroup
	setupErrs := make([]error, s.OneOffTasks)
	for i := range encs {
		data := append(core.LiteralU64(uint64(i)).LiteralData(), make([]byte, 64)...)
		h := core.BlobHandle(data)
		setup.Add(1)
		go func(i int, h core.Handle, data []byte) {
			defer setup.Done()
			setupErrs[i] = remote.PutHandle(ctx, h, data)
		}(i, h, data)
		tree, err := st.PutTree(core.InvocationTree(lim, fn, h))
		if err != nil {
			return 0, usageLite{}, err
		}
		th, _ := core.Application(tree)
		encs[i], _ = core.Strict(th)
	}
	setup.Wait()
	for _, err := range setupErrs {
		if err != nil {
			return 0, usageLite{}, err
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, len(encs))
	for i, enc := range encs {
		wg.Add(1)
		go func(i int, enc core.Handle) {
			defer wg.Done()
			_, errs[i] = e.Eval(ctx, enc)
		}(i, enc)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, usageLite{}, err
		}
	}
	u := e.Stats().Usage(wall)
	return wall, usageLite{User: u.User, IOWait: u.IOWait, Tasks: u.Tasks, Wall: wall}, nil
}

type usageLite struct {
	User, IOWait, Wall time.Duration
	Tasks              uint64
}

func (u usageLite) Throughput() float64 {
	if u.Wall <= 0 {
		return 0
	}
	return float64(u.Tasks) / u.Wall.Seconds()
}
