package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	goruntime "runtime"
	"time"

	"fixgo/internal/codelet"
	"fixgo/internal/core"
	"fixgo/internal/objstore"
	"fixgo/internal/obsv"
	"fixgo/internal/proto"
	"fixgo/internal/runtime"
	"fixgo/internal/store"
	"fixgo/internal/transport"
)

// timeCalls times fn in batches of calls and returns ns and allocations
// per call, each the mean of its lowest quarter of batches (the rule of
// best: a neighbour only ever adds time); fn gets the call's
// number, so that each call can work on its own object. Timing a batch,
// not a call, keeps the clock's own cost out of calls that take tens of
// nanoseconds.
func timeCalls(batches, calls int, fn func(k int)) (ns, allocs float64) {
	nss := make([]float64, batches)
	als := make([]float64, batches)
	var ms goruntime.MemStats
	for b := 0; b < batches; b++ {
		goruntime.ReadMemStats(&ms)
		before := ms.Mallocs
		start := time.Now()
		for c := 0; c < calls; c++ {
			fn(b*calls + c)
		}
		took := time.Since(start)
		goruntime.ReadMemStats(&ms)
		nss[b] = float64(took) / float64(calls)
		als[b] = float64(ms.Mallocs-before) / float64(calls)
	}
	return best(nss, false), best(als, false)
}

// microLayers times direct calls into the layers' public functions, on
// the same add(a, 7) objects the serving workloads move, and on frames
// sampled from the workload's links when it has any. div shrinks the call
// counts for the smoke tests.
func microLayers(vals map[string]float64, seed int64, frames [][]byte, div int) error {
	batches, calls := 20, 2000/div
	n := batches * calls
	base := operandBase(seed) + 1<<40
	lim := core.DefaultLimits.Handle()

	// core
	blob := make([]byte, 4096)
	for k := range blob {
		blob[k] = byte(mix(uint64(seed) + uint64(k)))
	}
	var sink core.Handle
	vals["core.blob_handle_4k_ns"], _ = timeCalls(batches, calls, func(k int) {
		blob[0] = byte(k)
		sink = core.BlobHandle(blob)
	})
	st := store.New()
	fn := st.PutBlob(codelet.AddFunctionBlob())
	trees := make([][]core.Handle, n)
	for k := range trees {
		trees[k] = addInvocation(lim, fn, base+uint64(k))
	}
	vals["core.tree_handle_ns"], _ = timeCalls(batches, calls, func(k int) { sink = core.TreeHandle(trees[k]) })
	packed := core.EncodeTree(trees[0])
	var decodeErr error
	vals["core.tree_decode_ns"], _ = timeCalls(batches, calls, func(int) {
		if _, err := core.DecodeTree(packed); err != nil {
			decodeErr = err
		}
	})
	if decodeErr != nil {
		return fmt.Errorf("core.DecodeTree: %w", decodeErr)
	}

	// store
	handles := make([]core.Handle, n)
	var storeErr error
	vals["store.put_tree_ns"], vals["store.put_tree_allocs"] = timeCalls(batches, calls, func(k int) {
		h, err := st.PutTree(trees[k])
		if err != nil {
			storeErr = err
		}
		handles[k] = h
	})
	vals["store.get_tree_ns"], _ = timeCalls(batches, calls, func(k int) {
		if _, err := st.Tree(handles[k]); err != nil {
			storeErr = err
		}
	})
	if storeErr != nil {
		return fmt.Errorf("store: %w", storeErr)
	}
	thunks := make([]core.Handle, n)
	for k, h := range handles {
		thunks[k], _ = core.Application(h) // h is a tree the store just made
	}
	vals["store.memo_set_ns"], _ = timeCalls(batches, calls, func(k int) { st.SetThunkResult(thunks[k], core.LiteralU64(uint64(k))) })
	vals["store.memo_lookup_ns"], _ = timeCalls(batches, calls, func(k int) { sink, _ = st.ThunkResult(thunks[k]) })

	// codelet, over the plain store API (no engine around it)
	var prog *codelet.Program
	var loadErr error
	vals["codelet.load_ns"], _ = timeCalls(batches, calls/10+1, func(int) { prog, loadErr = codelet.Load(codelet.AddBytecode) })
	if loadErr != nil {
		return fmt.Errorf("codelet.Load: %w", loadErr)
	}
	api := core.BasicAPI{S: st}
	var runErr error
	vals["codelet.run_ns"], vals["codelet.run_allocs"] = timeCalls(batches, calls, func(k int) {
		res, err := prog.Run(api, handles[k], core.DefaultLimits.Gas)
		if err == nil {
			err = checkSum(res, base+uint64(k))
		}
		if err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		return fmt.Errorf("codelet.Run: %w", runErr)
	}

	// runtime: a fresh engine, one fresh invocation per call, then the
	// same thunks again for the memo hit.
	st2 := store.New()
	eng := runtime.New(st2, runtime.Options{})
	fn2 := st2.PutBlob(codelet.AddFunctionBlob())
	for k := range thunks {
		h, err := st2.PutTree(addInvocation(lim, fn2, base+uint64(k)))
		if err != nil {
			return err
		}
		thunks[k], _ = core.Application(h)
	}
	ctx := context.Background()
	if _, err := eng.Eval(ctx, thunks[n-1]); err != nil { // loads the program
		return fmt.Errorf("runtime.Eval: %w", err)
	}
	var evalErr error
	eval := func(k int) {
		res, err := eng.Eval(ctx, thunks[k])
		if err == nil {
			err = checkSum(res, base+uint64(k))
		}
		if err != nil {
			evalErr = err
		}
	}
	vals["runtime.eval_ns"], vals["runtime.eval_allocs"] = timeCalls(batches, calls-1, eval)
	vals["runtime.memo_hit_eval_ns"], _ = timeCalls(batches, calls-1, eval)
	if evalErr != nil {
		return fmt.Errorf("runtime.Eval: %w", evalErr)
	}
	vals["runtime.self_ns"] = math.Max(0, vals["runtime.eval_ns"]-vals["codelet.run_ns"]-
		vals["store.get_tree_ns"]-vals["store.memo_lookup_ns"]-vals["store.memo_set_ns"])

	// proto: the workload's own frames, or a delegation of one add
	// invocation when the workload has no links.
	if len(frames) == 0 {
		enc, _ := core.Strict(thunks[0])
		m := proto.Message{Type: proto.TypeJob, From: "bench", Handle: enc,
			Pushed: []proto.PushedObject{{Handle: handles[0], Data: packed}}}
		frames = [][]byte{m.Encode()}
	}
	msgs := make([]*proto.Message, len(frames))
	var protoErr error
	vals["proto.decode_ns"], vals["proto.decode_allocs"] = timeCalls(batches, calls, func(k int) {
		m, err := proto.Decode(frames[k%len(frames)])
		if err != nil {
			protoErr = err
		}
		msgs[k%len(frames)] = m
	})
	if protoErr != nil {
		return fmt.Errorf("proto.Decode: %w", protoErr)
	}
	buf := make([]byte, 0, 128<<10)
	vals["proto.encode_ns"], _ = timeCalls(batches, calls, func(k int) { buf = msgs[k%len(msgs)].AppendEncode(buf[:0]) })

	// transport: ping-echo over one extra loopback link.
	rtt, err := pingEcho(batches, calls/4+1)
	if err != nil {
		return fmt.Errorf("transport ping-echo: %w", err)
	}
	vals["transport.rtt_ns"] = rtt

	// objstore: a ring the size of the cluster workload's.
	ring := objstore.NewRing([]string{"w0", "w1", "w2"}, 0)
	var owners []string
	vals["objstore.ring_owners_ns"], _ = timeCalls(batches, calls, func(k int) { owners = ring.Owners(handles[k], 2) })
	if len(owners) != 2 || sink.IsZero() {
		return fmt.Errorf("objstore.Ring.Owners returned %v", owners)
	}
	return nil
}

// pingEcho measures a 64-byte frame's round trip over a real loopback
// TCP link of the transport package.
func pingEcho(batches, calls int) (float64, error) {
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	echoed := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer c.Close()
		for {
			msg, err := c.Recv()
			if err != nil {
				echoed <- nil // the dialer closed: done
				return
			}
			if err := c.Send(msg); err != nil {
				echoed <- err
				return
			}
		}
	}()
	c, err := transport.Dial(l.Addr().String())
	if err != nil {
		return 0, err
	}
	frame := make([]byte, 64)
	var linkErr error
	ns, _ := timeCalls(batches, calls, func(int) {
		if err := c.Send(frame); err != nil {
			linkErr = err
			return
		}
		if _, err := c.Recv(); err != nil {
			linkErr = err
		}
	})
	_ = c.Close()
	if err := <-echoed; err != nil {
		return 0, err
	}
	return ns, linkErr
}

// reconcileTraces fetches the program's own trace of each recently
// sampled request and returns the median of |benchmark handler span −
// program trace total| ÷ handler span. Read only: no span is added to
// the program.
func reconcileTraces(rec *recorder, base string) float64 {
	if rec == nil {
		return 0
	}
	rec.mu.Lock()
	pairs := append([]tracePair(nil), rec.traceIDs...)
	rec.mu.Unlock()
	var gaps []float64
	for _, p := range pairs {
		resp, err := http.Get(base + "/v1/trace/" + p.id)
		if err != nil {
			continue
		}
		var tv obsv.TraceView
		err = json.NewDecoder(resp.Body).Decode(&tv)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || p.handlerNS == 0 {
			continue // evicted from the program's ring since
		}
		gaps = append(gaps, math.Abs(float64(p.handlerNS-tv.TotalNS))/float64(p.handlerNS))
	}
	return median(gaps)
}
