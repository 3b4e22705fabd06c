package main

import (
	"sync"
	"time"

	"fixgo/internal/runtime"
)

// watchInFlight samples the engines' in-flight invocation count every
// millisecond until the returned function is called, which stops the
// sampler and reports the largest sum it saw.
func watchInFlight(engines []*runtime.Engine) func() int64 {
	var (
		stop = make(chan struct{})
		wg   sync.WaitGroup
		most int64
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				var n int64
				for _, e := range engines {
					n += e.InFlight()
				}
				most = max(most, n)
			}
		}
	}()
	return func() int64 {
		close(stop)
		wg.Wait()
		return most
	}
}

// spanLayers turns the traced run's spans, timings and counts into the
// per-layer metrics they measure; ops counts every op the traced system
// served.
func spanLayers(vals map[string]float64, rec *recorder, spans []span, ops int64) {
	self, total := selfTimes(spans)
	med := func(m map[string][]int64, names ...string) float64 {
		var all []int64
		for _, n := range names {
			all = append(all, m[n]...)
		}
		return medianInt64(all)
	}
	// The job-accepting route is the handler the gateway metrics mean:
	// /v1/jobs for gateway_warm, /v1/jobs?mode=async for jobs_async_durable.
	vals["gateway.handler_ns"] = med(total, "gateway.submit", "gateway.submit_async")
	vals["gateway.self_ns"] = med(self, "gateway.submit", "gateway.submit_async")
	vals["gateway.backend_eval_ns"] = med(total, "backend.eval")
	vals["gateway.put_tree_ns"] = med(total, "gateway.put_tree")
	vals["jobs.accept_ns"] = med(total, "gateway.submit_async")
	vals["transport.send_ns"] = med(total, "transport.send")
	vals["cluster.eval_ns"] = med(total, "cluster.eval")

	// Client round trip minus handler, per request: net/http, loopback
	// and the SDK's JSON.
	handler := map[uint64]int64{}
	for _, s := range spans {
		if s.Name == "gateway.submit" || s.Name == "gateway.submit_async" {
			handler[s.Req] = s.End - s.Start
		}
	}
	var overhead []int64
	for _, s := range spans {
		if h, ok := handler[s.Req]; ok && (s.Name == "sdk.submit" || s.Name == "sdk.submit_async") {
			overhead = append(overhead, s.End-s.Start-h)
		}
	}
	vals["gateway.http_overhead_ns"] = medianInt64(overhead)

	// Share of an op's wall time that no wrapper saw.
	var unaccounted []float64
	for k, d := range total["op"] {
		if d > 0 {
			unaccounted = append(unaccounted, float64(self["op"][k])/float64(d))
		}
	}
	vals["bench.unaccounted_share"] = median(unaccounted)

	rec.mu.Lock()
	vals["jobs.queue_wait_ns"] = medianInt64(rec.durs["jobs.queue_wait"])
	vals["jobs.run_ns"] = medianInt64(rec.durs["jobs.run"])
	vals["durable.persist_ns"] = medianInt64(rec.durs["durable.persist"])
	rec.mu.Unlock()

	frames, bytes := rec.frames.Load(), rec.frameBytes.Load()
	if frames > 0 && ops > 0 {
		vals["transport.frames_per_op"] = float64(frames) / float64(ops)
		vals["transport.bytes_per_op"] = float64(bytes) / float64(ops)
		vals["proto.frame_bytes_mean"] = float64(bytes) / float64(frames)
		vals["cluster.fetches_per_op"] = float64(rec.fetchFrames.Load()) / float64(ops)
	}
	if evalNS := rec.nodeEvalNS.Load(); evalNS > 0 {
		vals["cluster.apply_share"] = float64(rec.applyNS.Load()) / float64(evalNS)
	}
}
