package gateway

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"fixgo/internal/core"
	"fixgo/internal/obsv"
	"fixgo/internal/runtime"
)

// POST /v1/jobs:batch amortizes the gateway's per-request costs over N
// submissions: one HTTP round trip, one JSON decode, one admission
// decision, and one bounded fan-out onto the backend, with per-item
// results and errors reported in submission order. The batch shares the
// sync path's cache semantics item for item — each item is a hit, a
// collapsed join, or a led evaluation exactly as if it had been
// submitted alone — so a duplicate-heavy batch mostly resolves at the
// edge without ever reaching the cluster.

// Wire types of POST /v1/jobs:batch.
type (
	// BatchRequest submits up to Options.MaxBatchItems jobs in one
	// request.
	BatchRequest struct {
		Items []BatchItem `json:"items"`
	}
	// BatchItem is one submission inside a batch. As on /v1/jobs, a bare
	// Thunk is wrapped in a Strict Encode automatically.
	BatchItem struct {
		Handle string `json:"handle"`
	}
	// BatchItemReply reports one item's outcome, in submission order.
	// Exactly one of Result or Error is set.
	BatchItemReply struct {
		Result  string `json:"result,omitempty"`
		Outcome string `json:"outcome,omitempty"` // hit | miss | collapsed | bypass
		Error   string `json:"error,omitempty"`
	}
	// BatchReply answers POST /v1/jobs:batch.
	BatchReply struct {
		Items     []BatchItemReply `json:"items"`
		ElapsedNS int64            `json:"elapsed_ns"`
		Trace     string           `json:"trace,omitempty"`
	}
)

var errEmptyBatch = errors.New("gateway: batch has no items")

func (s *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	t := s.tenant(r)
	var req BatchRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	n := len(req.Items)
	if n == 0 {
		s.fail(w, http.StatusBadRequest, errEmptyBatch)
		return
	}
	if n > s.opts.MaxBatchItems {
		s.fail(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("batch of %d items exceeds the %d-item limit", n, s.opts.MaxBatchItems))
		return
	}

	start := time.Now()
	tc := s.tracer.Start("batch")
	w.Header().Set(TraceHeader, tc.ID)
	defer s.tracer.Finish(tc)
	s.batches.Add(1)
	s.batchItems.Add(uint64(n))
	s.batchSize.Observe(float64(n))
	t.jobs.Add(uint64(n))

	// Per-item bookkeeping; items resolve in place and the reply is
	// assembled in submission order at the end.
	type batchItem struct {
		h       core.Handle
		k       core.Handle // cache key (led and joined items only)
		f       *flight
		result  core.Handle
		outcome CacheOutcome
		err     error
		settled time.Duration // when the item resolved, relative to start
	}
	items := make([]batchItem, n)
	var leaders, joins, evals []int // indices into items
	for i := range req.Items {
		it := &items[i]
		h, err := parseHandle(req.Items[i].Handle)
		if err != nil {
			// A malformed handle fails its own item; the rest of the
			// batch proceeds.
			it.err, it.settled = fmt.Errorf("item %d: %w", i, err), time.Since(start)
			continue
		}
		if h.RefKind() == core.RefThunk {
			h, _ = core.Strict(h)
		}
		it.h = h
		if h.IsData() {
			it.result, it.outcome, it.settled = h, OutcomeHit, time.Since(start)
			continue
		}
		if s.cache == nil {
			it.outcome = OutcomeBypass
			evals = append(evals, i)
			continue
		}
		// Reserving through the shared cache gives the batch the sync
		// path's semantics item for item — including collapsing a
		// duplicate within the batch onto the first occurrence's flight.
		it.k = h.AsObject()
		rv := s.cache.reserve(it.k)
		switch {
		case rv.outcome == OutcomeHit:
			it.result, it.outcome, it.settled = rv.result, OutcomeHit, time.Since(start)
		case rv.leader:
			it.f, it.outcome = rv.f, OutcomeMiss
			leaders = append(leaders, i)
			evals = append(evals, i)
		default:
			it.f, it.outcome = rv.f, OutcomeCollapsed
			joins = append(joins, i)
		}
	}

	// One admission decision covers every evaluation the batch leads.
	// When it sheds, the reserved flights MUST still be published (with
	// the error) or later submissions of those handles would block
	// forever; errors are never cached, so retries re-evaluate.
	if len(evals) > 0 {
		sp := tc.StartSpan("queue_wait", "")
		err := s.adm.Acquire(r.Context())
		sp.End()
		if err != nil {
			for _, i := range leaders {
				items[i].f.err = err
				s.cache.publish(items[i].k, items[i].f)
			}
			tc.SetOutcome("error")
			s.jobsFailed.Add(uint64(n))
			switch {
			case errors.Is(err, ErrOverloaded):
				t.rejected.Add(uint64(n))
				s.fail(w, http.StatusTooManyRequests, err)
			case r.Context().Err() != nil:
				s.fail(w, http.StatusGatewayTimeout, err)
			default:
				s.fail(w, http.StatusInternalServerError, err)
			}
			return
		}
		// Evaluate the led items as one fan-out under the single admitted
		// slot. The flight context is detached from the request exactly
		// as evaluate's is: collapsed waiters outside this batch — an
		// async job among them — may be riding on these flights, so they
		// outlive this client's connection but not the server (Close
		// cancels them and waits for s.flights before the edge's Leave).
		flightCtx := flightContext{Context: s.closeCtx, values: obsv.WithTrace(r.Context(), tc)}
		hs := make([]core.Handle, len(evals))
		for j, i := range evals {
			hs[j] = items[i].h
		}
		s.flights.Add(1)
		bs := tc.StartSpan("backend_eval", "")
		results, errs := fanOutEval(flightCtx, s.opts.Backend.Eval, hs)
		bs.End()
		s.flights.Add(-1)
		s.adm.Release()
		for j, i := range evals {
			it := &items[i]
			it.result, it.err = results[j], errs[j]
			it.settled = time.Since(start)
			if it.f != nil {
				it.f.result, it.f.err = it.result, it.err
				s.cache.publish(it.k, it.f)
			}
		}
	}

	// Collapsed joiners ride flights led elsewhere — earlier in this
	// batch (already published above) or by a concurrent single
	// submission; each wait is governed by the request's context.
	for _, i := range joins {
		it := &items[i]
		select {
		case <-it.f.done:
			it.result, it.err = it.f.result, it.f.err
		case <-r.Context().Done():
			it.err = r.Context().Err()
		}
		it.settled = time.Since(start)
	}

	elapsed := time.Since(start)
	reply := BatchReply{Items: make([]BatchItemReply, n), ElapsedNS: elapsed.Nanoseconds(), Trace: tc.ID}
	failed := 0
	for i := range items {
		it := &items[i]
		// One span per item; the stage name is the constant "batch_item"
		// (bounded fixgate_stage_seconds cardinality) and the Node field
		// carries the item's index for GET /v1/trace/{id}.
		tc.AddSpanAt("batch_item", strconv.Itoa(i), start, it.settled)
		if it.err != nil {
			failed++
			s.jobsFailed.Add(1)
			if errors.Is(it.err, ErrOverloaded) {
				t.rejected.Add(1)
			}
			reply.Items[i] = BatchItemReply{Error: it.err.Error()}
			continue
		}
		s.jobsOK.Add(1)
		if it.outcome == OutcomeHit || it.outcome == OutcomeCollapsed {
			t.hits.Add(1)
		}
		reply.Items[i] = BatchItemReply{Result: core.FormatHandle(it.result), Outcome: string(it.outcome)}
	}
	if failed > 0 {
		tc.SetOutcome("error")
	} else {
		tc.SetOutcome("ok")
	}
	tc.AddSpanAt("gateway", "", start, elapsed)
	s.reply(w, http.StatusOK, reply)
}

// maxBatchFanout bounds how many concurrent evaluations one batch holds.
// A cluster backend still places each item independently, so a batch
// spreads across workers; the bound only keeps one giant batch from
// monopolizing the local goroutine budget.
const maxBatchFanout = 32

// fanOutEval forces every handle concurrently (bounded) and reports
// per-item results and errors in input order. Items fail independently:
// a missing dependency in one slot does not poison its neighbors.
func fanOutEval(ctx context.Context, eval func(context.Context, core.Handle) (core.Handle, error), hs []core.Handle) ([]core.Handle, []error) {
	results := make([]core.Handle, len(hs))
	errs := make([]error, len(hs))
	sem := make(chan struct{}, maxBatchFanout)
	var wg sync.WaitGroup
	for i, h := range hs {
		wg.Add(1)
		sem <- struct{}{}
		runtime.Go(func() {
			defer wg.Done()
			defer func() { <-sem }()
			results[i], errs[i] = eval(ctx, h)
		})
	}
	wg.Wait()
	return results, errs
}
