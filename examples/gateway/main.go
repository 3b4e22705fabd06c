// Gateway walkthrough: serve a Fixpoint engine over HTTP with fixgate's
// serving layer, then demonstrate what content-addressed determinism buys
// the edge — a thundering herd of identical submissions costs one
// evaluation, and repeats are answered from the result cache without
// touching the engine.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sync"

	"fixgo/internal/codelet"
	"fixgo/internal/core"
	"fixgo/internal/gateway"
	"fixgo/internal/runtime"
	"fixgo/internal/store"
)

func main() {
	// An in-process engine behind a gateway — the same wiring
	// `fixgate -listen :7670` does, minus the flags.
	eng := runtime.New(store.New(), runtime.Options{Cores: 4})
	srv, err := gateway.NewServer(gateway.Options{
		Backend:      gateway.NewEngineBackend(eng),
		CacheEntries: 1024,
		MaxInFlight:  8,
	})
	if err != nil {
		log.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(l) }()
	defer hs.Close()
	base := "http://" + l.Addr().String()
	fmt.Printf("gateway listening on %s\n\n", base)

	// A client uploads the add codelet and builds add(40, 2) — all over
	// HTTP, by Handle.
	ctx := context.Background()
	c := gateway.NewClient(base, gateway.WithTenant("walkthrough"))
	fn, err := c.PutBlob(ctx, codelet.AddFunctionBlob())
	if err != nil {
		log.Fatal(err)
	}
	tree, err := c.PutTree(ctx, core.InvocationTree(
		core.DefaultLimits.Handle(), fn, core.LiteralU64(40), core.LiteralU64(2)))
	if err != nil {
		log.Fatal(err)
	}
	job, _ := core.Application(tree)
	fmt.Printf("job handle: %s\n\n", core.FormatHandle(job))

	// 16 concurrent clients submit the *same* job. The gateway collapses
	// them onto one evaluation; every caller gets the answer.
	const K = 16
	var wg sync.WaitGroup
	outcomes := make([]gateway.CacheOutcome, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c.SubmitFetch(ctx, job)
			if err != nil {
				log.Fatal(err)
			}
			outcomes[i] = res.Outcome
			if i == 0 {
				v, _ := core.DecodeU64(res.Data)
				fmt.Printf("add(40, 2) = %d\n", v)
			}
		}(i)
	}
	wg.Wait()
	counts := map[gateway.CacheOutcome]int{}
	for _, o := range outcomes {
		counts[o]++
	}
	fmt.Printf("herd of %d identical submissions: %d led, %d collapsed, %d cache hits\n",
		K, counts[gateway.OutcomeMiss], counts[gateway.OutcomeCollapsed], counts[gateway.OutcomeHit])

	// A later resubmission is a pure cache hit.
	res, err := c.Submit(ctx, job)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resubmission outcome: %s (served in %v)\n\n", res.Outcome, res.Elapsed)

	// The scrape endpoint exports everything the edge saw.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("GET /metrics:\n%s", metrics)
}
