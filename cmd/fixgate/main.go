// Command fixgate is the Fixpoint serving gateway: a multi-tenant
// HTTP/JSON frontend with a memoization-aware result cache, single-flight
// collapsing of identical submissions, and admission control.
//
//	fixgate -listen :7670                          # in-process engine
//	fixgate -listen :7670 -peers host-a:7600,host-b:7600
//	fixgate -listen :7670 -cluster-listen :7601    # workers dial in
//	fixgate -listen :7670 -data-dir /var/lib/fixgate
//	fixgate -listen :7670 -gw-listen :7680 -gw-peers gw-b:7680
//
// With -peers or -cluster-listen the gateway fronts cmd/fixpoint workers
// as a client-only cluster node; without either, jobs run on an
// in-process engine. With -data-dir, uploads, memoized results and the
// async job queue (jobs.journal) survive a restart: a repeat of a
// recovered job is answered from the restored memo without re-executing.
// With -gw-peers or -gw-listen the gateway joins a replicated edge of peer
// fixgates (internal/edgelog) under its one identity, -id: accepted async
// jobs replicate to the peers before their 202, and a dead gateway's
// undrained jobs are adopted exactly once by a survivor. The edge log
// keeps no file: a restarted gateway rebuilds its own entries from
// jobs.journal and relearns its peers' from their snapshots.
//
// Flags are bound in internal/daemon and tabulated, with the HTTP API, in
// README.md; OPERATIONS.md is the runbook.
package main

import (
	"fmt"
	"log"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"time"

	"fixgo/internal/cluster"
	"fixgo/internal/daemon"
	"fixgo/internal/gateway"
	"fixgo/internal/runtime"
	"fixgo/internal/store"
	"fixgo/internal/transport"
)

func main() {
	cfg := daemon.MustParse(daemon.Fixgate)
	var backend gateway.Backend
	var backing *store.Store
	var node *cluster.Node
	mode := "in-process engine"
	if cfg.Clustered() {
		mode = "cluster client"
		node = cfg.NewNode()
		cfg.Check(cfg.Link("worker", cfg.Peers, cfg.ClusterListen, transport.Dial, node.AttachPeer))
		backend, backing = node, node.Store()
	} else {
		eng := runtime.New(store.New(), runtime.Options{
			Cores:       cfg.Cores,
			MemoryBytes: cfg.MemGiB << 30,
			Registry:    daemon.Registry(),
		})
		backend, backing = gateway.NewEngineBackend(eng), eng.Store()
	}

	// The durable store opens before the gateway exists, but its write
	// latencies should land in the gateway's fixgate_persist_seconds
	// histogram; the observer indirects through an atomic the server
	// fills in below. Writes before that see nil and skip.
	var persistObs atomic.Pointer[func(op string, took time.Duration)]
	dur, err := cfg.AttachDurable(backing, func(op string, took time.Duration) {
		if f := persistObs.Load(); f != nil {
			(*f)(op, took)
		}
	})
	cfg.Check(err)
	if dur != nil {
		defer dur.Close()
		if node != nil {
			// Peers connected before the restore saw an empty-store
			// Hello; re-advertise so recovered objects are placeable.
			node.AdvertiseAll()
		}
	}
	// The tier rides on the cluster node: Validate refused -remote-dir
	// for the in-process engine, so a nil node gets a nil tier.
	tier, err := cfg.AttachTier(node, dur)
	cfg.Check(err)
	if tier != nil {
		defer tier.Close()
	}

	gwOpts := gateway.Options{
		Backend:         backend,
		CacheEntries:    cfg.Cache,
		MaxBatchItems:   cfg.MaxBatch,
		MaxInFlight:     cfg.MaxInFlight,
		MaxQueue:        cfg.MaxQueue,
		PersistErrors:   backing.PersistErrors,
		AsyncWorkers:    cfg.AsyncWorkers,
		AsyncQueueDepth: cfg.QueueDepth,
		TraceEntries:    cfg.TraceEntries,
		JobsFsync:       cfg.Fsync,
		Logf:            log.Printf,
	}
	if cfg.Edged() {
		gwOpts.EdgeID = cfg.ID
	}
	if dur != nil {
		// The jobs journal shares the data-dir (and fsync policy) with
		// the durable store; the memo restore above already ran, so jobs
		// resumed by the worker pool hit recovered memos instead of
		// re-executing.
		gwOpts.DurableStats = dur.Stats
		gwOpts.JobsJournalPath = filepath.Join(cfg.DataDir, "jobs.journal")
	}
	srv, err := gateway.NewServer(gwOpts)
	cfg.Check(err)
	defer srv.Close()
	// Peer gateways boot in arbitrary order; retry each dial so a whole
	// edge can be started by one script without sequencing.
	cfg.Check(cfg.Link("peer gateway", cfg.GWPeers, cfg.GWListen, func(addr string) (transport.Conn, error) {
		return transport.DialRetry(addr, 250*time.Millisecond, 30*time.Second)
	}, srv.AttachEdgePeer))
	obs := srv.PersistObserver()
	persistObs.Store(&obs)
	cfg.ServeDebug(srv.Metrics(), srv.Tracer())
	if m := srv.Jobs(); m != nil {
		js := m.Stats()
		fmt.Printf("fixgate: async jobs: %d workers, queue depth %d, recovered %d (%d resumed as pending)\n",
			cfg.AsyncWorkers, cfg.QueueDepth, js.Replayed, js.Resumed)
	}

	fmt.Printf("fixgate: %s serving on %s (%s, cache=%d, inflight=%d, queue=%d)\n",
		cfg.ID, cfg.Listen, mode, cfg.Cache, cfg.MaxInFlight, cfg.MaxQueue)
	cfg.Check(http.ListenAndServe(cfg.Listen, srv.Handler()))
}
