// Command fixgate is the Fixpoint serving gateway: a multi-tenant
// HTTP/JSON frontend with a memoization-aware result cache, single-flight
// collapsing of identical submissions, and admission control.
//
// Usage:
//
//	fixgate -listen :7670                          # in-process engine
//	fixgate -listen :7670 -peers host-a:7600,host-b:7600
//	fixgate -listen :7670 -cluster-listen :7601    # workers dial in
//	fixgate -listen :7670 -data-dir /var/lib/fixgate
//	fixgate -listen :7670 -gw-listen :7680 -gw-peers gw-b:7680
//	                                               # replicated edge
//
// With -data-dir, uploads and memoized results write-through to a
// crash-recoverable store (internal/durable), on boot the result cache
// is warmed from the recovered memo journal — a restarted edge answers
// repeat thunks without re-evaluating them — and the asynchronous job
// queue journals to <data-dir>/jobs.journal, so pending jobs resume
// after a restart and completed ones keep serving their results.
//
// Submissions run synchronously by default; with ?mode=async (or
// Prefer: respond-async) they enqueue into a durable job queue drained
// by -async-workers workers with per-tenant fair scheduling, and clients
// follow up via GET /v1/jobs/{id} (long-poll with ?wait=30s), the SSE
// stream at /v1/jobs/{id}/events, or DELETE /v1/jobs/{id} to cancel.
//
// With -gw-peers and/or -gw-listen the gateway joins a replicated edge
// of peer fixgates (internal/edgelog): each accepted async job is
// replicated to the peers before its 202 is acked, a dead gateway's
// undrained jobs are adopted exactly once by a surviving peer, and
// memoized results gossip between the gateways as cache-warm hints.
// -gw-id names this gateway in the edge (default: -id) and must stay
// stable across restarts; with -data-dir the edge log journals to
// <data-dir>/edge.journal and is recovered on boot.
//
// With -peers (or -cluster-listen) the gateway fronts a cluster of
// cmd/fixpoint workers as a client-only node: uploads are advertised to
// the cluster and each cache-missing job is placed by the node's
// dataflow-aware scheduler. Without either, jobs run on an in-process
// engine. With -replicas R ≥ 2 (matching the workers), uploads and eval
// outputs are replicated onto R consistent-hash ring successors so they
// survive worker loss (see OPERATIONS.md).
//
// Endpoints: POST /v1/blobs, GET /v1/blobs/{handle}, POST /v1/trees,
// POST /v1/jobs (sync or ?mode=async), POST /v1/jobs:batch (up to
// -max-batch submissions in one request), GET/DELETE /v1/jobs/{id},
// GET /v1/jobs/{id}/events (SSE), GET /v1/jobs, GET /v1/stats,
// GET /metrics. See README.md for the full API reference.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"fixgo/internal/bptree"
	"fixgo/internal/buildsys"
	"fixgo/internal/cluster"
	"fixgo/internal/core"
	"fixgo/internal/durable"
	"fixgo/internal/flatware"
	"fixgo/internal/gateway"
	"fixgo/internal/obsv"
	"fixgo/internal/runtime"
	"fixgo/internal/storage"
	"fixgo/internal/store"
	"fixgo/internal/transport"
	"fixgo/internal/wiki"
)

func main() {
	listen := flag.String("listen", ":7670", "HTTP listen address")
	peers := flag.String("peers", "", "comma-separated fixpoint worker addresses to dial")
	clusterListen := flag.String("cluster-listen", "", "optional transport listen address for inbound workers")
	id := flag.String("id", "fixgate", "gateway's cluster node identifier")
	gwID := flag.String("gw-id", "", "replicated-edge gateway identity, stable across restarts (default: -id)")
	gwPeers := flag.String("gw-peers", "", "comma-separated peer gateway edge addresses to dial (enables the replicated edge)")
	gwListen := flag.String("gw-listen", "", "transport listen address for inbound peer gateways (enables the replicated edge)")
	cores := flag.Int("cores", 8, "CPU slots (in-process engine mode)")
	memGiB := flag.Uint64("mem-gib", 16, "RAM capacity in GiB (in-process engine mode)")
	cacheEntries := flag.Int("cache", 4096, "result cache entries (0 disables caching and collapsing)")
	maxBatch := flag.Int("max-batch", 256, "items allowed in one POST /v1/jobs:batch submission (413 beyond)")
	maxInFlight := flag.Int("max-inflight", 64, "concurrent backend evaluations")
	maxQueue := flag.Int("max-queue", 256, "queued submissions before load-shedding with 429")
	dataDir := flag.String("data-dir", "", "directory for the durable object/memo store (empty: in-memory only)")
	fsync := flag.String("fsync", "interval", "durable fsync policy: always | interval | never")
	gcBudgetMiB := flag.Int64("gc-budget-mib", 0, "durable pack budget in MiB before GC (0: unbounded)")
	asyncWorkers := flag.Int("async-workers", 8, "async job worker pool size (0 disables the async endpoints)")
	queueDepth := flag.Int("queue-depth", 1024, "pending async jobs before submissions shed with 429")
	hbInterval := flag.Duration("hb-interval", time.Second, "worker heartbeat interval (0 disables failure detection)")
	hbTimeout := flag.Duration("hb-timeout", 0, "silence window before a worker is evicted (default 4×hb-interval)")
	replicas := flag.Int("replicas", 1, "cluster replication factor R: writes are pushed to R-1 ring successors (1 disables replication)")
	traceEntries := flag.Int("trace-entries", 512, "finished request traces retained for GET /v1/trace")
	debugAddr := flag.String("debug-addr", "", "optional debug listen address serving /debug/pprof, /metrics, and /v1/trace")
	storageMode := flag.String("storage", "local", "object storage mode: local | remote | hybrid (cluster mode only, see OPERATIONS.md)")
	remoteDir := flag.String("remote-dir", "", "remote tier directory (required for -storage remote|hybrid)")
	lfcBudgetMiB := flag.Int64("lfc-budget-mib", 512, "local file cache byte budget in MiB (0 disables caching)")
	demoteAfter := flag.Duration("demote-after", 10*time.Minute, "idle window before a cold object is demoted to the tier (0 disables demotion)")
	flag.Parse()

	reg := runtime.NewRegistry()
	wiki.Register(reg, wiki.Config{})
	buildsys.Register(reg, buildsys.Config{})
	bptree.Register(reg)
	flatware.RegisterGetFile(reg)
	flatware.RegisterSeBS(reg)

	var backend gateway.Backend
	var backing *store.Store
	var node *cluster.Node
	clustered := *peers != "" || *clusterListen != ""
	if clustered {
		node = cluster.NewNode(*id, cluster.NodeOptions{
			Cores:             1,
			ClientOnly:        true,
			Registry:          reg,
			HeartbeatInterval: *hbInterval,
			HeartbeatTimeout:  *hbTimeout,
			Replicas:          *replicas,
		})
		for _, addr := range strings.Split(*peers, ",") {
			addr = strings.TrimSpace(addr)
			if addr == "" {
				continue
			}
			conn, err := transport.Dial(addr)
			if err != nil {
				fatal(fmt.Errorf("dial worker %s: %w", addr, err))
			}
			node.AttachPeer(conn)
			fmt.Printf("fixgate: connected to worker %s\n", addr)
		}
		if *clusterListen != "" {
			l, err := transport.Listen(*clusterListen)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("fixgate: accepting workers on %s\n", l.Addr())
			go func() {
				if err := transport.Serve(l, node.AttachPeer); err != nil {
					log.Printf("fixgate: worker accept loop: %v", err)
				}
			}()
		}
		backend = node
		backing = node.Store()
	} else {
		eng := runtime.New(store.New(), runtime.Options{
			Cores:       *cores,
			MemoryBytes: *memGiB << 30,
			Registry:    reg,
		})
		backend = gateway.NewEngineBackend(eng)
		backing = eng.Store()
	}

	policy, err := durable.ParseFsyncPolicy(*fsync)
	if err != nil {
		fatal(err)
	}
	var dur *durable.Store
	// The durable store opens before the gateway exists, but its write
	// latencies should land in the gateway's fixgate_persist_seconds
	// histogram; the observer indirects through an atomic the server
	// fills in below. Writes before that see nil and skip.
	var persistObs atomic.Pointer[func(op string, took time.Duration)]
	if *dataDir != "" {
		d, rs, err := durable.Attach(*dataDir, durable.Options{
			Fsync:         policy,
			GCBudgetBytes: *gcBudgetMiB << 20,
			Observe: func(op string, took time.Duration) {
				if f := persistObs.Load(); f != nil {
					(*f)(op, took)
				}
			},
			Logf: log.Printf,
		}, backing)
		if err != nil {
			fatal(err)
		}
		defer d.Close()
		dur = d
		fmt.Printf("fixgate: recovered %d blobs, %d trees, %d thunk + %d encode memos from %s (fsync=%s)\n",
			rs.Blobs, rs.Trees, rs.Thunks, rs.Encodes, *dataDir, policy)
		if clustered {
			// Peers connected before the restore saw an empty-store
			// Hello; re-advertise so recovered objects are placeable.
			node.AdvertiseAll()
		}
	}

	// The edge's storage tier rides on its cluster node (the in-process
	// engine keeps everything hot); it attaches after the durable restore
	// because hybrid mode's local side is the pack store itself.
	if *storageMode != "" && *storageMode != storage.ModeLocal {
		if !clustered {
			fatal(fmt.Errorf("-storage %s requires cluster mode (-peers or -cluster-listen)", *storageMode))
		}
		cacheDir := filepath.Join(os.TempDir(), "fixgate-lfc")
		if *dataDir != "" {
			cacheDir = filepath.Join(*dataDir, "lfc")
		}
		tier, err := storage.Build(storage.Config{
			Mode:        *storageMode,
			RemoteDir:   *remoteDir,
			CacheDir:    cacheDir,
			CacheBudget: *lfcBudgetMiB << 20,
		}, dur)
		if err != nil {
			fatal(err)
		}
		defer tier.Close()
		node.SetTier(tier, *demoteAfter)
		fmt.Printf("fixgate: %s storage tier at %s (lfc %s, budget %d MiB, demote after %s)\n",
			*storageMode, *remoteDir, cacheDir, *lfcBudgetMiB, *demoteAfter)
	}

	gwOpts := gateway.Options{
		Backend:         backend,
		CacheEntries:    *cacheEntries,
		MaxBatchItems:   *maxBatch,
		MaxInFlight:     *maxInFlight,
		MaxQueue:        *maxQueue,
		PersistErrors:   backing.PersistErrors,
		AsyncWorkers:    *asyncWorkers,
		AsyncQueueDepth: *queueDepth,
		TraceEntries:    *traceEntries,
		Logf:            log.Printf,
	}
	if dur != nil {
		gwOpts.DurableStats = dur.Stats
	}
	if *dataDir != "" {
		// The jobs journal shares the data-dir (and fsync policy) with
		// the durable store; the memo restore above already ran, so jobs
		// resumed by the worker pool hit recovered memos instead of
		// re-executing.
		gwOpts.JobsJournalPath = filepath.Join(*dataDir, "jobs.journal")
		gwOpts.JobsFsync = policy
	}
	edged := *gwPeers != "" || *gwListen != ""
	if edged {
		gwOpts.EdgeID = *gwID
		if gwOpts.EdgeID == "" {
			gwOpts.EdgeID = *id
		}
		if *dataDir != "" {
			gwOpts.EdgeJournalPath = filepath.Join(*dataDir, "edge.journal")
		}
	}
	srv, err := gateway.NewServer(gwOpts)
	if err != nil {
		fatal(err)
	}
	defer srv.Close()
	if edged {
		// Peer gateways boot in arbitrary order; retry each dial so a
		// whole edge can be started by one script without sequencing.
		for _, addr := range strings.Split(*gwPeers, ",") {
			addr = strings.TrimSpace(addr)
			if addr == "" {
				continue
			}
			conn, err := transport.DialRetry(addr, 250*time.Millisecond, 30*time.Second)
			if err != nil {
				fatal(fmt.Errorf("dial peer gateway %s: %w", addr, err))
			}
			srv.AttachEdgePeer(conn)
			fmt.Printf("fixgate: replicated edge peer %s connected\n", addr)
		}
		if *gwListen != "" {
			l, err := transport.Listen(*gwListen)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("fixgate: accepting peer gateways on %s (edge id %s)\n", l.Addr(), gwOpts.EdgeID)
			go func() {
				if err := transport.Serve(l, srv.AttachEdgePeer); err != nil {
					log.Printf("fixgate: edge accept loop: %v", err)
				}
			}()
		}
	}
	obs := srv.PersistObserver()
	persistObs.Store(&obs)
	if *debugAddr != "" {
		mux := obsv.DebugMux(srv.Metrics(), srv.Tracer())
		fmt.Printf("fixgate: debug listener (pprof, metrics, traces) on %s\n", *debugAddr)
		go func() {
			if err := http.ListenAndServe(*debugAddr, mux); err != nil {
				log.Printf("fixgate: debug listener: %v", err)
			}
		}()
	}
	if m := srv.Jobs(); m != nil {
		js := m.Stats()
		if js.Replayed > 0 {
			fmt.Printf("fixgate: recovered %d async jobs (%d resumed as pending)\n", js.Replayed, js.Resumed)
		}
		fmt.Printf("fixgate: async jobs: %d workers, queue depth %d\n", *asyncWorkers, *queueDepth)
	}

	if dur != nil {
		// Warm the edge cache from the recovered memo journal: an Encode
		// memo is exactly what a repeat submission of that job asks for
		// (bare-Thunk submissions are wrapped in a Strict Encode). Warm
		// only entries the restore accepted — RestoreInto drops memos
		// whose result closure lost an object to the crash (the journal
		// and packs are separate files with no cross-file atomicity),
		// and warming those would pin an unfetchable answer.
		warmed := 0
		dur.MemoEntries(func(kind durable.MemoKind, key, result core.Handle) {
			if kind != durable.MemoEncode {
				return
			}
			if r, ok := backing.EncodeResult(key); ok && r == result && srv.Warm(key, result) {
				warmed++
			}
		})
		fmt.Printf("fixgate: warmed %d cache entries from the memo journal\n", warmed)
	}

	mode := "in-process engine"
	if clustered {
		mode = "cluster client"
	}
	fmt.Printf("fixgate: serving on %s (%s, cache=%d, inflight=%d, queue=%d)\n",
		*listen, mode, *cacheEntries, *maxInFlight, *maxQueue)
	if err := http.ListenAndServe(*listen, srv.Handler()); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fixgate:", err)
	os.Exit(1)
}
