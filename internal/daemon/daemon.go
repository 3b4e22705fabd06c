// Package daemon is the configuration and boot path cmd/fixgate and
// cmd/fixpoint share: one Config bound to the command line in one place
// (README.md §Running a deployment has the flag table, checked against
// Bind by internal/docgate), one Validate that rejects contradictory
// combinations before anything is opened, and the boot steps both
// daemons take — procedure registry, cluster node, durable attach, tier
// assembly, debug listener, peer dialing.
package daemon

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"fixgo/internal/bptree"
	"fixgo/internal/buildsys"
	"fixgo/internal/cluster"
	"fixgo/internal/durable"
	"fixgo/internal/flatware"
	"fixgo/internal/obsv"
	"fixgo/internal/runtime"
	"fixgo/internal/storage"
	"fixgo/internal/store"
	"fixgo/internal/transport"
	"fixgo/internal/wiki"
)

// The two daemons a Config can describe.
const (
	Fixgate  = "fixgate"
	Fixpoint = "fixpoint"
)

// Config is one daemon's validated command line. Each exported field but
// Daemon is the flag its Bind line names.
type Config struct {
	// Daemon is Fixgate or Fixpoint: it selects the defaults and which
	// of the flags below exist.
	Daemon string

	// Both daemons.
	Listen, ID, Peers     string
	Cores                 int
	MemGiB                uint64
	DataDir               string
	Fsync                 durable.FsyncPolicy
	GCBudgetMiB           int64
	HBInterval, HBTimeout time.Duration
	Replicas              int
	DebugAddr, RemoteDir  string
	LFCBudgetMiB          int64
	DemoteAfter           time.Duration

	// fixgate only.
	ClusterListen, GWPeers, GWListen string
	Cache, MaxBatch                  int
	MaxInFlight, MaxQueue            int
	AsyncWorkers, QueueDepth         int
	TraceEntries                     int

	// fixpoint only.
	InternalIO, NoLocality bool
}

// Bind declares daemon name's flags on fs and returns the Config that
// fs.Parse fills. It is the only place either daemon defines a flag.
func Bind(fs *flag.FlagSet, name string) *Config {
	c := &Config{Daemon: name}
	gate := name == Fixgate
	listen, cores, memGiB := ":7600", 32, uint64(64)
	if gate {
		listen, cores, memGiB = ":7670", 8, 16
	}
	fs.StringVar(&c.Listen, "listen", listen, "listen address (fixgate: HTTP; fixpoint: framed TCP)")
	fs.StringVar(&c.ID, "id", "", "this process's one identity, in the cluster and on the replicated edge; unique per process, stable across restarts (default <hostname><listen>)")
	fs.StringVar(&c.Peers, "peers", "", "comma-separated fixpoint addresses to dial on boot")
	fs.IntVar(&c.Cores, "cores", cores, "CPU slots (fixgate: in-process engine mode only)")
	fs.Uint64Var(&c.MemGiB, "mem-gib", memGiB, "RAM capacity in GiB (fixgate: in-process engine mode only)")
	fs.StringVar(&c.DataDir, "data-dir", "", "directory for the durable object/memo store and journals (empty: in-memory only)")
	fs.Var(&c.Fsync, "fsync", "durable fsync `policy`: always | interval (the default) | never")
	fs.Int64Var(&c.GCBudgetMiB, "gc-budget-mib", 0, "durable pack budget in MiB before GC (0: unbounded)")
	fs.DurationVar(&c.HBInterval, "hb-interval", time.Second, "peer heartbeat interval (0 disables failure detection)")
	fs.DurationVar(&c.HBTimeout, "hb-timeout", 0, "silence window before a peer is evicted (0: 4×hb-interval)")
	fs.IntVar(&c.Replicas, "replicas", 1, "replication factor R: writes are pushed to R-1 ring successors (1 disables replication; uniform across the cluster)")
	fs.StringVar(&c.DebugAddr, "debug-addr", "", "optional debug listen address serving /debug/pprof, /metrics and /v1/trace")
	fs.StringVar(&c.RemoteDir, "remote-dir", "", "remote tier directory; enables tiered storage (hybrid with -data-dir, remote without; fixgate: cluster mode only)")
	fs.Int64Var(&c.LFCBudgetMiB, "lfc-budget-mib", 512, "local file cache byte budget in MiB (0 disables caching)")
	fs.DurationVar(&c.DemoteAfter, "demote-after", 10*time.Minute, "idle window before a cold object is demoted to the tier (0 disables demotion)")
	if !gate {
		fs.BoolVar(&c.InternalIO, "internal-io", false, "ablation: claim resources before dependencies arrive")
		fs.BoolVar(&c.NoLocality, "no-locality", false, "ablation: random placement")
		return c
	}
	fs.StringVar(&c.ClusterListen, "cluster-listen", "", "transport listen address for workers that dial in")
	fs.StringVar(&c.GWPeers, "gw-peers", "", "comma-separated peer gateway edge addresses to dial, retried for 30s (enables the replicated edge)")
	fs.StringVar(&c.GWListen, "gw-listen", "", "transport listen address for inbound peer gateways (enables the replicated edge)")
	fs.IntVar(&c.Cache, "cache", 4096, "result cache entries (0 disables caching and collapsing)")
	fs.IntVar(&c.MaxBatch, "max-batch", 256, "items allowed in one POST /v1/jobs:batch submission (413 beyond)")
	fs.IntVar(&c.MaxInFlight, "max-inflight", 64, "concurrent backend evaluations")
	fs.IntVar(&c.MaxQueue, "max-queue", 256, "queued submissions before load-shedding with 429")
	fs.IntVar(&c.AsyncWorkers, "async-workers", 8, "async job worker pool size (0 disables the async endpoints)")
	fs.IntVar(&c.QueueDepth, "queue-depth", 1024, "pending async jobs before submissions shed with 429")
	fs.IntVar(&c.TraceEntries, "trace-entries", 512, "finished request traces retained for GET /v1/trace")
	return c
}

// Parse is a daemon's whole command line: bind, parse, validate. The
// Config comes back even when err rejects it.
func Parse(name string, args []string) (*Config, error) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	c := Bind(fs, name)
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	return c, c.Validate()
}

// MustParse parses the process's own command line and exits on a
// rejected one (status 0 after -h).
func MustParse(name string) *Config {
	c, err := Parse(name, os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	c.Check(err)
	return c
}

// Check exits the process, err on stderr behind the daemon's name,
// unless err is nil.
func (c *Config) Check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", c.Daemon, err)
		os.Exit(1)
	}
}

// Validate rejects combinations that would boot into a silently broken
// daemon and derives what the flags leave open: without -id, the
// identity <hostname><listen>.
func (c *Config) Validate() error {
	switch {
	case c.Replicas < 1:
		return fmt.Errorf("-replicas %d: the replication factor counts the writer's copy, so it is at least 1", c.Replicas)
	case c.HBTimeout > 0 && c.HBTimeout < c.HBInterval:
		return fmt.Errorf("-hb-timeout %s is shorter than -hb-interval %s: every idle peer would be evicted on each tick", c.HBTimeout, c.HBInterval)
	case c.GCBudgetMiB < 0 || c.LFCBudgetMiB < 0:
		return errors.New("-gc-budget-mib and -lfc-budget-mib must not be negative")
	case c.RemoteDir != "" && c.Daemon == Fixgate && !c.Clustered():
		return errors.New("-remote-dir needs cluster mode (-peers or -cluster-listen): the in-process engine keeps everything hot")
	case c.Edged() && c.AsyncWorkers <= 0:
		return errors.New("-gw-peers/-gw-listen need -async-workers > 0: the replicated edge adopts a dead peer's jobs into the async queue")
	}
	if c.ID == "" {
		host, err := os.Hostname()
		if err != nil {
			return fmt.Errorf("cannot derive -id (pass one): %w", err)
		}
		c.ID = host + c.Listen
	}
	return nil
}

// Clustered reports whether a fixgate fronts fixpoint workers rather
// than an in-process engine.
func (c *Config) Clustered() bool { return c.Peers != "" || c.ClusterListen != "" }

// Edged reports whether a fixgate joins a replicated edge.
func (c *Config) Edged() bool { return c.GWPeers != "" || c.GWListen != "" }

// StorageMode names the tier assembly storage.Build derives from
// -remote-dir and -data-dir: "local" (no tier), "remote" or "hybrid".
func (c *Config) StorageMode() string {
	if c.RemoteDir == "" {
		return "local"
	} else if c.DataDir == "" {
		return "remote"
	}
	return "hybrid"
}

// CacheDir is the local file cache's directory: under -data-dir when
// there is one, else a temp directory keyed by daemon and identity, so
// two processes on one host never adopt and evict each other's files.
func (c *Config) CacheDir() string {
	if c.DataDir != "" {
		return filepath.Join(c.DataDir, "lfc")
	}
	safe := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			return r
		}
		return '_'
	}, c.ID)
	return filepath.Join(os.TempDir(), c.Daemon+"-lfc-"+safe)
}

// Registry returns the native procedures both daemons serve.
func Registry() *runtime.Registry {
	reg := runtime.NewRegistry()
	wiki.Register(reg, wiki.Config{})
	buildsys.Register(reg, buildsys.Config{})
	bptree.Register(reg)
	flatware.RegisterGetFile(reg)
	flatware.RegisterSeBS(reg)
	return reg
}

// NewNode builds the daemon's cluster node: a worker for fixpoint, a
// client-only submitter for fixgate.
func (c *Config) NewNode() *cluster.Node {
	opts := cluster.NodeOptions{
		Cores:             1,
		ClientOnly:        true,
		Registry:          Registry(),
		HeartbeatInterval: c.HBInterval,
		HeartbeatTimeout:  c.HBTimeout,
		Replicas:          c.Replicas,
	}
	if c.Daemon == Fixpoint {
		opts.Cores, opts.ClientOnly = c.Cores, false
		opts.MemoryBytes = c.MemGiB << 30
		opts.InternalIO, opts.NoLocality = c.InternalIO, c.NoLocality
	}
	return cluster.NewNode(c.ID, opts)
}

// AttachDurable opens -data-dir, restores it into st and write-throughs
// st's later writes; nil without -data-dir. observe, when non-nil,
// receives every persist's latency. The caller closes the store.
func (c *Config) AttachDurable(st *store.Store, observe func(op string, took time.Duration)) (*durable.Store, error) {
	if c.DataDir == "" {
		return nil, nil
	}
	d, rs, err := durable.Attach(c.DataDir, durable.Options{
		Fsync:         c.Fsync,
		GCBudgetBytes: c.GCBudgetMiB << 20,
		Observe:       observe,
		Logf:          log.Printf,
	}, st)
	if err != nil {
		return nil, err
	}
	fmt.Printf("%s: recovered %d blobs, %d trees, %d thunk + %d encode memos from %s (fsync=%s)\n",
		c.Daemon, rs.Blobs, rs.Trees, rs.Thunks, rs.Encodes, c.DataDir, c.Fsync)
	return d, nil
}

// AttachTier assembles the storage tier -remote-dir asks for and hands
// it to node; nil without -remote-dir. It runs after AttachDurable
// because the hybrid tier's local side is the pack store itself: demoted
// objects stay durable on this disk while their hot copy is evicted. The
// caller closes the tier.
func (c *Config) AttachTier(node *cluster.Node, dur *durable.Store) (storage.Storage, error) {
	tier, err := storage.Build(storage.Config{
		RemoteDir:   c.RemoteDir,
		CacheDir:    c.CacheDir(),
		CacheBudget: c.LFCBudgetMiB << 20,
	}, dur)
	if tier == nil || err != nil {
		return nil, err
	}
	node.SetTier(tier, c.DemoteAfter)
	fmt.Printf("%s: %s storage tier at %s (lfc %s, budget %d MiB, demote after %s)\n",
		c.Daemon, c.StorageMode(), c.RemoteDir, c.CacheDir(), c.LFCBudgetMiB, c.DemoteAfter)
	return tier, nil
}

// ServeDebug serves pprof, reg and tracer on -debug-addr, if set.
func (c *Config) ServeDebug(reg *obsv.Registry, tracer *obsv.Tracer) {
	if c.DebugAddr == "" {
		return
	}
	fmt.Printf("%s: debug listener (pprof, metrics, traces) on %s\n", c.Daemon, c.DebugAddr)
	go func() {
		log.Printf("%s: debug listener: %v", c.Daemon, http.ListenAndServe(c.DebugAddr, obsv.DebugMux(reg, tracer)))
	}()
}

// Link connects the daemon to its peers of one kind, named what in
// messages: it dials every address in the comma-separated list with dial
// and, when listen is set, accepts inbound links there from a background
// loop. attach receives each link.
func (c *Config) Link(what, list, listen string, dial func(addr string) (transport.Conn, error), attach func(transport.Conn)) error {
	for _, addr := range strings.Split(list, ",") {
		if addr = strings.TrimSpace(addr); addr == "" {
			continue
		}
		conn, err := dial(addr)
		if err != nil {
			return fmt.Errorf("dial %s %s: %w", what, addr, err)
		}
		attach(conn)
		fmt.Printf("%s: connected to %s %s\n", c.Daemon, what, addr)
	}
	if listen == "" {
		return nil
	}
	l, err := transport.Listen(listen)
	if err != nil {
		return err
	}
	fmt.Printf("%s: accepting %ss on %s\n", c.Daemon, what, l.Addr())
	go func() {
		log.Printf("%s: %s accept loop: %v", c.Daemon, what, transport.Serve(l, attach))
	}()
	return nil
}
