// Command fixpoint runs a Fixpoint node: a runtime for programs expressed
// in the Fix ABI that accepts peers and clients (cmd/fixctl) over TCP.
//
//	fixpoint -listen :7600 -id node-a
//	fixpoint -listen :7601 -id node-b -peers host-a:7600
//	fixpoint -listen :7600 -data-dir /var/lib/fixpoint -remote-dir /mnt/bucket
//
// Nodes exchange object advertisements on connect and thereafter delegate
// jobs by data locality. -replicas R ≥ 2 keeps every object on R ring
// successors, -data-dir makes objects and memoized results survive a
// restart, -remote-dir spills cold objects to a storage tier. Flags are
// bound in internal/daemon and tabulated in README.md §Running a
// deployment; OPERATIONS.md is the runbook.
package main

import (
	"fmt"
	"log"

	"fixgo/internal/cluster"
	"fixgo/internal/daemon"
	"fixgo/internal/durable"
	"fixgo/internal/transport"
)

func main() {
	cfg := daemon.MustParse(daemon.Fixpoint)
	node := cfg.NewNode()

	dur, err := cfg.AttachDurable(node.Store(), nil)
	cfg.Check(err)
	if dur != nil {
		defer dur.Close()
	}
	tier, err := cfg.AttachTier(node, dur)
	cfg.Check(err)
	if tier != nil {
		defer tier.Close()
	}

	// The metrics registry and trace ring exist regardless of
	// -debug-addr: delegated jobs still record under the gateway's
	// propagated trace IDs, and the debug listener is just a window onto
	// them.
	var durableStats func() durable.Stats
	if dur != nil {
		durableStats = dur.Stats
	}
	reg, tracer := cluster.NewNodeMetrics(node, durableStats)
	node.SetTracer(tracer)
	cfg.ServeDebug(reg, tracer)

	cfg.Check(cfg.Link("peer", cfg.Peers, "", transport.Dial, node.AttachPeer))
	l, err := transport.Listen(cfg.Listen)
	cfg.Check(err)
	fmt.Printf("fixpoint: node %s listening on %s (%d cores, %d GiB)\n", cfg.ID, l.Addr(), cfg.Cores, cfg.MemGiB)
	log.Printf("fixpoint: accept: %v", transport.Serve(l, node.AttachPeer))
}
