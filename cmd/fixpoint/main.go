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

	"fixgo/internal/cluster"
	"fixgo/internal/daemon"
	"fixgo/internal/durable"
	"fixgo/internal/transport"
)

func main() {
	cfg := daemon.MustParse(daemon.Fixpoint)
	node := cfg.NewNode()

	remote, err := cfg.AttachTier(node)
	cfg.Check(err)
	dur, err := cfg.AttachDurable(node.Store(), remote, nil)
	cfg.Check(err)

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
	// On SIGINT or SIGTERM: stop accepting, close the node, then the
	// durable store.
	closers := []func() error{l.Close, func() error { node.Close(); return nil }}
	if dur != nil {
		closers = append(closers, dur.Close)
	}
	cfg.Run(func() error { return transport.Serve(l, node.AttachPeer) }, closers...)
}
