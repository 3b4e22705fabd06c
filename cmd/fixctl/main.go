// Command fixctl is a Fixpoint client: it connects to a node, uploads
// objects, and evaluates Fix computations there.
//
// Usage:
//
//	fixctl -connect host:7600 add 40 2        # strict(application(add))
//	fixctl -connect host:7600 fib 20          # recursive codelet
//	fixctl -connect host:7600 chain 500       # Fig 7b chain of inc
//	fixctl -connect host:7600 put file.bin    # upload a blob to the node, print handle
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"fixgo/internal/cluster"
	"fixgo/internal/codelet"
	"fixgo/internal/core"
	"fixgo/internal/transport"
)

func main() {
	connect := flag.String("connect", "127.0.0.1:7600", "fixpoint node address")
	timeout := flag.Duration("timeout", 60*time.Second, "evaluation or upload timeout")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: fixctl [-connect addr] add|fib|chain|put args...")
		os.Exit(2)
	}

	opts := cluster.NodeOptions{Cores: 1, ClientOnly: true}
	if flag.Arg(0) == "put" {
		// A second replica: the upload pushes a copy to the node, whose
		// ack the client waits for (the client's own copy ends with it).
		opts.Replicas = 2
	}
	client := cluster.NewNode("fixctl", opts)
	conn, err := transport.Dial(*connect)
	if err != nil {
		fatal(err)
	}
	client.AttachPeer(conn)
	// Give the hello exchange a moment.
	deadline := time.Now().Add(5 * time.Second)
	for len(client.Peers()) == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if len(client.Peers()) == 0 {
		fatal(fmt.Errorf("no hello from %s", *connect))
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	st := client.Store()
	lim := core.DefaultLimits.Handle()

	switch flag.Arg(0) {
	case "add":
		a, b := argU64(1), argU64(2)
		fn := st.PutBlob(codelet.AddFunctionBlob())
		tree, err := st.PutTree(core.InvocationTree(lim, fn, core.LiteralU64(a), core.LiteralU64(b)))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%d\n", evalU64(ctx, client, tree))
	case "fib":
		n := argU64(1)
		fib := st.PutBlob(codelet.FibFunctionBlob())
		add := st.PutBlob(codelet.AddFunctionBlob())
		tree, err := st.PutTree([]core.Handle{lim, fib, add, core.LiteralU64(n)})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%d\n", evalU64(ctx, client, tree))
	case "chain":
		n := int(argU64(1))
		inc := st.PutBlob(codelet.IncFunctionBlob())
		arg := core.LiteralU64(0)
		for i := 0; i < n; i++ {
			tree, err := st.PutTree([]core.Handle{lim, inc, arg})
			if err != nil {
				fatal(err)
			}
			th, _ := core.Application(tree)
			arg, _ = core.Strict(th)
		}
		start := time.Now()
		out, err := client.EvalBlob(ctx, arg)
		if err != nil {
			fatal(err)
		}
		v, _ := core.DecodeU64(out)
		fmt.Printf("%d (in %v)\n", v, time.Since(start).Round(time.Microsecond))
	case "put":
		data, err := os.ReadFile(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		h := client.PutBlobOwned(core.BlobHandle(data), data)
		for !h.IsLiteral() && client.ReplicaCount(h) < 2 {
			if ctx.Err() != nil {
				fatal(fmt.Errorf("no node acknowledged %v within %v", h, *timeout))
			}
			time.Sleep(10 * time.Millisecond)
		}
		fmt.Printf("%v\n", h)
	default:
		fatal(fmt.Errorf("unknown command %q", flag.Arg(0)))
	}
}

func evalU64(ctx context.Context, client *cluster.Node, tree core.Handle) uint64 {
	th, err := core.Application(tree)
	if err != nil {
		fatal(err)
	}
	enc, err := core.Strict(th)
	if err != nil {
		fatal(err)
	}
	out, err := client.EvalBlob(ctx, enc)
	if err != nil {
		fatal(err)
	}
	v, err := core.DecodeU64(out)
	if err != nil {
		fatal(err)
	}
	return v
}

func argU64(i int) uint64 {
	v, err := strconv.ParseUint(flag.Arg(i), 10, 64)
	if err != nil {
		fatal(fmt.Errorf("argument %d: %v", i, err))
	}
	return v
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fixctl:", err)
	os.Exit(1)
}
