package cluster

import (
	"bytes"
	"context"
	"testing"
	"time"

	"fixgo/internal/core"
	"fixgo/internal/obsv"
)

// TestDelegationTracePropagation delegates a job from a client-only node
// and checks both ends of the trace: the client's trace collects
// placement, delegate, and remote_eval spans (the last from the Result
// header's EvalNS), and the worker's own tracer records the job under
// the same trace ID.
func TestDelegationTracePropagation(t *testing.T) {
	workerTracer := obsv.NewTracer(16, nil)
	client := NewNode("client", NodeOptions{Cores: 2, ClientOnly: true, Registry: countRegistry()})
	worker := NewNode("worker", NodeOptions{Cores: 2, Registry: countRegistry()})
	worker.SetTracer(workerTracer)
	defer client.Close()
	defer worker.Close()
	Connect(client, worker, fastLink())

	blob := client.PutBlob(bytes.Repeat([]byte{9}, 128))
	enc := lenJob(t, client, blob)

	clientTracer := obsv.NewTracer(16, nil)
	tc := clientTracer.Start("sync")
	ctx := obsv.WithTrace(context.Background(), tc)
	got, err := client.EvalBlob(ctx, enc)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := core.DecodeU64(got); v != 128 {
		t.Fatalf("len = %d", v)
	}
	clientTracer.Finish(tc)

	v, ok := clientTracer.Get(tc.ID)
	if !ok {
		t.Fatal("client trace not retained")
	}
	spans := map[string]obsv.SpanView{}
	for _, sp := range v.Spans {
		spans[sp.Name] = sp
	}
	for _, want := range []string{"placement", "delegate", "remote_eval"} {
		sp, ok := spans[want]
		if !ok {
			t.Fatalf("trace missing %q span; have %+v", want, v.Spans)
		}
		if sp.DurNS <= 0 {
			t.Fatalf("span %q has non-positive duration %d", want, sp.DurNS)
		}
	}
	if spans["delegate"].Node != "worker" || spans["remote_eval"].Node != "worker" {
		t.Fatalf("delegation spans not attributed to the worker: %+v", v.Spans)
	}
	if spans["remote_eval"].DurNS > spans["delegate"].DurNS {
		t.Fatal("remote eval cannot exceed the delegate round trip")
	}

	// The worker recorded the delegated job under the propagated ID.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if wv, ok := workerTracer.Get(tc.ID); ok {
			if len(wv.Spans) == 0 || wv.Spans[0].Name != "eval" {
				t.Fatalf("worker trace malformed: %+v", wv)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never recorded the propagated trace")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDelegationWithoutTraceIsZeroCost checks the nil path: no trace in
// the context means no Trace header on the wire and no spans anywhere.
func TestDelegationWithoutTraceIsZeroCost(t *testing.T) {
	workerTracer := obsv.NewTracer(16, nil)
	client := NewNode("c2", NodeOptions{Cores: 2, ClientOnly: true, Registry: countRegistry()})
	worker := NewNode("w2", NodeOptions{Cores: 2, Registry: countRegistry()})
	worker.SetTracer(workerTracer)
	defer client.Close()
	defer worker.Close()
	Connect(client, worker, fastLink())

	blob := client.PutBlob(bytes.Repeat([]byte{3}, 64))
	enc := lenJob(t, client, blob)
	if _, err := client.EvalBlob(context.Background(), enc); err != nil {
		t.Fatal(err)
	}
	if d := workerTracer.Slowest(10); d.Retained != 0 {
		t.Fatalf("worker recorded %d traces for an untraced job", d.Retained)
	}
}
