package durable_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"fixgo/internal/core"
	"fixgo/internal/durable"
	"fixgo/internal/gateway"
	"fixgo/internal/runtime"
	"fixgo/internal/store"
)

// The acceptance pin for the durable subsystem: a fixgate-style process
// restarted against the same -data-dir must serve a previously evaluated
// thunk from the recovered memo journal WITHOUT re-executing it. The
// restored memo table in the backend's store is the answer's one home
// after a restart; the gateway's result cache starts empty and fills on
// the first repeat. This test replays exactly the wiring cmd/fixgate
// does.

// gateProcess is one "process incarnation": engine + gateway over a
// durable data-dir, sharing the execution counter across restarts.
type gateProcess struct {
	d   *durable.Store
	srv *gateway.Server
	ts  *httptest.Server
}

func bootGateProcess(t *testing.T, dir string, execs *atomic.Int64) *gateProcess {
	t.Helper()
	reg := runtime.NewRegistry()
	reg.RegisterFunc("count", func(api core.API, input core.Handle) (core.Handle, error) {
		execs.Add(1)
		entries, err := api.AttachTree(input)
		if err != nil {
			return core.Handle{}, err
		}
		b, err := api.AttachBlob(entries[2])
		if err != nil {
			return core.Handle{}, err
		}
		return api.CreateBlob(append([]byte("counted:"), b...)), nil
	})
	st := store.New()
	// cmd/fixgate boot order: restore the durable image, then attach the
	// write-through persister.
	d, _, err := durable.Attach(dir, durable.Options{Fsync: durable.FsyncAlways}, st)
	if err != nil {
		t.Fatal(err)
	}
	eng := runtime.New(st, runtime.Options{Cores: 2, MemoryBytes: 1 << 30, Registry: reg})
	srv, err := gateway.NewServer(gateway.Options{
		Backend:      gateway.NewEngineBackend(eng),
		CacheEntries: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &gateProcess{d: d, srv: srv, ts: httptest.NewServer(srv.Handler())}
}

func (p *gateProcess) stop(t *testing.T) {
	t.Helper()
	p.ts.Close()
	if err := p.d.Close(); err != nil {
		t.Fatal(err)
	}
}

func submit(t *testing.T, baseURL string, job core.Handle) gateway.JobReply {
	t.Helper()
	body, _ := json.Marshal(gateway.JobRequest{Handle: core.FormatHandle(job), IncludeData: true})
	resp, err := http.Post(baseURL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	var reply gateway.JobReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	return reply
}

func TestGatewayRestartServesRecoveredThunk(t *testing.T) {
	dir := t.TempDir()
	var execs atomic.Int64
	ctx := context.Background()

	// First incarnation: upload the job and evaluate it once.
	p1 := bootGateProcess(t, dir, &execs)
	c := gateway.NewClient(p1.ts.URL)
	fn, err := c.PutBlob(ctx, core.NativeFunctionBlob("count"))
	if err != nil {
		t.Fatal(err)
	}
	arg, err := c.PutBlob(ctx, bytes.Repeat([]byte("payload"), 16))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := c.PutTree(ctx, core.InvocationTree(core.DefaultLimits.Handle(), fn, arg))
	if err != nil {
		t.Fatal(err)
	}
	thunk, err := core.Application(tree)
	if err != nil {
		t.Fatal(err)
	}
	first := submit(t, p1.ts.URL, thunk)
	if execs.Load() != 1 {
		t.Fatalf("first submission executed %d times, want 1", execs.Load())
	}
	if first.Outcome != string(gateway.OutcomeMiss) {
		t.Fatalf("first outcome = %s, want miss", first.Outcome)
	}
	p1.stop(t)

	// Second incarnation on the same data-dir: the thunk must be served
	// from recovered state, not re-executed.
	p2 := bootGateProcess(t, dir, &execs)
	defer p2.stop(t)
	second := submit(t, p2.ts.URL, thunk)
	if execs.Load() != 1 {
		t.Fatalf("restarted gateway re-executed the thunk (%d executions)", execs.Load())
	}
	// The first repeat leads a flight that the restored memo answers; the
	// one after it is a gateway-cache hit.
	if second.Outcome != string(gateway.OutcomeMiss) {
		t.Fatalf("first post-restart outcome = %s, want miss (a flight the memo answers)", second.Outcome)
	}
	if second.Result != first.Result {
		t.Fatalf("result drifted across restart: %s → %s", first.Result, second.Result)
	}
	if !bytes.Equal(second.Data, first.Data) {
		t.Fatal("result bytes drifted across restart")
	}
	third := submit(t, p2.ts.URL, thunk)
	if execs.Load() != 1 {
		t.Fatalf("restarted gateway re-executed the thunk (%d executions)", execs.Load())
	}
	if third.Outcome != string(gateway.OutcomeHit) || third.Result != first.Result {
		t.Fatalf("second post-restart repeat = %s %s, want hit %s", third.Outcome, third.Result, first.Result)
	}
}

// TestEngineRestartServesRecoveredMemo pins the same property one layer
// down (a fixpoint worker, no gateway cache): a fresh engine over a
// restored store answers a previously forced Encode from the memo table.
func TestEngineRestartServesRecoveredMemo(t *testing.T) {
	dir := t.TempDir()
	var execs atomic.Int64
	newEngine := func() (*runtime.Engine, *durable.Store) {
		reg := runtime.NewRegistry()
		reg.RegisterFunc("count", func(api core.API, input core.Handle) (core.Handle, error) {
			execs.Add(1)
			return api.CreateBlob([]byte("done-and-large-enough-to-not-be-literal")), nil
		})
		st := store.New()
		d, _, err := durable.Attach(dir, durable.Options{Fsync: durable.FsyncAlways}, st)
		if err != nil {
			t.Fatal(err)
		}
		return runtime.New(st, runtime.Options{Cores: 1, MemoryBytes: 1 << 30, Registry: reg}), d
	}

	eng1, d1 := newEngine()
	st1 := eng1.Store()
	fn := st1.PutBlob(core.NativeFunctionBlob("count"))
	tree, err := st1.PutTree(core.InvocationTree(core.DefaultLimits.Handle(), fn))
	if err != nil {
		t.Fatal(err)
	}
	thunk, _ := core.Application(tree)
	r1, err := eng1.Eval(context.Background(), thunk)
	if err != nil {
		t.Fatal(err)
	}
	if execs.Load() != 1 {
		t.Fatalf("executions = %d, want 1", execs.Load())
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	eng2, d2 := newEngine()
	defer d2.Close()
	r2, err := eng2.Eval(context.Background(), thunk)
	if err != nil {
		t.Fatal(err)
	}
	if execs.Load() != 1 {
		t.Fatalf("restarted engine re-executed (%d executions)", execs.Load())
	}
	if r2 != r1 {
		t.Fatalf("result drifted across restart: %v → %v", r1, r2)
	}
}
