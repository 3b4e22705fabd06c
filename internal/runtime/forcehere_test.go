package runtime

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fixgo/internal/codelet"
	"fixgo/internal/core"
)

// delegatorFunc is a Delegator made of its Offload.
type delegatorFunc func(ctx context.Context, enc core.Handle) (core.Handle, bool, error)

func (f delegatorFunc) Offload(ctx context.Context, enc core.Handle) (core.Handle, bool, error) {
	return f(ctx, enc)
}

// TestForceHereOffersOnlyChildren: ForceHere never offers the Encode it
// forces to the Delegator, but the Encodes its evaluation forces are
// offered as usual. Its result is memoized like any force's.
func TestForceHereOffersOnlyChildren(t *testing.T) {
	var mu sync.Mutex
	var offered []core.Handle
	e, st := newTestEngine(t, Options{Delegator: delegatorFunc(func(_ context.Context, enc core.Handle) (core.Handle, bool, error) {
		mu.Lock()
		defer mu.Unlock()
		offered = append(offered, enc)
		return core.Handle{}, false, nil
	})})
	add := codelet.AddFunctionBlob()
	child := strictApp(t, st, add, core.LiteralU64(1), core.LiteralU64(2))
	parent := strictApp(t, st, add, child, core.LiteralU64(4))
	res, err := e.ForceHere(context.Background(), parent)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := core.DecodeU64(res.LiteralData()); !res.IsLiteral() || got != 7 {
		t.Fatalf("ForceHere(add(add(1, 2), 4)) = %v, want 7", res)
	}
	if got := evalU64(t, e, parent); got != 7 {
		t.Fatalf("Eval after ForceHere = %d, want 7", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(offered, []core.Handle{child}) {
		t.Fatalf("offered %v, want only the child %v", offered, child)
	}
}

// TestForceHereSkipsParkedLeader: while this engine's force of enc is
// parked inside Offload, as one delegating enc to the node that asked
// this one to force it would be, ForceHere(enc) does not join it and
// returns enc's result. The parked leader then completes as well.
func TestForceHereSkipsParkedLeader(t *testing.T) {
	var offers atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	e, st := newTestEngine(t, Options{Delegator: delegatorFunc(func(context.Context, core.Handle) (core.Handle, bool, error) {
		if offers.Add(1) == 1 {
			close(entered)
			<-release
		}
		return core.Handle{}, false, nil
	})})
	enc := strictApp(t, st, codelet.AddFunctionBlob(), core.LiteralU64(40), core.LiteralU64(2))
	leader := make(chan error, 1)
	go func() { _, err := e.Eval(context.Background(), enc); leader <- err }()
	<-entered
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := e.ForceHere(ctx, enc)
	if err != nil {
		t.Fatalf("ForceHere beside a parked leader: %v", err)
	}
	if got, _ := core.DecodeU64(res.LiteralData()); !res.IsLiteral() || got != 42 {
		t.Fatalf("ForceHere(add(40, 2)) = %v, want 42", res)
	}
	close(release)
	if err := <-leader; err != nil {
		t.Fatalf("leader: %v", err)
	}
	if n := offers.Load(); n != 1 {
		t.Fatalf("the Encode was offered %d times, want once, by its leader", n)
	}
}
