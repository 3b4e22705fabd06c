package bench

import (
	"bytes"
	"context"
	"testing"
	"time"

	"fixgo/internal/baselines/raysim"
	"fixgo/internal/bptree"
)

func rayTestData(n int) ([]string, [][]byte) {
	keys := bptree.GenTitles(n)
	values := make([][]byte, n)
	for i, k := range keys {
		values[i] = []byte("value-of-" + k)
	}
	return keys, values
}

func newRayCluster(t *testing.T) *raysim.Cluster {
	t.Helper()
	c := raysim.NewCluster(raysim.Options{Nodes: 1, CoresPerNode: 1,
		TaskOverhead: 10 * time.Microsecond, GetOverhead: time.Microsecond})
	t.Cleanup(c.Close)
	registerRay(c)
	return c
}

func TestRayBlockingTraversal(t *testing.T) {
	c := newRayCluster(t)
	keys, values := rayTestData(300)
	root, err := buildRay(c, 0, 8, keys, values)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < len(keys); i += 41 {
		got, err := getRayBlocking(ctx, c, root, keys[i])
		if err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
		if !bytes.Equal(got, values[i]) {
			t.Fatalf("key %d mismatch", i)
		}
	}
}

func TestRayCPSTraversal(t *testing.T) {
	c := newRayCluster(t)
	keys, values := rayTestData(300)
	root, err := buildRay(c, 0, 8, keys, values)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < len(keys); i += 41 {
		got, err := getRayCPS(ctx, c, root, keys[i])
		if err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
		if !bytes.Equal(got, values[i]) {
			t.Fatalf("key %d mismatch", i)
		}
	}
}

func TestRayCPSUsesMoreInvocations(t *testing.T) {
	c := newRayCluster(t)
	keys, values := rayTestData(256)
	root, err := buildRay(c, 0, 4, keys, values)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := getRayBlocking(ctx, c, root, keys[100]); err != nil {
		t.Fatal(err)
	}
	tasks, _ := c.Stats()
	blocking := tasks[0]
	if _, err := getRayCPS(ctx, c, root, keys[100]); err != nil {
		t.Fatal(err)
	}
	tasks, _ = c.Stats()
	cps := tasks[0] - blocking
	if blocking != 1 {
		t.Fatalf("blocking used %d invocations, want 1", blocking)
	}
	if cps < 2*int64(root.Depth) {
		t.Fatalf("cps used %d invocations, want ≥ 2×depth (%d)", cps, 2*root.Depth)
	}
}
