package bptree

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"testing/quick"

	"fixgo/internal/core"
	"fixgo/internal/runtime"
	"fixgo/internal/store"
)

func testData(n int) ([]string, [][]byte) {
	keys := GenTitles(n)
	values := make([][]byte, n)
	for i, k := range keys {
		values[i] = []byte("value-of-" + k)
	}
	return keys, values
}

func TestKeysBlobRoundTrip(t *testing.T) {
	f := func(leaf bool, raw [][]byte) bool {
		keys := make([]string, len(raw))
		for i, r := range raw {
			if len(r) > 1000 {
				r = r[:1000]
			}
			keys[i] = string(r)
		}
		gotLeaf, gotKeys, err := DecodeKeys(EncodeKeys(leaf, keys))
		if err != nil || gotLeaf != leaf || len(gotKeys) != len(keys) {
			return false
		}
		for i := range keys {
			if gotKeys[i] != keys[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeKeysErrors(t *testing.T) {
	for _, bad := range [][]byte{nil, {1}, {1, 5, 0, 0, 0}, EncodeKeys(true, []string{"abc"})[:6]} {
		if _, _, err := DecodeKeys(bad); err == nil {
			t.Errorf("DecodeKeys(%v) should fail", bad)
		}
	}
}

func TestBuildAndDirectGet(t *testing.T) {
	for _, arity := range []int{2, 4, 16, 64} {
		st := store.New()
		keys, values := testData(200)
		root, err := Build(st, arity, keys, values)
		if err != nil {
			t.Fatalf("arity %d: %v", arity, err)
		}
		for i := 0; i < len(keys); i += 17 {
			got, err := GetDirect(st, root, keys[i])
			if err != nil {
				t.Fatalf("arity %d key %d: %v", arity, i, err)
			}
			if !bytes.Equal(got, values[i]) {
				t.Fatalf("arity %d key %d: value mismatch", arity, i)
			}
		}
		if _, err := GetDirect(st, root, "zzzz-no-such-key"); err == nil {
			t.Fatal("expected not-found")
		}
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	st := store.New()
	if _, err := Build(st, 1, []string{"a"}, [][]byte{{1}}); err == nil {
		t.Fatal("arity 1 should fail")
	}
	if _, err := Build(st, 4, []string{"b", "a"}, [][]byte{{1}, {2}}); err == nil {
		t.Fatal("unsorted keys should fail")
	}
	if _, err := Build(st, 4, nil, nil); err == nil {
		t.Fatal("empty input should fail")
	}
}

func TestDepth(t *testing.T) {
	st := store.New()
	keys, values := testData(64)
	root, err := Build(st, 4, keys, values)
	if err != nil {
		t.Fatal(err)
	}
	if root.Depth != 3 { // 64 keys / 4 = 16 leaves / 4 = 4 / 4 = 1: 3 levels
		t.Fatalf("depth = %d, want 3", root.Depth)
	}
}

func TestFixTraversal(t *testing.T) {
	reg := runtime.NewRegistry()
	Register(reg)
	st := store.New()
	e := runtime.New(st, runtime.Options{Cores: 2, Registry: reg})
	keys, values := testData(300)
	root, err := Build(st, 8, keys, values)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(keys); i += 37 {
		job, err := GetJob(st, root, keys[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.EvalBlob(context.Background(), job)
		if err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
		if !bytes.Equal(got, values[i]) {
			t.Fatalf("key %d: got %q want %q", i, got, values[i])
		}
	}
}

func TestFixTraversalMissingKey(t *testing.T) {
	reg := runtime.NewRegistry()
	Register(reg)
	st := store.New()
	e := runtime.New(st, runtime.Options{Cores: 2, Registry: reg})
	keys, values := testData(50)
	root, _ := Build(st, 4, keys, values)
	job, _ := GetJob(st, root, "title-999999999999-zzzz")
	if _, err := e.EvalBlob(context.Background(), job); err == nil {
		t.Fatal("expected not-found error")
	}
}

func TestFixTraversalMinimalFootprint(t *testing.T) {
	// The traversal must fetch only the nodes on the root-to-leaf path:
	// with a remote fetcher, the number of fetched trees is ≤ depth and
	// far below the total node count.
	reg := runtime.NewRegistry()
	Register(reg)

	// Build in a "remote" store, then serve it to an empty engine.
	remote := store.New()
	keys, values := testData(4096)
	root, err := Build(remote, 16, keys, values)
	if err != nil {
		t.Fatal(err)
	}
	var fetches int
	st := store.New()
	e := runtime.New(st, runtime.Options{Cores: 2, Registry: reg,
		Fetcher: runtime.FetcherFunc(func(ctx context.Context, h core.Handle) ([]byte, error) {
			fetches++
			return remote.ObjectBytes(h)
		})})
	job, err := GetJob(st, root, keys[1234])
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.EvalBlob(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, values[1234]) {
		t.Fatal("value mismatch")
	}
	// depth = ceil(log16(4096/16 leaves=256))… = 3 levels; per level ~2
	// objects (keys blob + node tree) plus the value: allow slack but
	// require far fewer fetches than the ~560 objects in the tree.
	if fetches > 4*root.Depth+4 {
		t.Fatalf("fetched %d objects for one lookup at depth %d", fetches, root.Depth)
	}
}

func TestGenTitles(t *testing.T) {
	titles := GenTitles(1000)
	if len(titles) != 1000 {
		t.Fatal("count")
	}
	seen := map[string]bool{}
	var total int
	for _, s := range titles {
		if seen[s] {
			t.Fatalf("duplicate title %q", s)
		}
		seen[s] = true
		total += len(s)
	}
	avg := total / len(titles)
	if avg < 18 || avg > 26 {
		t.Fatalf("average title length = %d, want ≈ 22", avg)
	}
	fmt.Println() // keep fmt imported
}
