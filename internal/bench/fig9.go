package bench

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	"fixgo/internal/baselines/raysim"
	"fixgo/internal/bptree"
	"fixgo/internal/runtime"
	"fixgo/internal/store"
)

// Fig9 measures B+-tree lookups versus tree arity (section 5.4, Fig. 9
// and Table 2): Fixpoint benefits from finer-grained nodes (smaller
// footprint, cheap Selections) while Ray's continuation-passing style is
// penalized by per-invocation overhead and its blocking style by in-task
// gets. One node, one worker, data colocated — as in the paper.
func Fig9(s Scale) (Result, error) {
	res := Result{ID: "fig9", Title: fmt.Sprintf("B+-tree lookup vs arity (%d entries, %d queries)", s.BTreeEntries, s.BTreeQueries)}

	keys := bptree.GenTitles(s.BTreeEntries)
	values := make([][]byte, len(keys))
	for i, k := range keys {
		values[i] = []byte("value-" + k)
	}
	rng := rand.New(rand.NewSource(99))
	queryIdx := make([]int, s.BTreeQueries)
	for i := range queryIdx {
		queryIdx[i] = rng.Intn(len(keys))
	}

	// The paper's headline comparison is at arity 256 (Fix 0.14 s, Ray
	// blocking 2.8 s, Ray CPS 5.74 s).
	paperAt := map[int][3]time.Duration{
		256: {140 * time.Millisecond, 2800 * time.Millisecond, 5740 * time.Millisecond},
	}

	for _, arity := range s.BTreeArities {
		fixDur, depth, err := fig9Fix(s, arity, keys, values, queryIdx)
		if err != nil {
			return res, fmt.Errorf("arity %d fix: %w", arity, err)
		}
		blockDur, err := fig9Ray(s, arity, keys, values, queryIdx, false)
		if err != nil {
			return res, fmt.Errorf("arity %d ray blocking: %w", arity, err)
		}
		cpsDur, err := fig9Ray(s, arity, keys, values, queryIdx, true)
		if err != nil {
			return res, fmt.Errorf("arity %d ray cps: %w", arity, err)
		}
		var paper [3]time.Duration
		if p, ok := paperAt[arity]; ok {
			paper = p
		}
		detail := fmt.Sprintf("depth=%d", depth)
		res.Rows = append(res.Rows,
			Row{System: fmt.Sprintf("Fixpoint (arity %d)", arity), Measured: fixDur, Paper: paper[0], Detail: detail},
			Row{System: fmt.Sprintf("Ray blocking (arity %d)", arity), Measured: blockDur, Paper: paper[1]},
			Row{System: fmt.Sprintf("Ray CPS (arity %d)", arity), Measured: cpsDur, Paper: paper[2]},
		)
	}
	res.Notes = append(res.Notes,
		"Table 2: Fixpoint touches d invocations and a·O(key) data per query; Ray CPS 2d invocations; Ray blocking 1 invocation but a^d·O(key+entry) footprint",
		"paper reference numbers are for arity 256 with 6M entries; vs-fix ratios compare within each arity")
	return res, nil
}

func fig9Fix(s Scale, arity int, keys []string, values [][]byte, queryIdx []int) (time.Duration, int, error) {
	reg := runtime.NewRegistry()
	bptree.Register(reg)
	st := store.New()
	e := runtime.New(st, runtime.Options{Cores: 1, Registry: reg})
	root, err := bptree.Build(st, arity, keys, values)
	if err != nil {
		return 0, 0, err
	}
	ctx := context.Background()
	// Warm one lookup (function registration path), distinct key.
	warmJob, err := bptree.GetJob(st, root, keys[0])
	if err != nil {
		return 0, 0, err
	}
	if _, err := e.EvalBlob(ctx, warmJob); err != nil {
		return 0, 0, err
	}
	start := time.Now()
	for _, qi := range queryIdx {
		job, err := bptree.GetJob(st, root, keys[qi])
		if err != nil {
			return 0, 0, err
		}
		got, err := e.EvalBlob(ctx, job)
		if err != nil {
			return 0, 0, err
		}
		if !bytes.Equal(got, values[qi]) {
			return 0, 0, fmt.Errorf("wrong value for key %q", keys[qi])
		}
	}
	return time.Since(start), root.Depth, nil
}

func fig9Ray(s Scale, arity int, keys []string, values [][]byte, queryIdx []int, cps bool) (time.Duration, error) {
	c := raysim.NewCluster(raysim.Options{Nodes: 1, CoresPerNode: 1, Seed: 5})
	defer c.Close()
	registerRay(c)
	root, err := buildRay(c, 0, arity, keys, values)
	if err != nil {
		return 0, err
	}
	ctx := context.Background()
	get := getRayBlocking
	if cps {
		get = getRayCPS
	}
	if _, err := get(ctx, c, root, keys[0]); err != nil {
		return 0, err
	}
	start := time.Now()
	for _, qi := range queryIdx {
		got, err := get(ctx, c, root, keys[qi])
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(got, values[qi]) {
			return 0, fmt.Errorf("wrong value for key %q", keys[qi])
		}
	}
	return time.Since(start), nil
}
