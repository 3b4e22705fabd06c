package wiki

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"fixgo/internal/core"
	"fixgo/internal/runtime"
	"fixgo/internal/store"
)

func TestChunkDeterministic(t *testing.T) {
	a := Chunk(7, 4096, "fix", 512)
	b := Chunk(7, 4096, "fix", 512)
	if !bytes.Equal(a, b) {
		t.Fatal("chunks not deterministic")
	}
	c := Chunk(8, 4096, "fix", 512)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds should differ")
	}
	if len(a) != 4096 {
		t.Fatalf("len = %d", len(a))
	}
}

func TestCountNonOverlapping(t *testing.T) {
	cases := []struct {
		data, needle string
		want         uint64
	}{
		{"aaaa", "aa", 2},
		{"abcabcabc", "abc", 3},
		{"", "x", 0},
		{"xyz", "", 0},
		{"hello", "world", 0},
	}
	for _, c := range cases {
		if got := CountNonOverlapping([]byte(c.data), []byte(c.needle)); got != c.want {
			t.Errorf("count(%q,%q) = %d, want %d", c.data, c.needle, got, c.want)
		}
	}
}

// naiveCount is the reference CountNonOverlapping is checked against: a
// byte-by-byte scan that shares no search code with it.
func naiveCount(data, needle []byte) uint64 {
	m := len(needle)
	if m == 0 {
		return 0
	}
	var n uint64
	for i := 0; i+m <= len(data); {
		k := 0
		for k < m && data[i+k] == needle[k] {
			k++
		}
		if k == m {
			n++
			i += m
		} else {
			i++
		}
	}
	return n
}

func checkCount(t *testing.T, what string, data, needle []byte) {
	t.Helper()
	if got, want := CountNonOverlapping(data, needle), naiveCount(data, needle); got != want {
		t.Fatalf("%s: count(len %d, needle %.40q) = %d, want %d", what, len(data), needle, got, want)
	}
}

// TestCountMatchesNaive checks the adaptive kernel against naiveCount on
// seeded inputs chosen to drive both of its searches and every switch
// between them.
func TestCountMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	lengths := []int{1, 2, 3, 31, 32, 100}
	// needle is a copy of data at a random offset half the time, so long
	// needles match too, and random bytes of alphabet otherwise.
	needle := func(data []byte, m int, alphabet string) []byte {
		if len(data) >= m && rng.Intn(2) == 0 {
			off := rng.Intn(len(data) - m + 1)
			return bytes.Clone(data[off : off+m])
		}
		b := make([]byte, m)
		for k := range b {
			b[k] = alphabet[rng.Intn(len(alphabet))]
		}
		return b
	}

	t.Run("small_alphabets", func(t *testing.T) {
		// Dense false positives and self-overlapping needles.
		for _, alphabet := range []string{"ab", "abc", "abcd"} {
			for trial := 0; trial < 60; trial++ {
				data := make([]byte, rng.Intn(3*blockBytes))
				for k := range data {
					data[k] = alphabet[rng.Intn(len(alphabet))]
				}
				for _, m := range lengths {
					checkCount(t, alphabet, data, needle(data, m, alphabet))
				}
			}
		}
	})

	t.Run("chunk_text", func(t *testing.T) {
		const letters = "abcdefghijklmnopqrstuvwxyz \n"
		for seed := int64(0); seed < 16; seed++ {
			data := Chunk(seed, 64<<10, "", 0)
			for _, m := range lengths {
				checkCount(t, "chunk", data, needle(data, m, letters))
			}
		}
	})

	t.Run("self_overlap", func(t *testing.T) {
		run := bytes.Repeat([]byte("a"), 3*blockBytes+7)
		for _, m := range lengths {
			checkCount(t, "run of a", run, run[:m])
		}
		checkCount(t, "aa", []byte("aaaaa"), []byte("aa"))
		checkCount(t, "aba", []byte("ababababa"), []byte("aba"))
	})

	t.Run("empty", func(t *testing.T) {
		checkCount(t, "empty data", nil, []byte("abc"))
		checkCount(t, "empty needle", []byte("abc"), nil)
		checkCount(t, "both empty", nil, nil)
	})

	t.Run("straddling", func(t *testing.T) {
		// One match planted at every offset near the start (the probe and
		// the first windows) and around the end of the first block, over
		// text whose first byte recurs every few bytes so the windows are
		// in use. The needle holds a byte the text lacks, so the planted
		// copy is the only match.
		base := make([]byte, blockBytes+8*windowBytes)
		for k := range base {
			base[k] = "abcd"[rng.Intn(4)]
		}
		for _, nd := range []string{"a#", "a#c", "a#" + strings.Repeat("b", maxWindowNeedle-2)} {
			data := bytes.Clone(base)
			for p := 0; p+len(nd) <= len(data); p++ {
				if p == 16*windowBytes {
					p = blockBytes - 16*windowBytes
				}
				saved := bytes.Clone(data[p : p+len(nd)])
				copy(data[p:], nd)
				if got := CountNonOverlapping(data, []byte(nd)); got != 1 {
					t.Fatalf("needle %q planted at %d: count = %d, want 1", nd, p, got)
				}
				copy(data[p:], saved)
			}
		}
	})
}

func FuzzCountNonOverlapping(f *testing.F) {
	f.Add([]byte("aaaaa"), []byte("aa"))
	f.Add([]byte("ababababa"), []byte("aba"))
	f.Add(Chunk(1, 4096, "qqz", 300), []byte("qqz"))
	f.Add(bytes.Repeat([]byte("ab"), 2*windowBytes), []byte("abab"))
	f.Fuzz(func(t *testing.T, data, needle []byte) {
		checkCount(t, "fuzz", data, needle)
	})
}

var countSink uint64

func TestAllocsCountNonOverlapping(t *testing.T) {
	data := Chunk(5, 64<<10, "", 0)
	for _, s := range []string{"a", "the", "Fix", strings.Repeat("e", 40)} {
		nd := []byte(s)
		if a := testing.AllocsPerRun(20, func() { countSink = CountNonOverlapping(data, nd) }); a != 0 {
			t.Errorf("CountNonOverlapping(%q) allocates %.1f times, want 0", nd, a)
		}
	}
}

// BenchmarkCountNonOverlapping scans 1 MiB of Chunk text for a 3-letter
// needle (text), whose first byte recurs every ~33 bytes, and for one
// whose first byte never occurs (absent_first_byte). It also scans 1 MiB
// of seeded "abcd" text, where the first byte recurs every ~4 bytes, for
// a 3-letter needle that matches every ~64 bytes (small_alphabet) and for
// one that never matches (small_alphabet_absent).
func BenchmarkCountNonOverlapping(b *testing.B) {
	text := Chunk(1, 1<<20, "", 0)
	small := make([]byte, 1<<20)
	rng := rand.New(rand.NewSource(4))
	for k := range small {
		small[k] = "abcd"[rng.Intn(4)]
	}
	for _, bc := range []struct {
		name, needle string
		data         []byte
	}{
		{"text", "fix", text},
		{"absent_first_byte", "Fix", text},
		{"small_alphabet", "abc", small},
		{"small_alphabet_absent", "abe", small},
	} {
		needle := []byte(bc.needle)
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(bc.data)))
			for b.Loop() {
				countSink = CountNonOverlapping(bc.data, needle)
			}
		})
	}
}

func TestChunkPlantsNeedle(t *testing.T) {
	data := Chunk(3, 8192, "zzq", 1024)
	n := CountNonOverlapping(data, []byte("zzq"))
	if n < 6 || n > 10 {
		t.Fatalf("planted count = %d, want ≈ 8", n)
	}
}

func TestMapReduceJobEndToEnd(t *testing.T) {
	reg := runtime.NewRegistry()
	Register(reg, Config{})
	st := store.New()
	e := runtime.New(st, runtime.Options{Cores: 4, Registry: reg})

	const needle = "qqz"
	var want uint64
	var chunks []core.Handle
	for i := 0; i < 7; i++ {
		data := Chunk(int64(i), 8192, needle, 700)
		want += CountNonOverlapping(data, []byte(needle))
		chunks = append(chunks, st.PutBlob(data))
	}
	job, err := BuildJob(st, needle, chunks)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.EvalBlob(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := core.DecodeU64(out)
	if got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	// 7 count tasks + 6 merges.
	if n := e.Stats().Usage(0).Tasks; n != 13 {
		t.Fatalf("tasks = %d, want 13", n)
	}
}

// TestAllocsProcedures pins what one warm invocation of each procedure
// allocates: at most its API, which is carved from a slab shared by 32
// invocations, so the whole-number count reads 0. count-string's needle
// and merge-counts' arguments are literals, which AttachBlob lends, and
// each returns its literal result without CreateBlob.
func TestAllocsProcedures(t *testing.T) {
	const runs = 200
	reg := runtime.NewRegistry()
	Register(reg, Config{})
	st := store.New()
	e := runtime.New(st, runtime.Options{Cores: 1, Registry: reg})
	lim := core.DefaultLimits.Handle()
	chunkData := Chunk(1, 1024, "fix", 64)
	chunk := st.PutBlob(chunkData)
	app := func(fn []byte, a, b core.Handle) core.Handle {
		tree, err := st.PutTree(core.InvocationTree(lim, st.PutBlob(fn), a, b))
		if err != nil {
			t.Fatal(err)
		}
		th, err := core.Application(tree)
		if err != nil {
			t.Fatal(err)
		}
		return th
	}
	counts := make([]core.Handle, runs+2)
	countWant := make([]core.Handle, runs+2)
	merges := make([]core.Handle, runs+2)
	for i := range counts {
		needle := fmt.Sprintf("f%d", i) // distinct, so never memoized
		counts[i] = app(countFnBlob, chunk, st.PutBlob([]byte(needle)))
		countWant[i] = core.LiteralU64(CountNonOverlapping(chunkData, []byte(needle)))
		merges[i] = app(mergeFnBlob, core.LiteralU64(uint64(i)), core.LiteralU64(7))
	}
	ctx := context.Background()
	for _, p := range []struct {
		name string
		apps []core.Handle
		want func(i int) core.Handle
	}{
		{CountProcName, counts, func(i int) core.Handle { return countWant[i] }},
		{MergeProcName, merges, func(i int) core.Handle { return core.LiteralU64(uint64(i) + 7) }},
	} {
		next := 0
		eval := func() {
			got, err := e.Eval(ctx, p.apps[next])
			if err != nil || got != p.want(next) {
				t.Fatalf("%s run %d = %v, %v, want %v", p.name, next, got, err, p.want(next))
			}
			next++
		}
		eval() // load the procedure
		if allocs := testing.AllocsPerRun(runs, eval); allocs > 1 {
			t.Errorf("one warm %s invocation allocates %v times, want at most 1 (its API)", p.name, allocs)
		}
	}
}

// TestLiteralResultIsPutBlob: a procedure returning a literal Handle
// gives the result Handle CreateBlob of its bytes would have given.
func TestLiteralResultIsPutBlob(t *testing.T) {
	st := store.New()
	for _, n := range []uint64{0, 1, 7, 255, 256, 1 << 16, 1<<32 - 1, 1 << 32, 1<<63 + 5, ^uint64(0)} {
		if lit, put := core.LiteralU64(n), st.PutBlob(core.LiteralU64(n).LiteralData()); lit != put {
			t.Errorf("LiteralU64(%d) = %v, PutBlob of its bytes = %v", n, lit, put)
		}
	}
}

func TestBuildJobEmpty(t *testing.T) {
	if _, err := BuildJob(store.New(), "x", nil); err == nil {
		t.Fatal("expected error for zero chunks")
	}
}

// TestAllocsBuildJob pins what assembling a 16-chunk job allocates. Of
// its own it allocates a constant 3: the entry buffer every PutTree is
// handed, the reduction's level slice, and the needle's bytes. So a job
// whose 31 invocation Trees are all resident allocates 3, and a fresh one
// adds the store's slabs its Trees are carved from (31 five-entry slots
// fill 1.55 full slabs) and the growth of the store's maps. A stored Tree
// is a copy, not an allocation.
func TestAllocsBuildJob(t *testing.T) {
	const runs, constant, slabs, mapGrowth = 100, 3, 2, 4
	st := store.New()
	chunks := make([]core.Handle, 16)
	for i := range chunks {
		chunks[i] = st.PutBlob(Chunk(int64(i), 1024, "fix", 64))
	}
	needles := make([]string, runs+2)
	for i := range needles {
		needles[i] = fmt.Sprintf("needle-%d", i)
	}
	next := 0
	build := func() {
		if _, err := BuildJob(st, needles[next%len(needles)], chunks); err != nil {
			t.Fatal(err)
		}
		next++
	}
	if fresh := testing.AllocsPerRun(runs, build); fresh > constant+slabs+mapGrowth {
		t.Errorf("BuildJob of 16 fresh chunks allocates %v times, want ≤ %d (%d + %d slabs + map growth)", fresh, constant+slabs+mapGrowth, constant, slabs)
	}
	next = 0 // the same jobs again: every Tree is resident
	if resident := testing.AllocsPerRun(runs, build); resident > constant {
		t.Errorf("BuildJob of 16 resident chunks allocates %v times, want ≤ %d", resident, constant)
	}
}
