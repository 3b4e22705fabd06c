package wiki

import (
	"bytes"
	"context"
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

func TestBuildJobEmpty(t *testing.T) {
	if _, err := BuildJob(store.New(), "x", nil); err == nil {
		t.Fatal("expected error for zero chunks")
	}
}
