// Package wiki provides the count-string workload of the paper's
// section 5.3.2: counting non-overlapping occurrences of a short string
// across a sharded text corpus in map-reduce style, with count-string
// invoked per chunk and merge-counts in a binary reduction.
//
// Substitution (ARCHITECTURE.md §Substitutions): instead of the 96 GiB
// English Wikipedia dump, Chunk generates deterministic pseudo-text with
// the needle planted at a seeded rate; chunk sizes are scaled down and
// the full-scale compute cost is modeled by an optional per-byte work
// factor in the count procedure. The scan itself is real work, done by
// one adaptive kernel, CountNonOverlapping, which every caller shares:
// the registered count-string procedure, the figure harness's baselines
// and the checks of expected counts.
package wiki

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"fixgo/internal/core"
	"fixgo/internal/runtime"
)

// Chunk generates size bytes of deterministic pseudo-text for shard seed,
// planting needle roughly every plantEvery bytes (0 disables planting).
func Chunk(seed int64, size int, needle string, plantEvery int) []byte {
	rng := rand.New(rand.NewSource(seed*2654435761 + 1))
	const letters = "abcdefghijklmnopqrstuvwxyz      \n"
	out := make([]byte, 0, size)
	next := plantEvery
	for len(out) < size {
		if plantEvery > 0 && len(out) >= next && len(out)+len(needle) <= size {
			out = append(out, needle...)
			next += plantEvery
			continue
		}
		out = append(out, letters[rng.Intn(len(letters))])
	}
	return out[:size]
}

// The constants of CountNonOverlapping's adaptive search. The hop and
// block constants were measured with BenchmarkCountNonOverlapping alone,
// on a 2-core amd64 (AVX2) host. They only choose between two exact
// searches, so results are the same on every architecture; only speed
// depends on them.
//
// Every caller scans Chunk text, where each of its 33 symbols recurs
// about every 33 bytes, so in practice the windows do the work. The hop
// side exists only so that a needle whose first byte is rare or absent
// keeps the speed of a plain bytes.Index loop; no benchmark workload has
// such a needle, so retuning these constants needs one first. One input
// is known to be slower than that loop: a first byte every few bytes with
// rare matches (BenchmarkCountNonOverlapping/small_alphabet_absent), where
// bytes.Index's own cutover scans the rest in one brute-force call.
const (
	// windowBytes is the longest haystack bytes.Index hands straight to
	// the standard library's SIMD brute-force body on amd64
	// (bytealg.MaxBruteForce); on a longer one it hops with IndexByte.
	windowBytes = 64
	// maxWindowNeedle is the longest needle that body takes on every amd64
	// (bytealg.MaxLen is 31 without AVX2, 63 with it). Longer needles keep
	// the plain bytes.Index loop.
	maxWindowNeedle = 31
	// After probeHops first-byte hops averaging under shortHop bytes, the
	// windows are faster than hopping: one IndexByte call per short hop
	// costs more than brute force over the same bytes. Both searches ran
	// at about 4 GB/s at a mean hop of 100 bytes, the measured crossover;
	// Chunk text hops about every 33 bytes (1.9 GB/s hopping).
	probeHops = 8
	shortHop  = 100
	// blockBytes is how far the windows run before hopping is probed
	// again, so that a stretch where the first byte turns rare is skipped
	// at IndexByte speed. At 16 KiB the probes are under 2 % of a dense
	// scan; 4 KiB and 64 KiB measured the same.
	blockBytes = 16 << 10
)

// CountNonOverlapping counts non-overlapping occurrences of needle,
// leftmost first, exactly as repeated bytes.Index calls would. It does
// not allocate.
//
// It hops with bytes.IndexByte to each occurrence of needle's first byte
// while those hops are long, which skips text where that byte is rare at
// memory speed. When the hops it observes are short, as for a common
// letter in prose, it searches the next blockBytes in windowBytes windows
// instead, where bytes.Index runs brute force without hopping.
func CountNonOverlapping(data, needle []byte) uint64 {
	m := len(needle)
	switch {
	case m == 0:
		return 0
	case m > maxWindowNeedle:
		var n uint64
		for {
			i := bytes.Index(data, needle)
			if i < 0 {
				return n
			}
			n++
			data = data[i+m:]
		}
	}
	var n uint64
	first, last := needle[0], len(data)-m
	// i is the first position a match may start at; probe is where the
	// current run of hops began.
	i, probe, hops := 0, 0, 0
	for i <= last {
		j := bytes.IndexByte(data[i:last+1], first)
		if j < 0 {
			return n
		}
		i += j
		if bytes.Equal(data[i:i+m], needle) {
			n++
			i += m
		} else {
			i++
		}
		if hops++; hops < probeHops {
			continue
		}
		if i-probe < probeHops*shortHop {
			for end := min(i+blockBytes, len(data)); i < end && i <= last; {
				w := data[i:min(i+windowBytes, len(data))]
				if j := bytes.Index(w, needle); j >= 0 {
					n++
					i += j + m
				} else {
					// No match starts in w; the next window overlaps
					// this one by m-1 bytes.
					i += len(w) - m + 1
				}
			}
		}
		probe, hops = i, 0
	}
	return n
}

// Config tunes the registered procedures.
type Config struct {
	// ComputePerByte models the full-scale scan cost per input byte
	// (the real chunks are scaled down ~400×; this restores the
	// compute-to-transfer ratio). Zero means no modeled work.
	ComputePerByte time.Duration
}

// CountProcName and MergeProcName are the registry names.
const (
	CountProcName = "wiki/count-string"
	MergeProcName = "wiki/merge-counts"
)

// Register installs count-string and merge-counts in a registry.
//
// count-string: [limits, fn, chunk, needle] → count Blob.
// merge-counts: [limits, fn, a, b] → sum Blob.
func Register(reg *runtime.Registry, cfg Config) {
	reg.RegisterFunc(CountProcName, func(api core.API, input core.Handle) (core.Handle, error) {
		entries, err := api.AttachTree(input)
		if err != nil {
			return core.Handle{}, err
		}
		if len(entries) != 4 {
			return core.Handle{}, fmt.Errorf("count-string: want 4 entries, got %d", len(entries))
		}
		chunk, err := api.AttachBlob(entries[2])
		if err != nil {
			return core.Handle{}, err
		}
		needle, err := api.AttachBlob(entries[3])
		if err != nil {
			return core.Handle{}, err
		}
		n := CountNonOverlapping(chunk, needle)
		if cfg.ComputePerByte > 0 {
			time.Sleep(time.Duration(len(chunk)) * cfg.ComputePerByte)
		}
		return api.CreateBlob(core.LiteralU64(n).LiteralData()), nil
	})
	reg.RegisterFunc(MergeProcName, func(api core.API, input core.Handle) (core.Handle, error) {
		entries, err := api.AttachTree(input)
		if err != nil {
			return core.Handle{}, err
		}
		var total uint64
		for _, arg := range entries[2:] {
			raw, err := api.AttachBlob(arg)
			if err != nil {
				return core.Handle{}, err
			}
			v, err := core.DecodeU64(raw)
			if err != nil {
				return core.Handle{}, err
			}
			total += v
		}
		return api.CreateBlob(core.LiteralU64(total).LiteralData()), nil
	})
}

// BuildJob assembles the full map-reduce dataflow as one Fix object: a
// count-string Application per chunk, combined by a binary reduction of
// merge-counts Applications, returned as the top-level Strict Encode.
// Evaluating the returned handle anywhere in a cluster runs the whole job.
func BuildJob(st core.Store, needle string, chunks []core.Handle) (core.Handle, error) {
	if len(chunks) == 0 {
		return core.Handle{}, fmt.Errorf("wiki: no chunks")
	}
	lim := core.DefaultLimits.Handle()
	countFn := st.PutBlob(core.NativeFunctionBlob(CountProcName))
	mergeFn := st.PutBlob(core.NativeFunctionBlob(MergeProcName))
	needleH := st.PutBlob([]byte(needle))

	level := make([]core.Handle, 0, len(chunks))
	for _, c := range chunks {
		tree, err := st.PutTree(core.InvocationTree(lim, countFn, c, needleH))
		if err != nil {
			return core.Handle{}, err
		}
		th, err := core.Application(tree)
		if err != nil {
			return core.Handle{}, err
		}
		enc, err := core.Strict(th)
		if err != nil {
			return core.Handle{}, err
		}
		level = append(level, enc)
	}
	for len(level) > 1 {
		next := make([]core.Handle, 0, (len(level)+1)/2)
		for i := 0; i+1 < len(level); i += 2 {
			tree, err := st.PutTree(core.InvocationTree(lim, mergeFn, level[i], level[i+1]))
			if err != nil {
				return core.Handle{}, err
			}
			th, err := core.Application(tree)
			if err != nil {
				return core.Handle{}, err
			}
			enc, err := core.Strict(th)
			if err != nil {
				return core.Handle{}, err
			}
			next = append(next, enc)
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	return level[0], nil
}
