package main

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// opTimeout is the deadline every op carries: a hang in the program
// under test (ROADMAP item 1's delegation deadlock) shows as a failed
// op, never as a stuck run.
const opTimeout = 5 * time.Second

// opFunc performs op number i of the seeded request list on client
// worker w and checks its output; any error counts the op as failed.
type opFunc func(ctx context.Context, w int, i uint64) error

// loadGen drives one system with nproc client workers. next numbers the
// ops across every phase of a run, so no phase replays another's
// requests.
type loadGen struct {
	nproc int
	op    opFunc
	next  atomic.Uint64
	lat   [][]int64 // per-worker latency buffers, reused across phases
}

func newLoadGen(nproc int, op opFunc) *loadGen {
	return &loadGen{nproc: nproc, op: op, lat: make([][]int64, nproc)}
}

// reserve sizes the latency buffers before a timed phase so that
// recording a sample does not allocate inside it.
func (g *loadGen) reserve(perWorker int) {
	for w := range g.lat {
		if cap(g.lat[w]) < perWorker {
			g.lat[w] = make([]int64, 0, perWorker)
		}
	}
}

// phase is what one timed stretch of load measured.
type phase struct {
	attempted int64
	failed    int64
	wall      time.Duration
	cpu       time.Duration // process user+sys
	mallocs   uint64
	bytes     uint64
	lat       []int64 // sorted, ns, successful ops only
	lag       []int64 // sorted, ns; open loop only: actual − intended send
	firstErr  error
}

func (p *phase) ok() int64 { return p.attempted - p.failed }

// resources snapshots what the per-op cost metrics are deltas of.
type resources struct {
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func readResources() resources {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return resources{
		cpu:     cpuTime(),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
	}
}

// run starts one goroutine per client worker, waits for all of them and
// gathers what they measured.
func (g *loadGen) run(body func(w int) tally) phase {
	for w := range g.lat {
		g.lat[w] = g.lat[w][:0]
	}
	var (
		mu sync.Mutex
		p  phase
		wg sync.WaitGroup
	)
	before := readResources()
	start := time.Now()
	for w := 0; w < g.nproc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t := body(w)
			mu.Lock()
			p.attempted += t.attempted
			p.failed += t.failed
			if p.firstErr == nil {
				p.firstErr = t.first
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	p.wall = time.Since(start)
	after := readResources()
	p.cpu = after.cpu - before.cpu
	p.mallocs = after.mallocs - before.mallocs
	p.bytes = after.bytes - before.bytes
	for _, l := range g.lat {
		p.lat = append(p.lat, l...)
	}
	sortInt64(p.lat)
	return p
}

// tally is one worker's count of a phase's ops.
type tally struct {
	attempted, failed int64
	first             error
}

// send performs op i on worker w under the per-op deadline and counts it;
// it reports how long the op took and whether it succeeded.
func (g *loadGen) send(t *tally, w int, i uint64) (time.Duration, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	t0 := time.Now()
	err := g.op(ctx, w, i)
	took := time.Since(t0)
	cancel()
	t.attempted++
	if err != nil {
		t.failed++
		if t.first == nil {
			t.first = err
		}
	}
	return took, err == nil
}

// closed runs a closed loop over the next n ops of the request list:
// each worker sends its next request only after the previous one
// completed, as a library caller or an SDK client waiting for its reply
// does.
func (g *loadGen) closed(n uint64) phase {
	base := g.next.Load()
	var taken atomic.Uint64
	p := g.run(func(w int) (t tally) {
		for {
			k := taken.Add(1) - 1
			if k >= n {
				return
			}
			if took, ok := g.send(&t, w, base+k); ok {
				g.lat[w] = append(g.lat[w], int64(took))
			}
		}
	})
	g.next.Store(base + n)
	return p
}

// poissonSchedule draws the intended send offsets of an open loop at
// rate requests per second over d, from its own seeded stream.
func poissonSchedule(seed int64, rate float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	at := 0.0
	for {
		at += rng.ExpFloat64() / rate
		off := time.Duration(at * float64(time.Second))
		if off >= d {
			return out
		}
		out = append(out, off)
	}
}

// open runs an open loop over sched: requests fall due on the schedule
// whatever the system's speed, due requests queue here and are drained by
// the same nproc workers, and latency is measured from the intended send
// time, so a stall is charged to every request it delayed.
func (g *loadGen) open(sched []time.Duration) phase {
	lags := make([][]int64, g.nproc)
	for w := range lags {
		lags[w] = make([]int64, 0, len(sched))
	}
	// Buffered to the number of sends, so the pacer never waits for a
	// worker: the queue of due requests is this channel.
	due := make(chan int, len(sched))
	start := time.Now()
	go pace(start, sched, due)
	p := g.run(func(w int) (t tally) {
		for k := range due {
			intended := start.Add(sched[k])
			lag := time.Since(intended)
			lags[w] = append(lags[w], int64(lag))
			if took, ok := g.send(&t, w, g.next.Add(1)-1); ok {
				g.lat[w] = append(g.lat[w], int64(lag+took))
			}
		}
		return
	})
	for _, l := range lags {
		p.lag = append(p.lag, l...)
	}
	sortInt64(p.lag)
	return p
}

// pace releases request k on due at start+sched[k] and closes due after
// the last one.
func pace(start time.Time, sched []time.Duration, due chan<- int) {
	defer close(due)
	// Neither time.Sleep nor spinning will do. An idle Go scheduler waits
	// in epoll, whose timeout counts in milliseconds, so a short Sleep
	// overshoots by up to 1 ms; goroutines that yield in a loop keep every
	// P busy, so the network is then polled only by the monitor thread,
	// milliseconds late. A thread of its own in nanosleep wakes within
	// ~20 us and leaves the Ps to the program.
	preciseSleepInit()
	for k, off := range sched {
		if d := time.Until(start.Add(off)); d > 0 {
			preciseSleep(d)
		}
		due <- k
	}
}

func sortInt64(s []int64) { sort.Slice(s, func(i, j int) bool { return s[i] < s[j] }) }

// quantile reads the q-quantile (nearest rank) of sorted; 0 when empty.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// iqrShare is the distance between the first and third quartile as a
// share of the median (the spread measure the acceptance rule uses).
func iqrShare(vals []float64) float64 {
	if len(vals) < 4 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	// The same quartiles as Python's statistics.quantiles(n=4).
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		lo := int(pos)
		if lo < 1 {
			return s[0]
		}
		if lo >= len(s) {
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (at(0.75) - at(0.25)) / m
}
