package store

import (
	"sync"

	"fixgo/internal/core"
	"fixgo/internal/proto"
)

// Dep is one data object a job's execution needs resident: its Object
// Handle and the bytes moving it costs (a Tree costs its packed entries).
type Dep struct {
	Handle core.Handle
	Size   uint64
}

// Closure is the definition closure of a job: every data object that
// running it here or anywhere needs, each listed before the objects it
// names. Deps doubles as the visited set while the closure is small (the
// common case: an invocation tree, a function and a few arguments); seen
// takes over once scanning Deps would cost more than a map.
type Closure struct {
	Deps []Dep
	st   *Store
	seen map[core.Handle]struct{}
}

// depScanMax is the closure size up to which a Closure scans Deps.
const depScanMax = 16

// Bounds of the closure pool: how many idle closures it keeps, and the
// largest Deps slice it keeps for reuse.
const (
	maxIdleClosures = 64
	maxPooledDeps   = 4096
)

// closures is the pool of idle Closures, last-in first-out like
// runtime.Go's parked workers. A sync.Pool would do, except that it drops
// Puts at random under the race detector, and then placement allocates.
var closures struct {
	sync.Mutex
	idle []*Closure
}

// Closure walks the definition closure of an Encode's Thunk. It lists
// the objects named by resident Trees, resident or not, and does not
// descend into Trees it does not hold; Refs are shallow and not listed.
// It returns nil when enc is not an Encode or its definition is not
// resident. The caller calls Release once done with Deps.
func (s *Store) Closure(enc core.Handle) *Closure {
	if enc.RefKind() != core.RefEncode {
		return nil
	}
	def := enc.StorageKey()
	if !s.Contains(def) {
		return nil
	}
	closures.Lock()
	var c *Closure
	if k := len(closures.idle); k > 0 {
		c = closures.idle[k-1]
		closures.idle = closures.idle[:k-1]
	}
	closures.Unlock()
	if c == nil {
		c = &Closure{Deps: make([]Dep, 0, 8)}
	}
	c.st = s
	c.walk(def)
	return c
}

// Release returns c to the pool. Neither c nor its Deps may be used after.
func (c *Closure) Release() {
	if cap(c.Deps) > maxPooledDeps {
		return
	}
	c.st = nil // an idle closure must not pin a store
	c.Deps = c.Deps[:0]
	clear(c.seen)
	closures.Lock()
	if len(closures.idle) < maxIdleClosures {
		closures.idle = append(closures.idle, c)
	}
	closures.Unlock()
}

func (c *Closure) walk(h core.Handle) {
	switch h.RefKind() {
	case core.RefThunk, core.RefEncode:
		// The deferred computation's definition is itself a
		// dependency of running the job here or anywhere.
		c.walk(h.StorageKey())
	case core.RefObject:
		k := h.AsObject()
		if k.IsLiteral() || !c.firstVisit(k) {
			return
		}
		size := k.Size()
		if k.Kind() == core.KindTree {
			size *= core.HandleSize
		}
		c.Deps = append(c.Deps, Dep{Handle: k, Size: size})
		if k.Kind() == core.KindTree && c.st.Contains(k) {
			if children, err := c.st.Tree(k); err == nil {
				for _, child := range children {
					c.walk(child)
				}
			}
		}
	}
}

// firstVisit reports whether k has not been collected yet. The caller
// appends k to Deps when it has not.
func (c *Closure) firstVisit(k core.Handle) bool {
	// An empty seen means the map has not taken over in this walk; a
	// pooled closure keeps the cleared map of an earlier one.
	if len(c.seen) == 0 && len(c.Deps) < depScanMax {
		for i := range c.Deps {
			if c.Deps[i].Handle == k {
				return false
			}
		}
		return true
	}
	if len(c.seen) == 0 {
		if c.seen == nil {
			c.seen = make(map[core.Handle]struct{}, 4*depScanMax)
		}
		for i := range c.Deps {
			c.seen[c.Deps[i].Handle] = struct{}{}
		}
	}
	if _, ok := c.seen[k]; ok {
		return false
	}
	c.seen[k] = struct{}{}
	return true
}

// Bounds of a job payload: what one edge-log entry carries at most.
const (
	payloadMaxObjects = 1024
	payloadMaxBytes   = 4 << 20
)

// JobPayload returns the resident objects of enc's definition closure with
// their bytes, in Closure order, up to 1024 objects and 4 MiB. An object
// that would pass the byte budget is skipped, and later objects that fit
// are still taken. It is what a gateway replicates with an accepted job,
// so a peer adopting the job holds the data its handle names.
func (s *Store) JobPayload(enc core.Handle) []proto.PushedObject {
	c := s.Closure(enc)
	if c == nil {
		return nil
	}
	defer c.Release()
	out := make([]proto.PushedObject, 0, len(c.Deps))
	total := 0
	for _, d := range c.Deps {
		if len(out) >= payloadMaxObjects {
			break
		}
		data, err := s.ObjectBytes(d.Handle)
		if err != nil || total+len(data) > payloadMaxBytes {
			continue
		}
		out = append(out, proto.PushedObject{Handle: d.Handle, Data: data})
		total += len(data)
	}
	return out
}
