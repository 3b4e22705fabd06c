package storage

import (
	"container/list"
	"context"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"fixgo/internal/core"
)

// LFC is a bounded local file cache fronting a slower backing tier,
// modeled on page-server local file caches: one flat file per cached
// object, LRU eviction by byte budget, fills via temp file plus atomic
// rename. Reopening an LFC over a populated directory rebuilds the index
// from the files on disk, so a restarted node starts warm.
//
// LFC passes writes through to the backing tier synchronously before
// caching them, so a cache entry always implies the backing tier holds
// the object — the cache can be deleted wholesale at any time.
type LFC struct {
	dir     string
	budget  int64
	backing Storage

	mu      sync.Mutex
	entries map[core.Handle]*list.Element
	lru     *list.List // front = most recently used; values are *lfcEntry
	bytes   int64

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

type lfcEntry struct {
	h    core.Handle
	size int64
}

// NewLFC opens a file cache rooted at dir with the given byte budget,
// fronting backing. Files already present in dir (a previous run's cache)
// are adopted into the index — the warm-restart path — and trimmed to the
// budget. A budget of zero or less disables caching entirely: every
// operation passes straight through to backing.
func NewLFC(dir string, budget int64, backing Storage) (*LFC, error) {
	c := &LFC{
		dir:     dir,
		budget:  budget,
		backing: backing,
		entries: make(map[core.Handle]*list.Element),
		lru:     list.New(),
	}
	if budget <= 0 {
		return c, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, de := range des {
		if de.IsDir() {
			continue
		}
		h, err := core.ParseHandle(de.Name())
		if err != nil {
			// A temp file from an interrupted fill, or foreign debris.
			os.Remove(filepath.Join(dir, de.Name()))
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		c.insert(h, info.Size())
	}
	c.mu.Lock()
	c.evictOverBudgetLocked()
	c.mu.Unlock()
	return c, nil
}

func (c *LFC) path(h core.Handle) string {
	return filepath.Join(c.dir, core.FormatHandle(h))
}

// insert adds h to the index unless already present.
func (c *LFC) insert(h core.Handle, size int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[h]; ok {
		return
	}
	c.entries[h] = c.lru.PushFront(&lfcEntry{h: h, size: size})
	c.bytes += size
}

// evictOverBudgetLocked removes least-recently-used entries (and their
// files) until the resident volume fits the budget. Caller holds c.mu.
func (c *LFC) evictOverBudgetLocked() {
	for c.bytes > c.budget {
		el := c.lru.Back()
		if el == nil {
			return
		}
		ent := el.Value.(*lfcEntry)
		c.lru.Remove(el)
		delete(c.entries, ent.h)
		c.bytes -= ent.size
		os.Remove(c.path(ent.h))
		c.evictions.Add(1)
	}
}

// fill writes data into the cache for h (temp file + atomic rename) and
// charges it to the budget, evicting older entries as needed. Objects
// larger than the whole budget are not cached.
func (c *LFC) fill(h core.Handle, data []byte) {
	if c.budget <= 0 || int64(len(data)) > c.budget {
		return
	}
	c.mu.Lock()
	_, present := c.entries[h]
	c.mu.Unlock()
	if present {
		return
	}
	if err := writeAtomic(c.dir, c.path(h), data); err != nil {
		return
	}
	c.mu.Lock()
	if _, ok := c.entries[h]; !ok {
		c.entries[h] = c.lru.PushFront(&lfcEntry{h: h, size: int64(len(data))})
		c.bytes += int64(len(data))
		c.evictOverBudgetLocked()
	}
	c.mu.Unlock()
}

// Get serves h from the cache when resident, otherwise fetches from the
// backing tier and fills the cache.
func (c *LFC) Get(ctx context.Context, h core.Handle) ([]byte, error) {
	c.mu.Lock()
	el, ok := c.entries[h]
	if ok {
		c.lru.MoveToFront(el)
	}
	c.mu.Unlock()
	if ok {
		data, err := os.ReadFile(c.path(h))
		if err == nil && matches(h, data) {
			c.hits.Add(1)
			return data, nil
		}
		// The file vanished underneath the index (external cleanup) or
		// no longer holds h's bytes (a torn or corrupted file); drop the
		// entry and the file, and fall through to the backing tier.
		c.mu.Lock()
		if el, ok := c.entries[h]; ok {
			c.lru.Remove(el)
			delete(c.entries, h)
			c.bytes -= el.Value.(*lfcEntry).size
			os.Remove(c.path(h))
		}
		c.mu.Unlock()
	}
	c.misses.Add(1)
	data, err := c.backing.Get(ctx, h)
	if err != nil {
		return nil, err
	}
	c.fill(h, data)
	return data, nil
}

// matches reports whether data are the bytes of the object h names.
func matches(h core.Handle, data []byte) bool {
	if h.Kind() != core.KindTree {
		return core.BlobHandle(data) == h.AsObject()
	}
	entries, err := core.TreeView(data)
	return err == nil && core.TreeHandle(entries) == h.AsObject()
}

// Put writes through to the backing tier, then fills the cache so an
// immediate read-back hits locally.
func (c *LFC) Put(ctx context.Context, h core.Handle, data []byte) error {
	if h.IsLiteral() {
		return nil
	}
	if err := c.backing.Put(ctx, h, data); err != nil {
		return err
	}
	c.fill(h, data)
	return nil
}

// StorageStats merges the backing tier's counters under the cache's own.
func (c *LFC) StorageStats() Stats {
	c.mu.Lock()
	bytes := c.bytes
	c.mu.Unlock()
	st := Stats{
		LFCHits:      c.hits.Load(),
		LFCMisses:    c.misses.Load(),
		LFCEvictions: c.evictions.Load(),
		LFCBytes:     uint64(bytes),
	}
	if c.budget > 0 {
		st.LFCBudget = uint64(c.budget)
	}
	st.Add(c.backing.StorageStats())
	return st
}
