package storage

import (
	"context"

	"fixgo/internal/core"
	"fixgo/internal/durable"
)

// Hybrid is the tier over the node's durable pack files and a remote
// tier: Put lands in the packs, then in the remote, and returns only
// once both hold the object; Get reads the pack index first and falls
// back to the remote (when the remote is LFC-fronted, that is the
// paper-style packs → LFC → remote chain). The remote write is what
// lets the demotion pass evict a hot copy: pack GC may later reclaim
// the object from the packs, but never from the remote.
type Hybrid struct {
	packs  *durable.Store
	remote Storage
}

// NewHybrid builds a hybrid tier over an attached durable store and a
// remote tier. The caller keeps ownership of the durable store's
// lifecycle.
func NewHybrid(packs *durable.Store, remote Storage) *Hybrid {
	return &Hybrid{packs: packs, remote: remote}
}

// Get reads h from the packs, falling back to the remote tier when the
// pack index does not hold it.
func (hy *Hybrid) Get(ctx context.Context, h core.Handle) ([]byte, error) {
	if hy.packs.Contains(h) {
		return hy.packs.ReadObject(h)
	}
	return hy.remote.Get(ctx, h)
}

// Put appends h to the packs (a no-op when the index already holds it),
// then writes it to the remote tier.
func (hy *Hybrid) Put(ctx context.Context, h core.Handle, data []byte) error {
	if h.IsLiteral() {
		return nil
	}
	if err := hy.persist(h, data); err != nil {
		return err
	}
	return hy.remote.Put(ctx, h, data)
}

// persist appends the object to the pack files in the record form its
// kind takes there.
func (hy *Hybrid) persist(h core.Handle, data []byte) error {
	if h.Kind() != core.KindTree {
		return hy.packs.PersistBlob(h, data)
	}
	entries, err := core.DecodeTree(data)
	if err != nil {
		return err
	}
	return hy.packs.PersistTree(h, entries)
}

// StorageStats reports the remote side's counters; the packs report
// theirs through durable.Stats.
func (hy *Hybrid) StorageStats() Stats { return hy.remote.StorageStats() }
