package storage

import (
	"context"

	"fixgo/internal/core"
	"fixgo/internal/durable"
)

// Local is the Storage view of the node's durable pack files. Writes are
// idempotent pack appends; reads come straight from the pack index. Local
// has no Delete — pack reclamation belongs to durable's size-budgeted GC,
// whose liveness hook already drops objects evicted from the hot store.
type Local struct {
	d *durable.Store
}

// NewLocal wraps an attached durable store. The caller keeps ownership of
// the store's lifecycle; Close on the returned tier is a no-op.
func NewLocal(d *durable.Store) *Local { return &Local{d: d} }

// Get returns the packed object bytes for h.
func (l *Local) Get(ctx context.Context, h core.Handle) ([]byte, error) {
	if !l.d.Contains(h) {
		return nil, &NotFoundError{Handle: h, Tier: "local"}
	}
	return l.d.ReadObject(h)
}

// Put appends the object to the pack files (a no-op when the index
// already holds it).
func (l *Local) Put(ctx context.Context, h core.Handle, data []byte) error {
	if h.IsLiteral() {
		return nil
	}
	if h.Kind() == core.KindTree {
		entries, err := core.DecodeTree(data)
		if err != nil {
			return err
		}
		return l.d.PersistTree(h, entries)
	}
	return l.d.PersistBlob(h, data)
}

// Has reports whether the pack index holds h.
func (l *Local) Has(ctx context.Context, h core.Handle) (bool, error) {
	return l.d.Contains(h), nil
}

// Delete is a no-op: pack space is reclaimed by durable's GC, not by
// per-object deletes.
func (l *Local) Delete(ctx context.Context, h core.Handle) error { return nil }

// Close is a no-op; the durable store's lifecycle is owned by the caller
// that attached it.
func (l *Local) Close() error { return nil }
