package runtime

import (
	"fmt"

	"fixgo/internal/core"
)

// applyAPI is the enforcing Fixpoint API handed to a running procedure. It
// implements the minimum-repository discipline of section 3.3: the
// procedure starts holding only its resolved input Tree; recursively
// mapping Trees grants their entries; values the procedure creates are
// granted; nothing else is reachable. Attaching a Ref fails — but Refs can
// be wrapped in new Thunks and Encodes, which is how a procedure requests
// that Fixpoint perform I/O on behalf of a *child* invocation.
//
// An applyAPI is used by a single invocation on a single goroutine;
// procedures run to completion without blocking, so no locking is needed.
// It is made fresh for every invocation and never pooled: a procedure may
// keep its API after it returns, and a shared one would let that procedure
// see a later invocation's grants.
type applyAPI struct {
	e *Engine
	// The first grants are kept inline and scanned; most invocations
	// never hold more, so the API is one allocation.
	few  [8]core.Handle
	nfew int
	more map[core.Handle]struct{}
}

func newApplyAPI(e *Engine, input core.Handle) *applyAPI {
	a := &applyAPI{e: e}
	a.grant(input)
	return a
}

func (a *applyAPI) grant(h core.Handle) {
	if a.isGranted(h) {
		return
	}
	if a.nfew < len(a.few) {
		a.few[a.nfew] = h
		a.nfew++
		return
	}
	if a.more == nil {
		a.more = make(map[core.Handle]struct{})
	}
	a.more[h] = struct{}{}
}

// isGranted reports whether the procedure legitimately holds h. Literal
// Blobs are always holdable: their contents live in the handle itself, so
// a procedure can synthesize them anyway.
func (a *applyAPI) isGranted(h core.Handle) bool {
	if h.IsLiteral() && h.RefKind() == core.RefObject {
		return true
	}
	for _, g := range a.few[:a.nfew] {
		if g == h {
			return true
		}
	}
	_, ok := a.more[h]
	return ok
}

func (a *applyAPI) require(h core.Handle) error {
	if !a.isGranted(h) {
		return fmt.Errorf("runtime: handle outside minimum repository: %v", h)
	}
	return nil
}

// AttachBlob maps a BlobObject's contents.
func (a *applyAPI) AttachBlob(h core.Handle) ([]byte, error) {
	if err := a.require(h); err != nil {
		return nil, err
	}
	if h.RefKind() != core.RefObject {
		return nil, fmt.Errorf("runtime: attach of inaccessible handle: %v", h)
	}
	if h.Kind() != core.KindBlob {
		return nil, fmt.Errorf("runtime: attach_blob of a tree: %v", h)
	}
	return a.e.st.Blob(h)
}

// AttachTree maps a TreeObject's entries and grants access to each entry.
func (a *applyAPI) AttachTree(h core.Handle) ([]core.Handle, error) {
	if err := a.require(h); err != nil {
		return nil, err
	}
	if h.RefKind() != core.RefObject {
		return nil, fmt.Errorf("runtime: attach of inaccessible handle: %v", h)
	}
	if h.Kind() != core.KindTree {
		return nil, fmt.Errorf("runtime: attach_tree of a blob: %v", h)
	}
	entries, err := a.e.st.Tree(h)
	if err != nil {
		return nil, err
	}
	for _, ent := range entries {
		a.grant(ent)
	}
	out := make([]core.Handle, len(entries))
	copy(out, entries)
	return out, nil
}

// CreateBlob stores a Blob built by the procedure.
func (a *applyAPI) CreateBlob(data []byte) core.Handle {
	h := a.e.st.PutBlob(data)
	a.grant(h)
	return h
}

// CreateTree stores a Tree built by the procedure; every entry must be
// held.
func (a *applyAPI) CreateTree(entries []core.Handle) (core.Handle, error) {
	for i, ent := range entries {
		if !a.isGranted(ent) {
			return core.Handle{}, fmt.Errorf("runtime: create_tree entry %d outside minimum repository: %v", i, ent)
		}
	}
	h, err := a.e.st.PutTree(entries)
	if err != nil {
		return core.Handle{}, err
	}
	a.grant(h)
	return h, nil
}

// Application creates an Application Thunk from a held Tree.
func (a *applyAPI) Application(tree core.Handle) (core.Handle, error) {
	if err := a.require(tree); err != nil {
		return core.Handle{}, err
	}
	t, err := core.Application(tree)
	if err != nil {
		return core.Handle{}, err
	}
	a.grant(t)
	return t, nil
}

// Identification creates an Identification Thunk from a held value.
func (a *applyAPI) Identification(v core.Handle) (core.Handle, error) {
	if err := a.require(v); err != nil {
		return core.Handle{}, err
	}
	t, err := core.Identification(v)
	if err != nil {
		return core.Handle{}, err
	}
	a.grant(t)
	return t, nil
}

// Selection creates a Selection Thunk for child index of a held target
// (which may be a Ref — precisely the point of Selections).
func (a *applyAPI) Selection(target core.Handle, index uint64) (core.Handle, error) {
	if err := a.require(target); err != nil {
		return core.Handle{}, err
	}
	tree, err := a.e.st.PutTree(core.SelectionEntries(target, index))
	if err != nil {
		return core.Handle{}, err
	}
	a.grant(tree)
	t, err := core.SelectionThunk(tree)
	if err != nil {
		return core.Handle{}, err
	}
	a.grant(t)
	return t, nil
}

// SelectionRange creates a Selection Thunk for the subrange [begin, end)
// of a held target.
func (a *applyAPI) SelectionRange(target core.Handle, begin, end uint64) (core.Handle, error) {
	if err := a.require(target); err != nil {
		return core.Handle{}, err
	}
	tree, err := a.e.st.PutTree(core.SelectionRangeEntries(target, begin, end))
	if err != nil {
		return core.Handle{}, err
	}
	a.grant(tree)
	t, err := core.SelectionThunk(tree)
	if err != nil {
		return core.Handle{}, err
	}
	a.grant(t)
	return t, nil
}

// Strict wraps a held Thunk in a Strict Encode.
func (a *applyAPI) Strict(thunk core.Handle) (core.Handle, error) {
	if err := a.require(thunk); err != nil {
		return core.Handle{}, err
	}
	enc, err := core.Strict(thunk)
	if err != nil {
		return core.Handle{}, err
	}
	a.grant(enc)
	return enc, nil
}

// Shallow wraps a held Thunk in a Shallow Encode.
func (a *applyAPI) Shallow(thunk core.Handle) (core.Handle, error) {
	if err := a.require(thunk); err != nil {
		return core.Handle{}, err
	}
	enc, err := core.Shallow(thunk)
	if err != nil {
		return core.Handle{}, err
	}
	a.grant(enc)
	return enc, nil
}

// SizeOf reports a referent's size. Valid on Refs: type and length are
// queryable even when data is not.
func (a *applyAPI) SizeOf(h core.Handle) uint64 { return h.Size() }

// KindOf reports a referent's shape.
func (a *applyAPI) KindOf(h core.Handle) core.Kind { return h.Kind() }

// RefKindOf reports a Handle's reference kind.
func (a *applyAPI) RefKindOf(h core.Handle) core.RefKind { return h.RefKind() }

var _ core.API = (*applyAPI)(nil)
