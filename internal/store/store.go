// Package store implements Fixpoint's runtime storage: a concurrent,
// content-addressed map from Handles to Blob/Tree data, and the memoization
// tables mapping Thunks and Encodes to their evaluation results
// (section 4.2.1 of the paper).
package store

import (
	"fmt"
	"sync"

	"fixgo/internal/core"
)

// ErrNotFound reports a Handle whose data is not resident in this store.
type ErrNotFound struct {
	Handle core.Handle
}

func (e *ErrNotFound) Error() string {
	return fmt.Sprintf("store: object not resident: %v", e.Handle)
}

// IsNotFound reports whether err is an ErrNotFound.
func IsNotFound(err error) bool {
	_, ok := err.(*ErrNotFound)
	return ok
}

// Persister is the pluggable persistence hook behind a Store. When one
// is attached (SetPersister), every newly inserted object and every
// memoization write-throughs to it. Implementations must be safe for
// concurrent use; internal/durable provides the disk-backed one.
//
// Persist calls happen outside the Store's lock, after the in-memory
// insert: content-addressed records are idempotent and never remap, so
// ordering between concurrent persists of different keys is irrelevant.
type Persister interface {
	// PersistBlob records a Blob's contents under its Object Handle.
	PersistBlob(h core.Handle, data []byte) error
	// PersistTree records a Tree's entries under its Object Handle.
	PersistTree(h core.Handle, entries []core.Handle) error
	// PersistThunkResult records a Thunk memoization.
	PersistThunkResult(thunk, result core.Handle) error
	// PersistEncodeResult records an Encode memoization.
	PersistEncodeResult(encode, result core.Handle) error
}

// Store is an in-memory content-addressed object store with memoization
// tables. The zero value is not usable; call New.
type Store struct {
	mu            sync.RWMutex
	blobs         map[core.Handle][]byte
	trees         map[core.Handle][]core.Handle
	thunkResults  map[core.Handle]core.Handle
	encodeResults map[core.Handle]core.Handle
	pins          map[core.Handle]int
	bytes         uint64
	persister     Persister
	persistErrs   uint64
}

// SetPersister attaches (or, with nil, detaches) the write-through
// persistence hook. Attach after restoring a recovered image so the
// reload does not pointlessly write back through. Objects and memo
// entries inserted before attachment are not replayed.
func (s *Store) SetPersister(p Persister) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.persister = p
}

// PersistErrors reports how many write-through persist calls have failed.
// The in-memory tiers stay correct when persistence degrades; this
// counter is the signal that durability is impaired.
func (s *Store) PersistErrors() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.persistErrs
}

// persist runs one write-through call and accounts a failure.
func (s *Store) persist(p Persister, fn func(Persister) error) {
	if p == nil {
		return
	}
	if err := fn(p); err != nil {
		s.mu.Lock()
		s.persistErrs++
		s.mu.Unlock()
	}
}

// New returns an empty Store.
func New() *Store {
	return &Store{
		blobs:         make(map[core.Handle][]byte),
		trees:         make(map[core.Handle][]core.Handle),
		thunkResults:  make(map[core.Handle]core.Handle),
		encodeResults: make(map[core.Handle]core.Handle),
		pins:          make(map[core.Handle]int),
	}
}

// PutBlob stores a Blob and returns its Object Handle. Literal Blobs are
// not persisted; their Handle carries the contents.
func (s *Store) PutBlob(data []byte) core.Handle {
	h := core.BlobHandle(data)
	if h.IsLiteral() {
		return h
	}
	s.mu.Lock()
	var cp []byte
	if _, ok := s.blobs[h]; !ok {
		cp = make([]byte, len(data))
		copy(cp, data)
		s.blobs[h] = cp
		s.bytes += uint64(len(cp))
	}
	p := s.persister
	s.mu.Unlock()
	if cp != nil {
		s.persist(p, func(p Persister) error { return p.PersistBlob(h, cp) })
	}
	return h
}

// PutBlobOwned stores a Blob whose Handle the caller already computed —
// e.g. incrementally with a core.BlobHasher while streaming the body —
// taking ownership of data: no copy is made and the bytes are not
// re-hashed, so the caller must not retain or mutate the slice and h
// must be BlobHandle(data). Literal Handles return immediately; a
// mismatched size falls back to the checked PutBlob path.
func (s *Store) PutBlobOwned(h core.Handle, data []byte) core.Handle {
	if h.IsLiteral() {
		return h
	}
	if h.Kind() != core.KindBlob || h.Size() != uint64(len(data)) {
		return s.PutBlob(data)
	}
	h = h.StorageKey()
	s.mu.Lock()
	inserted := false
	if _, ok := s.blobs[h]; !ok {
		s.blobs[h] = data
		s.bytes += uint64(len(data))
		inserted = true
	}
	p := s.persister
	s.mu.Unlock()
	if inserted {
		s.persist(p, func(p Persister) error { return p.PersistBlob(h, data) })
	}
	return h
}

// PutTree stores a Tree and returns its Object Handle. Every entry is
// validated.
func (s *Store) PutTree(entries []core.Handle) (core.Handle, error) {
	for i, e := range entries {
		if err := e.Validate(); err != nil {
			return core.Handle{}, fmt.Errorf("store: tree entry %d: %w", i, err)
		}
	}
	h := core.TreeHandle(entries)
	s.mu.Lock()
	var cp []core.Handle
	if _, ok := s.trees[h]; !ok {
		cp = make([]core.Handle, len(entries))
		copy(cp, entries)
		s.trees[h] = cp
		s.bytes += uint64(len(cp) * core.HandleSize)
	}
	p := s.persister
	s.mu.Unlock()
	if cp != nil {
		s.persist(p, func(p Persister) error { return p.PersistTree(h, cp) })
	}
	return h, nil
}

// PutObject stores raw object bytes under a known Handle, validating that
// the contents match the Handle. It is the ingestion path for objects
// received from the network.
func (s *Store) PutObject(h core.Handle, data []byte) error {
	if err := h.Validate(); err != nil {
		return err
	}
	key := h.StorageKey()
	switch key.Kind() {
	case core.KindBlob:
		if key.IsLiteral() {
			return nil
		}
		if got := core.BlobHandle(data); got != key {
			return fmt.Errorf("store: blob bytes do not match handle %v", h)
		}
		s.mu.Lock()
		var cp []byte
		if _, ok := s.blobs[key]; !ok {
			cp = make([]byte, len(data))
			copy(cp, data)
			s.blobs[key] = cp
			s.bytes += uint64(len(cp))
		}
		p := s.persister
		s.mu.Unlock()
		if cp != nil {
			s.persist(p, func(p Persister) error { return p.PersistBlob(key, cp) })
		}
		return nil
	default:
		entries, err := core.DecodeTree(data)
		if err != nil {
			return err
		}
		if got := core.TreeHandle(entries); got != key {
			return fmt.Errorf("store: tree bytes do not match handle %v", h)
		}
		s.mu.Lock()
		inserted := false
		if _, ok := s.trees[key]; !ok {
			s.trees[key] = entries
			s.bytes += uint64(len(entries) * core.HandleSize)
			inserted = true
		}
		p := s.persister
		s.mu.Unlock()
		if inserted {
			s.persist(p, func(p Persister) error { return p.PersistTree(key, entries) })
		}
		return nil
	}
}

// Blob returns the contents of a Blob. Literal Handles resolve without
// consulting storage.
func (s *Store) Blob(h core.Handle) ([]byte, error) {
	key := h.StorageKey()
	if key.Kind() != core.KindBlob {
		return nil, fmt.Errorf("store: %v is not a blob", h)
	}
	if key.IsLiteral() {
		return key.LiteralData(), nil
	}
	s.mu.RLock()
	data, ok := s.blobs[key]
	s.mu.RUnlock()
	if !ok {
		return nil, &ErrNotFound{Handle: h}
	}
	return data, nil
}

// Tree returns the entries of a Tree.
func (s *Store) Tree(h core.Handle) ([]core.Handle, error) {
	key := h.StorageKey()
	if key.Kind() != core.KindTree {
		return nil, fmt.Errorf("store: %v is not a tree", h)
	}
	s.mu.RLock()
	entries, ok := s.trees[key]
	s.mu.RUnlock()
	if !ok {
		return nil, &ErrNotFound{Handle: h}
	}
	return entries, nil
}

// ObjectBytes returns the canonical wire bytes of a resident object. They
// are the stored data itself, read-only: a Blob's contents, or a Tree's
// entries viewed in place (core.TreeBytes).
func (s *Store) ObjectBytes(h core.Handle) ([]byte, error) {
	key := h.StorageKey()
	if key.Kind() == core.KindBlob {
		return s.Blob(key)
	}
	entries, err := s.Tree(key)
	if err != nil {
		return nil, err
	}
	return core.TreeBytes(entries), nil
}

// Contains reports whether the referent's data is resident. Literals are
// always resident.
func (s *Store) Contains(h core.Handle) bool {
	key := h.StorageKey()
	if key.IsLiteral() {
		return true
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if key.Kind() == core.KindBlob {
		_, ok := s.blobs[key]
		return ok
	}
	_, ok := s.trees[key]
	return ok
}

// ThunkResult returns the memoized result of evaluating a Thunk.
func (s *Store) ThunkResult(thunk core.Handle) (core.Handle, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.thunkResults[thunk]
	return r, ok
}

// SetThunkResult memoizes a Thunk's one-pass evaluation result.
func (s *Store) SetThunkResult(thunk, result core.Handle) {
	s.mu.Lock()
	prev, known := s.thunkResults[thunk]
	s.thunkResults[thunk] = result
	p := s.persister
	s.mu.Unlock()
	if !known || prev != result {
		s.persist(p, func(p Persister) error { return p.PersistThunkResult(thunk, result) })
	}
}

// EncodeResult returns the memoized result of forcing an Encode.
func (s *Store) EncodeResult(encode core.Handle) (core.Handle, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.encodeResults[encode]
	return r, ok
}

// SetEncodeResult memoizes an Encode's forced result.
func (s *Store) SetEncodeResult(encode, result core.Handle) {
	s.mu.Lock()
	prev, known := s.encodeResults[encode]
	s.encodeResults[encode] = result
	p := s.persister
	s.mu.Unlock()
	if !known || prev != result {
		s.persist(p, func(p Persister) error { return p.PersistEncodeResult(encode, result) })
	}
}

// Pin marks an object as non-evictable (e.g. while it is part of a running
// invocation's minimum repository).
func (s *Store) Pin(h core.Handle) {
	key := h.StorageKey()
	if key.IsLiteral() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pins[key]++
}

// Unpin releases a Pin.
func (s *Store) Unpin(h core.Handle) {
	key := h.StorageKey()
	if key.IsLiteral() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pins[key] > 1 {
		s.pins[key]--
	} else {
		delete(s.pins, key)
	}
}

// Evict removes an unpinned object from storage. It reports whether the
// object was removed. This is the primitive behind the paper's
// "computational garbage collection": deterministic products of known
// dependencies may be deleted and recomputed on demand.
func (s *Store) Evict(h core.Handle) bool {
	key := h.StorageKey()
	if key.IsLiteral() {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pins[key] > 0 {
		return false
	}
	if data, ok := s.blobs[key]; ok {
		s.bytes -= uint64(len(data))
		delete(s.blobs, key)
		return true
	}
	if entries, ok := s.trees[key]; ok {
		s.bytes -= uint64(len(entries) * core.HandleSize)
		delete(s.trees, key)
		return true
	}
	return false
}

// TotalBytes reports the resident data volume (excluding literals and
// memo tables).
func (s *Store) TotalBytes() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytes
}

// Len reports the number of resident objects.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.blobs) + len(s.trees)
}

// ForEach calls fn for every resident object handle with its payload size
// in bytes. Used to advertise local objects to newly connected peers.
// fn must not call back into the Store.
func (s *Store) ForEach(fn func(h core.Handle, size uint64)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for h, data := range s.blobs {
		fn(h, uint64(len(data)))
	}
	for h, entries := range s.trees {
		fn(h, uint64(len(entries)*core.HandleSize))
	}
}

var _ core.Store = (*Store)(nil)
