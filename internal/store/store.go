// Package store implements Fixpoint's runtime storage: a concurrent,
// content-addressed map from Handles to Blob/Tree data, and the memoization
// tables mapping Thunks and Encodes to their evaluation results
// (section 4.2.1 of the paper).
package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"fixgo/internal/core"
)

// ErrNotFound reports a Handle whose data is not resident in this store.
type ErrNotFound struct {
	Handle core.Handle
}

func (e *ErrNotFound) Error() string {
	return fmt.Sprintf("store: object not resident: %v", e.Handle)
}

// Persister is the pluggable persistence hook behind a Store. When one
// is attached (SetPersister), every newly inserted object and every
// memoization write-throughs to it. Implementations must be safe for
// concurrent use; internal/durable provides the disk-backed one.
//
// Persist calls happen outside the Store's locks, after the in-memory
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
//
// Its maps are split over stripes, each with its own lock, selected by a
// key's first byte: a digest byte, so concurrent invocations on different
// objects rarely meet on one lock. Every form of a handle (Object, Ref,
// Thunk, Encode) keeps that byte, so an object, its pins and the memo
// entries of the Thunk and Encode over it share a stripe.
//
// A stripe is made on its first use and each of its maps on its first
// write, so a new Store is one small allocation and a short-lived one
// touches little memory.
type Store struct {
	stripes     [stripeCount]atomic.Pointer[stripe]
	persister   atomic.Pointer[Persister]
	persistErrs atomic.Uint64
}

// stripeCount is a power of two: two unrelated keys share a stripe one
// time in 32. More stripes would make more maps on first write, and the
// warm-invocation allocation pins (TestAllocsWarmEncode) count those.
const stripeCount = 32

// stripe is one lock's share of the Store. It is allocated on its own,
// in 192 bytes, so no two stripes share a cache line. bytes is the
// resident volume of the stripe's objects.
//
// A Tree is stored as its entries followed by one spare entry, which
// holds the memoized result of the Application Thunk over the Tree
// (appResult): the commonest memo then costs 32 bytes, not an entry in
// thunkResults. A Thunk's memo is kept in one place, its Tree's spare
// entry or thunkResults, never both. trees maps a Tree to its first
// entry; its handle carries how many follow.
type stripe struct {
	mu            sync.Mutex
	blobs         map[core.Handle][]byte
	trees         map[core.Handle]*core.Handle
	thunkResults  map[core.Handle]core.Handle
	encodeResults map[core.Handle]core.Handle
	bytes         uint64
	// Pins are few and short-lived: the first keys pinned at once are
	// counted in pinSlots, and only the rest in the pins map.
	pinSlots [3]pinCount
	pins     map[core.Handle]int
}

// pinCount is a pinned key and its count; n == 0 marks a free slot.
type pinCount struct {
	key core.Handle
	n   int
}

// stripe returns the stripe that holds key and every form of it, making
// it on first use.
func (s *Store) stripe(key core.Handle) *stripe {
	p := &s.stripes[key[0]&(stripeCount-1)]
	if sp := p.Load(); sp != nil {
		return sp
	}
	p.CompareAndSwap(nil, new(stripe))
	return p.Load()
}

// eachStripe calls fn with every stripe made so far, under its lock.
func (s *Store) eachStripe(fn func(sp *stripe)) {
	for i := range s.stripes {
		if sp := s.stripes[i].Load(); sp != nil {
			sp.mu.Lock()
			fn(sp)
			sp.mu.Unlock()
		}
	}
}

// SetPersister attaches (or, with nil, detaches) the write-through
// persistence hook. Attach after restoring a recovered image so the
// reload does not pointlessly write back through. Objects and memo
// entries inserted before attachment are not replayed.
func (s *Store) SetPersister(p Persister) {
	if p == nil {
		s.persister.Store(nil)
		return
	}
	s.persister.Store(&p)
}

// PersistErrors reports how many write-through persist calls have failed.
// The in-memory tiers stay correct when persistence degrades; this
// counter is the signal that durability is impaired.
func (s *Store) PersistErrors() uint64 { return s.persistErrs.Load() }

// persist runs one write-through call, if a persister is attached, and
// accounts a failure.
func (s *Store) persist(fn func(Persister) error) {
	p := s.persister.Load()
	if p == nil {
		return
	}
	if err := fn(*p); err != nil {
		s.persistErrs.Add(1)
	}
}

// New returns an empty Store.
func New() *Store { return new(Store) }

// PutBlob stores a Blob and returns its Object Handle. Literal Blobs are
// not persisted; their Handle carries the contents.
func (s *Store) PutBlob(data []byte) core.Handle {
	h := core.BlobHandle(data)
	if h.IsLiteral() {
		return h
	}
	sp := s.stripe(h)
	sp.mu.Lock()
	var cp []byte
	if _, ok := sp.blobs[h]; !ok {
		cp = make([]byte, len(data))
		copy(cp, data)
		sp.insertBlob(h, cp)
	}
	sp.mu.Unlock()
	if cp != nil {
		s.persist(func(p Persister) error { return p.PersistBlob(h, cp) })
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
	if s.putBlob(h, data) {
		s.persist(func(p Persister) error { return p.PersistBlob(h, data) })
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
	sp := s.stripe(h)
	sp.mu.Lock()
	var cp []core.Handle
	if _, ok := sp.trees[h]; !ok {
		cp = make([]core.Handle, len(entries), len(entries)+1) // and the spare entry
		copy(cp, entries)
		cp = sp.insertTree(h, cp)
	}
	sp.mu.Unlock()
	if cp != nil {
		s.persist(func(p Persister) error { return p.PersistTree(h, cp) })
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
		sp := s.stripe(key)
		sp.mu.Lock()
		var cp []byte
		if _, ok := sp.blobs[key]; !ok {
			cp = make([]byte, len(data))
			copy(cp, data)
			sp.insertBlob(key, cp)
		}
		sp.mu.Unlock()
		if cp != nil {
			s.persist(func(p Persister) error { return p.PersistBlob(key, cp) })
		}
		return nil
	default:
		entries, err := core.DecodeTreeCap(data, 1) // and the spare entry
		if err != nil {
			return err
		}
		if got := core.TreeHandle(entries); got != key {
			return fmt.Errorf("store: tree bytes do not match handle %v", h)
		}
		sp := s.stripe(key)
		sp.mu.Lock()
		_, known := sp.trees[key]
		if !known {
			entries = sp.insertTree(key, entries)
		}
		sp.mu.Unlock()
		if !known {
			s.persist(func(p Persister) error { return p.PersistTree(key, entries) })
		}
		return nil
	}
}

// putBlob stores data, which the Store then owns, under h unless h is
// resident, and reports whether it did.
func (s *Store) putBlob(h core.Handle, data []byte) bool {
	sp := s.stripe(h)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if _, ok := sp.blobs[h]; ok {
		return false
	}
	sp.insertBlob(h, data)
	return true
}

// insertBlob and insertTree add a new object; the caller holds sp.mu.
func (sp *stripe) insertBlob(h core.Handle, data []byte) {
	if sp.blobs == nil {
		sp.blobs = make(map[core.Handle][]byte)
	}
	sp.blobs[h] = data
	sp.bytes += uint64(len(data))
}

// insertTree also keeps the spare entry past the end of entries, which
// must have room for it, and returns entries without that room, for
// callers that hand them on.
func (sp *stripe) insertTree(h core.Handle, entries []core.Handle) []core.Handle {
	if sp.trees == nil {
		sp.trees = make(map[core.Handle]*core.Handle)
	}
	sp.trees[h] = unsafe.SliceData(entries)
	sp.bytes += treeBytes(h)
	return entries[:len(entries):len(entries)]
}

// tree returns the entries of the resident Tree key; the caller holds
// sp.mu. With spare set the slice ends with the spare entry.
func (sp *stripe) tree(key core.Handle, spare bool) ([]core.Handle, bool) {
	first, ok := sp.trees[key]
	if !ok {
		return nil, false
	}
	n := key.Size()
	if spare {
		n++
	}
	return unsafe.Slice(first, n), true
}

// treeBytes is the resident volume of the Tree key: its entries.
func treeBytes(key core.Handle) uint64 { return key.Size() * core.HandleSize }

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
	sp := s.stripe(key)
	sp.mu.Lock()
	data, ok := sp.blobs[key]
	sp.mu.Unlock()
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
	sp := s.stripe(key)
	sp.mu.Lock()
	entries, ok := sp.tree(key, false)
	sp.mu.Unlock()
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
	sp := s.stripe(key)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.holds(key)
}

// holds reports whether the non-literal key is resident; the caller holds
// sp.mu.
func (sp *stripe) holds(key core.Handle) bool {
	if key.Kind() == core.KindBlob {
		_, ok := sp.blobs[key]
		return ok
	}
	_, ok := sp.trees[key]
	return ok
}

// ThunkResult returns the memoized result of evaluating a Thunk.
func (s *Store) ThunkResult(thunk core.Handle) (core.Handle, bool) {
	sp := s.stripe(thunk)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if r := sp.appResult(thunk); r != nil && !r.IsZero() {
		return *r, true
	}
	r, ok := sp.thunkResults[thunk]
	return r, ok
}

// SetThunkResult memoizes a Thunk's one-pass evaluation result.
func (s *Store) SetThunkResult(thunk, result core.Handle) {
	sp := s.stripe(thunk)
	sp.mu.Lock()
	prev, known := sp.thunkResults[thunk]
	if r := sp.appResult(thunk); r != nil && !known {
		prev, known = *r, !r.IsZero()
		*r = result
	} else {
		sp.putThunkResult(thunk, result)
	}
	sp.mu.Unlock()
	if !known || prev != result {
		s.persist(func(p Persister) error { return p.PersistThunkResult(thunk, result) })
	}
}

// appResult returns the spare entry that holds the result of thunk if it
// is an Application over a resident Tree, else nil. The caller holds
// sp.mu.
func (sp *stripe) appResult(thunk core.Handle) *core.Handle {
	if thunk.RefKind() != core.RefThunk || thunk.ThunkStyle() != core.ThunkApplication {
		return nil
	}
	withSpare, ok := sp.tree(thunk.StorageKey(), true)
	if !ok {
		return nil
	}
	return &withSpare[len(withSpare)-1]
}

// putThunkResult records a memo in thunkResults; the caller holds sp.mu.
func (sp *stripe) putThunkResult(thunk, result core.Handle) {
	if sp.thunkResults == nil {
		sp.thunkResults = make(map[core.Handle]core.Handle)
	}
	sp.thunkResults[thunk] = result
}

// EncodeResult returns the memoized result of forcing an Encode.
func (s *Store) EncodeResult(encode core.Handle) (core.Handle, bool) {
	sp := s.stripe(encode)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	r, ok := sp.encodeResults[encode]
	return r, ok
}

// SetEncodeResult memoizes an Encode's forced result.
func (s *Store) SetEncodeResult(encode, result core.Handle) {
	sp := s.stripe(encode)
	sp.mu.Lock()
	prev, known := sp.encodeResults[encode]
	if sp.encodeResults == nil {
		sp.encodeResults = make(map[core.Handle]core.Handle)
	}
	sp.encodeResults[encode] = result
	sp.mu.Unlock()
	if !known || prev != result {
		s.persist(func(p Persister) error { return p.PersistEncodeResult(encode, result) })
	}
}

// Pin marks an object as non-evictable (e.g. while it is part of a running
// invocation's minimum repository) and reports whether it is resident.
// An object may be pinned before it arrives.
func (s *Store) Pin(h core.Handle) bool {
	key := h.StorageKey()
	if key.IsLiteral() {
		return true
	}
	sp := s.stripe(key)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.pin(key)
	return sp.holds(key)
}

// Unpin releases a Pin.
func (s *Store) Unpin(h core.Handle) {
	key := h.StorageKey()
	if key.IsLiteral() {
		return
	}
	sp := s.stripe(key)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if c := sp.pinSlot(key); c != nil {
		c.n--
	} else if sp.pins[key] > 1 {
		sp.pins[key]--
	} else {
		delete(sp.pins, key)
	}
}

// pinSlot returns the slot counting key's pins, or nil if there is none;
// the caller holds sp.mu, as for pin.
func (sp *stripe) pinSlot(key core.Handle) *pinCount {
	for i := range sp.pinSlots {
		if c := &sp.pinSlots[i]; c.n > 0 && c.key == key {
			return c
		}
	}
	return nil
}

// pin counts one more pin of key, in its slot or its map entry if it has
// one, else in a free slot, else in the map. A key is never in both.
func (sp *stripe) pin(key core.Handle) {
	if c := sp.pinSlot(key); c != nil {
		c.n++
		return
	}
	if n, ok := sp.pins[key]; ok {
		sp.pins[key] = n + 1
		return
	}
	for i := range sp.pinSlots {
		if c := &sp.pinSlots[i]; c.n == 0 {
			*c = pinCount{key, 1}
			return
		}
	}
	if sp.pins == nil {
		sp.pins = make(map[core.Handle]int)
	}
	sp.pins[key] = 1
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
	sp := s.stripe(key)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.pinSlot(key) != nil || sp.pins[key] > 0 {
		return false
	}
	if data, ok := sp.blobs[key]; ok {
		sp.bytes -= uint64(len(data))
		delete(sp.blobs, key)
		return true
	}
	if _, ok := sp.trees[key]; ok {
		thunk, _ := core.Application(key)
		if r := sp.appResult(thunk); r != nil && !r.IsZero() {
			sp.putThunkResult(thunk, *r) // the memo outlives its Tree
		}
		sp.bytes -= treeBytes(key)
		delete(sp.trees, key)
		return true
	}
	return false
}

// TotalBytes reports the resident data volume (excluding literals and
// memo tables).
func (s *Store) TotalBytes() uint64 {
	var n uint64
	s.eachStripe(func(sp *stripe) { n += sp.bytes })
	return n
}

// Len reports the number of resident objects.
func (s *Store) Len() int {
	n := 0
	s.eachStripe(func(sp *stripe) { n += len(sp.blobs) + len(sp.trees) })
	return n
}

// ForEach calls fn for every resident object handle with its payload size
// in bytes, one stripe at a time. Used to advertise local objects to newly
// connected peers. fn must not call back into the Store.
func (s *Store) ForEach(fn func(h core.Handle, size uint64)) {
	s.eachStripe(func(sp *stripe) {
		for h, data := range sp.blobs {
			fn(h, uint64(len(data)))
		}
		for h := range sp.trees {
			fn(h, treeBytes(h))
		}
	})
}

var _ core.Store = (*Store)(nil)
