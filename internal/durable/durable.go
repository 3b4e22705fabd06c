// Package durable is Fixpoint's persistence layer: a crash-recoverable,
// disk-backed content-addressed store underneath the in-memory serving
// tier (internal/store).
//
// The paper's determinism argument makes persistence unusually simple:
// every object is named by its content, and a memoized (thunk → result)
// entry is valid forever — there is no update-in-place, no versioning,
// and no cache invalidation. Durable therefore needs one append-only file
// type, the Journal, used two ways:
//
//   - pack files (<dir>/packs/NNNNNNNN.pack) holding Blob and Tree
//     records, each framed with a length header and CRC32 trailer; and
//   - a memo journal (<dir>/memo.journal) of (Thunk → result) and
//     (Encode → result) entries in the same framing.
//
// On Open the store replays both: a torn tail record — the signature of a
// crash mid-append — is truncated away rather than treated as corruption,
// so recovery always lands on a consistent prefix of the pre-crash state.
// One sync rule (Journal.syncTo) covers every file under a configurable
// fsync policy (always / interval / never); under interval an idle store
// runs no goroutine. A size-budgeted garbage collector rewrites live
// records into fresh packs and drops unreferenced ones once the on-disk
// footprint exceeds budget.
//
// durable.Store implements store.Persister, so attaching it to a
// store.Store (store.SetPersister) makes every Put and memoization
// write-through to disk. RestoreInto reloads a recovered image into an
// in-memory store, the memo tables' one home after a restart.
package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"

	"fixgo/internal/core"
	"fixgo/internal/store"
)

// FsyncPolicy controls when appended records are forced to stable
// storage.
type FsyncPolicy int

const (
	// FsyncInterval syncs each file within 100 ms of an append, from a
	// timer the append arms (default; bounded data-loss window,
	// near-in-memory append latency, no goroutine while idle).
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways syncs after every append (no data-loss window).
	FsyncAlways
	// FsyncNever leaves write-back entirely to the OS.
	FsyncNever
)

// ParseFsyncPolicy maps the -fsync flag values to a policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "interval", "":
		return FsyncInterval, nil
	case "always":
		return FsyncAlways, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("durable: unknown fsync policy %q (want always|interval|never)", s)
}

// Set parses an -fsync flag value into p (flag.Value, with String).
func (p *FsyncPolicy) Set(s string) error {
	v, err := ParseFsyncPolicy(s)
	if err == nil {
		*p = v
	}
	return err
}

// String renders the policy as its -fsync flag value.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	default:
		return "interval"
	}
}

// Options configures a durable Store.
type Options struct {
	// Fsync selects the durability/latency trade-off (default
	// FsyncInterval).
	Fsync FsyncPolicy
	// MaxPackBytes rotates the active pack once it grows past this size
	// (default 64 MiB).
	MaxPackBytes int64
	// GCBudgetBytes, when > 0, triggers a garbage-collection pass once
	// the total pack footprint exceeds it (re-armed only after the
	// footprint grows another quarter-budget, so a store that cannot
	// shrink below budget does not rewrite itself on every append).
	// 0 disables automatic GC (explicit GC calls still work). The pass
	// runs synchronously inside the append that crosses the budget and
	// stalls concurrent persists for its duration — size the budget as
	// an acceptable rewrite unit, not just a disk cap.
	GCBudgetBytes int64
	// Live, when set, is consulted by automatic GC passes: objects it
	// reports live survive in addition to everything reachable from a
	// journaled memo result. When nil, automatic GC only compacts
	// (keeps every indexed object).
	Live func(core.Handle) bool
	// Logf, when set, receives one line per notable event (recovered
	// truncation, GC pass, persist failure).
	Logf func(format string, args ...any)
	// Observe, when set, receives the wall time of every persist
	// operation, labeled by kind ("blob", "tree", "thunk memo", "encode
	// memo") — the gateway feeds these into its persist-latency
	// histogram so write-through stalls show up on /metrics.
	Observe func(op string, took time.Duration)
}

func (o Options) withDefaults() Options {
	if o.MaxPackBytes <= 0 {
		o.MaxPackBytes = 64 << 20
	}
	return o
}

// location addresses one object record inside a pack.
type location struct {
	pack   uint64 // pack sequence number
	offset int64  // of the record header
	length int64  // framed record length (header + payload + crc)
}

// Store is the disk-backed half of a Fixpoint node's storage. It is safe
// for concurrent use; the write-through path from store.Store calls it
// from many goroutines.
type Store struct {
	dir  string
	opts Options

	mu       sync.Mutex
	packs    map[uint64]*Journal // packs by sequence number
	active   uint64              // sequence of the pack receiving appends
	nextSeq  uint64
	index    map[core.Handle]location
	thunks   map[core.Handle]core.Handle
	encodes  map[core.Handle]core.Handle
	journal  *Journal
	packSize int64 // total bytes across all packs
	gcFloor  int64 // packSize after the last auto-GC pass
	closed   bool
	lock     *os.File // flock on <dir>/LOCK, held for the Store's lifetime

	stats Stats
}

// Stats counts a Store's lifetime activity.
type Stats struct {
	Objects       int    // distinct objects in the index
	MemoEntries   int    // thunk + encode journal entries
	PackBytes     int64  // on-disk pack footprint
	Appends       uint64 // object records appended this process
	MemoAppends   uint64 // journal records appended this process
	TruncatedTail int    // torn records dropped during Open
	GCPasses      uint64
	GCDropped     uint64 // records dropped by GC
}

// Open creates or recovers a durable store rooted at dir. The layout is
//
//	dir/packs/NNNNNNNN.pack   object records
//	dir/memo.journal          memoization records
//
// Replay truncates a torn tail record in any file instead of failing:
// after a crash mid-append the store reopens on the longest consistent
// prefix.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(filepath.Join(dir, "packs"), 0o755); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	// Exclusive data-dir lock: two processes appending to the same packs
	// would overwrite each other mid-file and corrupt acknowledged
	// records. flock releases automatically when the holder dies, so a
	// crash never wedges the directory.
	lock, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lock.Close()
		return nil, fmt.Errorf("durable: %s is in use by another process (flock: %v)", dir, err)
	}
	d := &Store{
		dir:     dir,
		opts:    opts,
		packs:   make(map[uint64]*Journal),
		index:   make(map[core.Handle]location),
		thunks:  make(map[core.Handle]core.Handle),
		encodes: make(map[core.Handle]core.Handle),
		lock:    lock,
	}
	if err := d.replayPacks(); err != nil {
		d.closeFiles()
		return nil, err
	}
	if err := d.replayJournal(); err != nil {
		d.closeFiles()
		return nil, err
	}
	return d, nil
}

// Close syncs and closes every file. The Store must not be used after
// Close.
func (d *Store) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	var err error
	for _, p := range d.packs {
		if perr := p.Close(); err == nil {
			err = perr
		}
	}
	if jerr := d.journal.Close(); err == nil {
		err = jerr
	}
	d.closeFiles()
	return err
}

func (d *Store) closeFiles() {
	for _, p := range d.packs {
		_ = p.retire()
	}
	if d.lock != nil {
		_ = d.lock.Close() // releases the flock
		d.lock = nil
	}
}

// errStoreClosed reports use after Close.
var errStoreClosed = errors.New("durable: store is closed")

func (d *Store) logf(format string, args ...any) {
	if d.opts.Logf != nil {
		d.opts.Logf(format, args...)
	}
}

// Stats snapshots the store's counters.
func (d *Store) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.stats
	st.Objects = len(d.index)
	st.MemoEntries = len(d.thunks) + len(d.encodes)
	st.PackBytes = d.packSize
	return st
}

// Contains reports whether an object record for h is on disk.
func (d *Store) Contains(h core.Handle) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.index[h.AsObject()]
	return ok
}

// PersistBlob appends a Blob record unless it is already on disk.
// Implements store.Persister.
func (d *Store) PersistBlob(h core.Handle, data []byte) error {
	if h.IsLiteral() {
		return nil
	}
	defer d.observe("blob", time.Now())
	return d.persistFail("blob", h, d.appendObject(h.AsObject(), data))
}

// PersistTree appends a Tree record unless it is already on disk.
// Implements store.Persister.
func (d *Store) PersistTree(h core.Handle, entries []core.Handle) error {
	defer d.observe("tree", time.Now())
	return d.persistFail("tree", h, d.appendObject(h.AsObject(), core.TreeBytes(entries)))
}

// PersistThunkResult journals a Thunk memoization. Implements
// store.Persister.
func (d *Store) PersistThunkResult(thunk, result core.Handle) error {
	defer d.observe("thunk memo", time.Now())
	return d.persistFail("thunk memo", thunk, d.appendMemo(recThunk, thunk, result))
}

// PersistEncodeResult journals an Encode memoization. Implements
// store.Persister.
func (d *Store) PersistEncodeResult(encode, result core.Handle) error {
	defer d.observe("encode memo", time.Now())
	return d.persistFail("encode memo", encode, d.appendMemo(recEncode, encode, result))
}

// observe reports one persist operation's wall time to Options.Observe.
func (d *Store) observe(op string, start time.Time) {
	if d.opts.Observe != nil {
		d.opts.Observe(op, time.Since(start))
	}
}

// persistFail surfaces a write-through failure to the operator's log —
// store.Store only counts them, and a node silently running without
// durability is the one failure mode this package must not hide.
func (d *Store) persistFail(what string, h core.Handle, err error) error {
	if err != nil {
		d.logf("durable: persist %s %v: %v", what, h, err)
	}
	return err
}

// ReadObject returns the packed bytes of a persisted object.
func (d *Store) ReadObject(h core.Handle) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	loc, ok := d.index[h.AsObject()]
	if !ok {
		return nil, fmt.Errorf("durable: object %v not persisted", h)
	}
	rec, err := d.readLocked(loc)
	if err != nil {
		return nil, err
	}
	return objectOf(rec, loc)
}

// RestoreStats reports what RestoreInto loaded.
type RestoreStats struct {
	Blobs   int
	Trees   int
	Thunks  int
	Encodes int
	// SkippedMemos counts journal entries dropped because their result
	// object did not survive the crash (write-through spans two files
	// with no cross-file atomicity). Restoring such an entry would wedge
	// the thunk forever: the memo hit short-circuits recomputation while
	// the result bytes stay unfetchable.
	SkippedMemos int
}

// RestoreInto loads every persisted object and memoization entry into an
// in-memory store. Call it before store.SetPersister so the reload does
// not write back through to disk (the write-through path is idempotent
// and deduplicated, so the other order merely wastes index probes). Do
// not run it concurrently with GC: a relocated record fails the reload.
func (d *Store) RestoreInto(st *store.Store) (RestoreStats, error) {
	var rs RestoreStats
	// Snapshot under d.mu, then release it before calling into st: if
	// the persister is already attached, st's write-through re-enters
	// this Store and would deadlock against a held lock.
	type entry struct {
		h   core.Handle
		loc location
	}
	d.mu.Lock()
	locs := make([]entry, 0, len(d.index))
	for h, loc := range d.index {
		locs = append(locs, entry{h, loc})
	}
	thunks := make(map[core.Handle]core.Handle, len(d.thunks))
	for k, r := range d.thunks {
		thunks[k] = r
	}
	encodes := make(map[core.Handle]core.Handle, len(d.encodes))
	for k, r := range d.encodes {
		encodes[k] = r
	}
	d.mu.Unlock()
	// Deterministic order is not required for correctness (records are
	// independent), but replaying pack order keeps recovery IO
	// sequential.
	sort.Slice(locs, func(i, j int) bool {
		a, b := locs[i].loc, locs[j].loc
		if a.pack != b.pack {
			return a.pack < b.pack
		}
		return a.offset < b.offset
	})
	// Records appended back-to-back are contiguous on disk, so the
	// sorted locations coalesce into large sequential spans: one read
	// (and one lock round-trip) covers many records instead of one each,
	// which is what makes restart recovery fast at millions of objects.
	for i := 0; i < len(locs); {
		j, span := i+1, locs[i].loc.length
		for j < len(locs) &&
			locs[j].loc.pack == locs[i].loc.pack &&
			locs[j].loc.offset == locs[j-1].loc.offset+locs[j-1].loc.length &&
			span+locs[j].loc.length <= restoreSpanBytes {
			span += locs[j].loc.length
			j++
		}
		d.mu.Lock()
		buf, err := d.readLocked(location{pack: locs[i].loc.pack, offset: locs[i].loc.offset, length: span})
		d.mu.Unlock()
		if err != nil {
			return rs, err
		}
		off := int64(0)
		for _, e := range locs[i:j] {
			obj, err := objectOf(buf[off:off+e.loc.length], e.loc)
			if err != nil {
				return rs, err
			}
			if err := st.PutObject(e.h, obj); err != nil {
				return rs, fmt.Errorf("durable: restore %v: %w", e.h, err)
			}
			if e.h.Kind() == core.KindBlob {
				rs.Blobs++
			} else {
				rs.Trees++
			}
			off += e.loc.length
		}
		i = j
	}
	// A memo result tagged Object promises readable data — for a Tree,
	// transitively. Skip entries whose result closure lost an object to
	// the crash, so the evaluator recomputes instead of serving a handle
	// (or a Tree leaf) that is unfetchable forever. Ref-tagged results
	// (Shallow encodes) legitimately name non-resident data and are
	// kept. Content addressing makes the walk a DAG; verdicts are
	// memoized across entries.
	verdict := make(map[core.Handle]bool)
	var fetchable func(r core.Handle) bool
	fetchable = func(r core.Handle) bool {
		if r.RefKind() != core.RefObject || r.IsLiteral() {
			return true
		}
		if v, ok := verdict[r]; ok {
			return v
		}
		ok := st.Contains(r)
		if ok && r.Kind() == core.KindTree {
			entries, err := st.Tree(r)
			if err != nil {
				ok = false
			} else {
				for _, e := range entries {
					if !fetchable(e) {
						ok = false
						break
					}
				}
			}
		}
		verdict[r] = ok
		return ok
	}
	for k, r := range thunks {
		if !fetchable(r) {
			rs.SkippedMemos++
			continue
		}
		st.SetThunkResult(k, r)
		rs.Thunks++
	}
	for k, r := range encodes {
		if !fetchable(r) {
			rs.SkippedMemos++
			continue
		}
		st.SetEncodeResult(k, r)
		rs.Encodes++
	}
	if rs.SkippedMemos > 0 {
		d.logf("durable: restore: skipped %d memo entries with torn result objects", rs.SkippedMemos)
	}
	return rs, nil
}

// restoreSpanBytes caps one coalesced restore read.
const restoreSpanBytes = 4 << 20

// Attach is the daemon boot path: it opens (or recovers) a durable store
// at dir, restores the recovered image into st, and installs itself as
// st's write-through persister — in that order, so the restore does not
// write back through. When opts.Live is nil it defaults to st.Contains,
// making automatic GC keep whatever the serving tier still holds.
func Attach(dir string, opts Options, st *store.Store) (*Store, RestoreStats, error) {
	if opts.Live == nil {
		opts.Live = st.Contains
	}
	d, err := Open(dir, opts)
	if err != nil {
		return nil, RestoreStats{}, err
	}
	rs, err := d.RestoreInto(st)
	if err != nil {
		d.Close()
		return nil, RestoreStats{}, err
	}
	st.SetPersister(d)
	return d, rs, nil
}

var _ store.Persister = (*Store)(nil)
