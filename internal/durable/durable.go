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
// write-through to disk, and brings an object missing from RAM back from
// its pack on demand. Disk is a tier, not a mirror: RestoreInto reloads
// the recovered memo tables, their one home after a restart, and no
// object, so RAM need not hold the data dir.
package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
	// (keeps every indexed object). It is asked once per record no memo
	// result reaches, without the Store's lock held, so a slow probe
	// stalls no persist.
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
	gcFloor  int64 // packSize when the last auto-GC pass began, then after it
	closed   bool
	lock     *os.File // flock on <dir>/LOCK, held for the Store's lifetime

	stats Stats
}

// Stats counts a Store's lifetime activity.
type Stats struct {
	Objects       int   // distinct objects in the index
	MemoEntries   int   // thunk + encode journal entries
	PackBytes     int64 // on-disk pack footprint
	TruncatedTail int   // torn records dropped during Open
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
// Implements store.Persister.
func (d *Store) Contains(h core.Handle) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.index[h.AsObject()]
	return ok
}

// ForEachObject calls fn, under the Store's lock, with every object on
// disk. Implements store.Persister.
func (d *Store) ForEachObject(fn func(h core.Handle)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for h := range d.index {
		fn(h)
	}
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

// ReadObject returns the packed bytes of a persisted object, in a fresh
// slice. Implements store.Persister.
func (d *Store) ReadObject(h core.Handle) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	loc, ok := d.index[h.AsObject()]
	if !ok {
		return nil, fmt.Errorf("durable: object %v not persisted", h)
	}
	return d.objectLocked(loc)
}

// treeLocked reads the entries of the persisted Tree at loc; the caller
// holds d.mu.
func (d *Store) treeLocked(loc location) ([]core.Handle, error) {
	rec, err := d.objectLocked(loc)
	if err != nil {
		return nil, err
	}
	return core.TreeView(rec)
}

// RestoreStats reports what RestoreInto recovered.
type RestoreStats struct {
	// Blobs and Trees count the objects the packs hold: each is read
	// back into RAM on its first miss, not at restore.
	Blobs int
	Trees int
	// Thunks and Encodes count the memo entries restored.
	Thunks  int
	Encodes int
	// SkippedMemos counts journal entries dropped because their result
	// object did not survive the crash (write-through spans two files
	// with no cross-file atomicity). Restoring such an entry would wedge
	// the thunk forever: the memo hit short-circuits recomputation while
	// the result bytes stay unfetchable.
	SkippedMemos int
}

// RestoreInto loads every memoization entry into an in-memory store and
// installs d as its persister, so the store writes through to d and reads
// an object it does not hold back from the packs on demand. No object is
// copied: after it, st holds no resident byte. Memos are set before d is
// attached, so the reload does not write back through; if d is attached
// already, the journal's deduplication makes the rewrite a no-op.
func (d *Store) RestoreInto(st *store.Store) (RestoreStats, error) {
	var rs RestoreStats
	// Judge every memo under d.mu, then release it before calling into
	// st: if the persister is already attached, st's write-through
	// re-enters this Store and would deadlock against a held lock.
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return rs, errStoreClosed
	}
	for h := range d.index {
		if h.Kind() == core.KindBlob {
			rs.Blobs++
		} else {
			rs.Trees++
		}
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
		k := r.StorageKey()
		if v, ok := verdict[k]; ok {
			return v
		}
		loc, ok := d.index[k]
		if ok && k.Kind() == core.KindTree {
			entries, err := d.treeLocked(loc)
			ok = err == nil
			for _, e := range entries {
				if !fetchable(e) {
					ok = false
					break
				}
			}
		}
		verdict[k] = ok
		return ok
	}
	var kept [2][][2]core.Handle // thunk memos, encode memos
	for i, table := range [2]map[core.Handle]core.Handle{d.thunks, d.encodes} {
		for k, r := range table {
			if fetchable(r) {
				kept[i] = append(kept[i], [2]core.Handle{k, r})
			} else {
				rs.SkippedMemos++
			}
		}
	}
	d.mu.Unlock()
	for _, m := range kept[0] {
		st.SetThunkResult(m[0], m[1])
	}
	for _, m := range kept[1] {
		st.SetEncodeResult(m[0], m[1])
	}
	rs.Thunks, rs.Encodes = len(kept[0]), len(kept[1])
	if rs.SkippedMemos > 0 {
		d.logf("durable: restore: skipped %d memo entries with torn result objects", rs.SkippedMemos)
	}
	st.SetPersister(d)
	return rs, nil
}

// Attach is the daemon boot path: it opens (or recovers) a durable store
// at dir and restores it into st (RestoreInto): the memo tables are
// loaded and the store reads and writes through to the packs. With
// opts.Live nil, automatic GC only compacts.
func Attach(dir string, opts Options, st *store.Store) (*Store, RestoreStats, error) {
	d, err := Open(dir, opts)
	if err != nil {
		return nil, RestoreStats{}, err
	}
	rs, err := d.RestoreInto(st)
	if err != nil {
		d.Close()
		return nil, RestoreStats{}, err
	}
	return d, rs, nil
}

var _ store.Persister = (*Store)(nil)
