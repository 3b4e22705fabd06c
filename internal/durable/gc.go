package durable

import (
	"fmt"
	"os"
	"path/filepath"

	"fixgo/internal/core"
)

// GCStats reports one garbage-collection pass.
type GCStats struct {
	Kept        int   // live records rewritten into fresh packs (0: no sweep was needed)
	Dropped     int   // unreferenced records discarded
	BytesBefore int64 // pack footprint entering the pass
	BytesAfter  int64 // pack footprint after the pass
	MemoCompact int   // journal entries rewritten (duplicates folded)
}

// gcLocked rewrites live object records into fresh packs and drops the rest,
// then compacts the memo journal. This is the durable half of the paper's
// "computational garbage collection": a deterministic product whose
// (thunk → result) entry survives may be deleted and recomputed on
// demand, so durable space can be reclaimed without forgetting answers.
//
// An object is live when it is reachable from any journaled memo result
// (walking Tree entries transitively) or when live reports it so. A nil
// live keeps every indexed object — a pure compaction, which still
// reclaims space superseded by a crashed earlier GC pass. Automatic GC
// (Options.GCBudgetBytes) runs with the Options.Live predicate
// (autoGC). A pass that finds every record live and no superseded bytes
// in the packs leaves them as they are: a sweep would copy each record
// into packs just like them.
//
// Crash safety: fresh packs are written and synced before old packs are
// deleted, and records are content-addressed and idempotent — a crash
// between the two leaves duplicates that the next Open deduplicates. The
// journal is compacted by Journal.Rewrite (temp file, then rename).
// The caller holds d.mu.
func (d *Store) gcLocked(live func(core.Handle) bool) (GCStats, error) {
	st := GCStats{BytesBefore: d.packSize}
	liveSet := d.markLocked(live)
	if len(liveSet) < len(d.index) || d.packSize > d.indexedBytesLocked() {
		if err := d.sweepLocked(liveSet, &st); err != nil {
			return st, err
		}
	}
	if err := d.compactJournalLocked(&st); err != nil {
		return st, err
	}
	st.BytesAfter = d.packSize
	d.stats.GCPasses++
	d.logf("durable: gc: kept %d, dropped %d, %d → %d pack bytes",
		st.Kept, st.Dropped, st.BytesBefore, st.BytesAfter)
	return st, nil
}

// indexedBytesLocked is what the packs would hold with no superseded
// record: each pack's magic and each indexed record once.
func (d *Store) indexedBytesLocked() int64 {
	n := int64(len(d.packs)) * magicLen
	for _, loc := range d.index {
		n += loc.length
	}
	return n
}

// sweepLocked rewrites the records in liveSet into fresh packs, drops
// every other record, and deletes the old packs. The caller holds d.mu.
func (d *Store) sweepLocked(liveSet map[core.Handle]struct{}, st *GCStats) error {
	// Sequence numbers continue past every existing pack, so replay
	// order stays correct even if old packs briefly coexist with new
	// ones after a crash.
	oldPacks := d.packs
	oldIndex := d.index
	d.packs = make(map[uint64]*Journal)
	d.index = make(map[core.Handle]location, len(liveSet))
	d.packSize = 0
	cur, err := d.newPackLocked()
	if err != nil {
		d.packs, d.index = oldPacks, oldIndex
		d.packSize = st.BytesBefore
		return err
	}
	restore := func() {
		for _, p := range d.packs {
			p.retire()
			os.Remove(p.path)
		}
		d.packs, d.index = oldPacks, oldIndex
		d.packSize = st.BytesBefore
	}
	for h, loc := range oldIndex {
		if _, ok := liveSet[h]; !ok {
			st.Dropped++
			d.stats.GCDropped++
			continue
		}
		p := oldPacks[loc.pack]
		if p == nil {
			restore()
			return fmt.Errorf("durable: gc: pack %d vanished", loc.pack)
		}
		buf := make([]byte, loc.length)
		if err := p.readAt(buf, loc.offset); err != nil {
			restore()
			return err
		}
		if cur.Size() >= d.opts.MaxPackBytes {
			if cur, err = d.newPackLocked(); err != nil {
				restore()
				return err
			}
		}
		off, err := cur.appendFramed(buf)
		if err != nil {
			restore()
			return err
		}
		d.packSize += int64(len(buf))
		d.index[h] = location{pack: d.active, offset: off, length: loc.length}
		st.Kept++
	}
	// Durability point: new packs — contents AND directory entries —
	// hit disk before old ones go away, so a power loss between the two
	// can only leave recoverable duplicates, never a hole.
	packsDir := filepath.Join(d.dir, "packs")
	for _, p := range d.packs {
		if err := p.Sync(); err != nil {
			restore()
			return err
		}
	}
	if err := syncDir(packsDir); err != nil {
		restore()
		return err
	}
	// Retiring never waits on a sync of an old pack still in flight.
	for _, p := range oldPacks {
		p.retire()
		if err := os.Remove(p.path); err != nil {
			d.logf("durable: gc: remove %s: %v", p.path, err)
		}
	}
	if err := syncDir(packsDir); err != nil {
		d.logf("durable: gc: sync %s: %v", packsDir, err)
	}
	return nil
}

// autoGC runs the pass an append over the GC budget calls for. It asks
// Options.Live about every record no memo result reaches before taking
// d.mu for the pass, so a slow probe (a stat of the remote) stalls no
// persist; a record appended in between was not asked about and is kept.
func (d *Store) autoGC() {
	live := d.opts.Live
	if live != nil {
		var unreached []core.Handle
		d.mu.Lock()
		d.markLocked(func(h core.Handle) bool { unreached = append(unreached, h); return false })
		d.mu.Unlock()
		dead := make(map[core.Handle]bool, len(unreached))
		for _, h := range unreached {
			dead[h] = !live(h)
		}
		live = func(h core.Handle) bool { return !dead[h] }
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	if _, err := d.gcLocked(live); err != nil {
		d.logf("durable: auto-GC: %v", err)
	}
	d.gcFloor = d.packSize
}

// markLocked computes the live object set: everything reachable from a
// journaled memo result, plus everything reachable from a record the
// caller vouches for. live is asked only about records no memo result
// reaches, under d.mu, so it must not call back into d.
func (d *Store) markLocked(live func(core.Handle) bool) map[core.Handle]struct{} {
	liveSet := make(map[core.Handle]struct{})
	if live == nil {
		for h := range d.index {
			liveSet[h] = struct{}{}
		}
		return liveSet
	}
	var stack []core.Handle
	push := func(h core.Handle) {
		k := h.StorageKey()
		if k.IsLiteral() {
			return
		}
		if _, ok := liveSet[k]; ok {
			return
		}
		if _, ok := d.index[k]; !ok {
			return // not persisted here; nothing to keep
		}
		liveSet[k] = struct{}{}
		stack = append(stack, k)
	}
	walk := func() {
		for len(stack) > 0 {
			h := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if h.Kind() != core.KindTree {
				continue
			}
			entries, err := d.treeLocked(d.index[h])
			if err != nil {
				d.logf("durable: gc: read tree %v: %v", h, err)
				continue
			}
			for _, e := range entries {
				push(e)
			}
		}
	}
	for _, r := range d.thunks {
		push(r)
	}
	for _, r := range d.encodes {
		push(r)
	}
	walk()
	for h := range d.index {
		if _, ok := liveSet[h]; !ok && live(h) {
			push(h)
			walk()
		}
	}
	return liveSet
}

// compactJournalLocked rewrites the memo journal with exactly one record
// per entry; Journal.Rewrite leaves either the old or the new journal
// intact across a crash.
func (d *Store) compactJournalLocked(st *GCStats) error {
	return d.journal.Rewrite(func(emit func(recType byte, payload []byte) error) error {
		for _, t := range [...]struct {
			recType byte
			table   map[core.Handle]core.Handle
		}{{recThunk, d.thunks}, {recEncode, d.encodes}} {
			for k, r := range t.table {
				rec := memoRecord(k, r)
				if err := emit(t.recType, rec[:]); err != nil {
					return err
				}
				st.MemoCompact++
			}
		}
		return nil
	})
}
