package durable

import (
	"fmt"
	"os"
	"path/filepath"

	"fixgo/internal/core"
)

// GCStats reports one garbage-collection pass.
type GCStats struct {
	Kept        int   // live records rewritten into fresh packs
	Dropped     int   // unreferenced records discarded
	BytesBefore int64 // pack footprint entering the pass
	BytesAfter  int64 // pack footprint after the pass
	MemoCompact int   // journal entries rewritten (duplicates folded)
}

// GC rewrites live object records into fresh packs and drops the rest,
// then compacts the memo journal. This is the durable half of the paper's
// "computational garbage collection": a deterministic product whose
// (thunk → result) entry survives may be deleted and recomputed on
// demand, so durable space can be reclaimed without forgetting answers.
//
// An object is live when it is reachable from any journaled memo result
// (walking Tree entries transitively) or when live reports it so. A nil
// live keeps every indexed object — a pure compaction, which still
// reclaims space superseded by a crashed earlier GC pass. Automatic GC
// (Options.GCBudgetBytes) runs with the Options.Live predicate.
//
// Crash safety: fresh packs are written and synced before old packs are
// deleted, and records are content-addressed and idempotent — a crash
// between the two leaves duplicates that the next Open deduplicates. The
// journal is compacted by Journal.Rewrite (temp file, then rename).
func (d *Store) GC(live func(core.Handle) bool) (GCStats, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return GCStats{}, fmt.Errorf("durable: store is closed")
	}
	return d.gcLocked(live)
}

func (d *Store) gcLocked(live func(core.Handle) bool) (GCStats, error) {
	st := GCStats{BytesBefore: d.packSize}

	liveSet := d.markLocked(live)

	// Sweep: rewrite live records into fresh packs (sequence numbers
	// continue past every existing pack, so replay order stays correct
	// even if old packs briefly coexist with new ones after a crash).
	oldPacks := d.packs
	oldIndex := d.index
	d.packs = make(map[uint64]*packFile)
	d.index = make(map[core.Handle]location, len(liveSet))
	d.packSize = 0
	cur, err := d.newPackLocked()
	if err != nil {
		d.packs, d.index = oldPacks, oldIndex
		d.packSize = st.BytesBefore
		return st, err
	}
	restore := func() {
		for _, p := range d.packs {
			p.f.Close()
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
			return st, fmt.Errorf("durable: gc: pack %d vanished", loc.pack)
		}
		buf := make([]byte, loc.length)
		if _, err := p.f.ReadAt(buf, loc.offset); err != nil {
			restore()
			return st, err
		}
		if cur.size >= d.opts.MaxPackBytes {
			if cur, err = d.newPackLocked(); err != nil {
				restore()
				return st, err
			}
		}
		off, err := cur.append(buf)
		if err != nil {
			restore()
			return st, err
		}
		d.packSize += int64(len(buf))
		d.index[h] = location{pack: cur.seq, offset: off, length: loc.length}
		st.Kept++
	}
	// Durability point: new packs — contents AND directory entries —
	// hit disk before old ones go away, so a power loss between the two
	// can only leave recoverable duplicates, never a hole.
	packsDir := filepath.Join(d.dir, "packs")
	for _, p := range d.packs {
		if err := p.sync(); err != nil {
			restore()
			return st, err
		}
	}
	if err := syncDir(packsDir); err != nil {
		restore()
		return st, err
	}
	for _, p := range oldPacks {
		p.f.Close()
		if err := os.Remove(p.path); err != nil {
			d.logf("durable: gc: remove %s: %v", p.path, err)
		}
	}
	if err := syncDir(packsDir); err != nil {
		d.logf("durable: gc: sync %s: %v", packsDir, err)
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

// markLocked computes the live object set: everything reachable from a
// journaled memo result plus everything the caller vouches for.
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
	for _, r := range d.thunks {
		push(r)
	}
	for _, r := range d.encodes {
		push(r)
	}
	for h := range d.index {
		if live(h) {
			push(h)
		}
	}
	for len(stack) > 0 {
		h := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if h.Kind() != core.KindTree {
			continue
		}
		_, payload, err := d.readRecordLocked(d.index[h])
		if err != nil {
			d.logf("durable: gc: read %v: %v", h, err)
			continue
		}
		entries, err := core.DecodeTree(payload[core.HandleSize:])
		if err != nil {
			d.logf("durable: gc: decode tree %v: %v", h, err)
			continue
		}
		for _, e := range entries {
			push(e)
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
