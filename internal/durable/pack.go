package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"fixgo/internal/core"
)

// File and record framing of every Journal: pack files, the memo journal
// and the job queue's journal.
//
//	file   := magic(8) record*
//	record := payloadLen(u32 LE) recType(u8) payload crc32(u32 LE)
//
// The CRC covers recType and payload. A record whose header, payload, or
// CRC cannot be read in full — or whose CRC mismatches — marks the torn
// tail of the file: replay truncates there. Object payloads are
// handle(32) || packed bytes; memo payloads are key(32) || result(32).
const (
	packMagic    = "FIXPACK1"
	journalMagic = "FIXMEMO1"
	magicLen     = 8
	recHeaderLen = 5 // u32 length + u8 type
	recTrailLen  = 4 // u32 crc
	// maxPayload rejects absurd length fields produced by corruption so
	// replay does not attempt a multi-gigabyte allocation. Fix objects
	// are bounded far below this (48-bit sizes exist, but a single pack
	// record is one Blob or Tree, and MaxPackBytes rotates well before).
	maxPayload = 1 << 30
)

// Record types.
const (
	recBlob   = byte(1)
	recTree   = byte(2)
	recThunk  = byte(3)
	recEncode = byte(4)
)

// fsync forces a file's contents to stable storage. Every sync of a
// Journal goes through it (syncTo, and Rewrite's temp file), so a test can
// hold one in flight or count them.
var fsync = (*os.File).Sync

func packPath(dir string, seq uint64) string {
	return filepath.Join(dir, "packs", fmt.Sprintf("%08d.pack", seq))
}

// syncDir fsyncs a directory so freshly created, renamed, or unlinked
// entries survive power loss (a file's own fsync does not make its
// directory entry durable).
func syncDir(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// appendFrame appends one record whose payload is head followed by body,
// so a caller with a two-part payload frames it without joining the parts
// first.
func appendFrame(dst []byte, recType byte, head, body []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(head)+len(body)))
	start := len(dst)
	dst = append(dst, recType)
	dst = append(dst, head...)
	dst = append(dst, body...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// replayPacks opens every pack under dir/packs in sequence order and
// rebuilds the object index.
func (d *Store) replayPacks() error {
	entries, err := os.ReadDir(filepath.Join(d.dir, "packs"))
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".pack") {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(name, ".pack"), 10, 64)
		if err != nil {
			d.logf("durable: ignoring unrecognized pack file %s", name)
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		path := packPath(d.dir, seq)
		p, dropped, err := openJournal(path, packMagic, d.opts.Fsync, func(off int64, recType byte, payload []byte) error {
			if recType != recBlob && recType != recTree {
				return fmt.Errorf("durable: %s: unexpected record type %d", path, recType)
			}
			if len(payload) < core.HandleSize {
				return fmt.Errorf("durable: %s: object record shorter than a handle", path)
			}
			var h core.Handle
			copy(h[:], payload[:core.HandleSize])
			d.index[h] = location{
				pack:   seq,
				offset: off,
				length: int64(recHeaderLen + len(payload) + recTrailLen),
			}
			return nil
		})
		if err != nil {
			return err
		}
		if dropped > 0 {
			d.stats.TruncatedTail++
			d.logf("durable: %s: truncated %d-byte torn tail", path, dropped)
		}
		d.packs[seq] = p
		d.packSize += p.Size()
		if seq >= d.nextSeq {
			d.nextSeq = seq + 1
		}
		d.active = seq
	}
	if len(d.packs) == 0 {
		if _, err := d.newPackLocked(); err != nil {
			return err
		}
	}
	return nil
}

// replayJournal rebuilds the memo tables from dir/memo.journal.
func (d *Store) replayJournal() error {
	path := filepath.Join(d.dir, "memo.journal")
	j, dropped, err := OpenJournal(path, journalMagic, d.opts.Fsync, func(recType byte, payload []byte) error {
		if recType != recThunk && recType != recEncode {
			return fmt.Errorf("durable: %s: unexpected record type %d", path, recType)
		}
		if len(payload) != 2*core.HandleSize {
			return fmt.Errorf("durable: %s: memo record is %d bytes, want %d", path, len(payload), 2*core.HandleSize)
		}
		var k, r core.Handle
		copy(k[:], payload[:core.HandleSize])
		copy(r[:], payload[core.HandleSize:])
		if recType == recThunk {
			d.thunks[k] = r
		} else {
			d.encodes[k] = r
		}
		return nil
	})
	if err != nil {
		return err
	}
	if dropped > 0 {
		d.stats.TruncatedTail++
		d.logf("durable: %s: truncated %d-byte torn tail", path, dropped)
	}
	d.journal = j
	return nil
}

// memoRecord is a memo record's payload: key(32) || result(32).
func memoRecord(key, result core.Handle) (p [2 * core.HandleSize]byte) {
	copy(p[:], key[:])
	copy(p[core.HandleSize:], result[:])
	return p
}

// newPackLocked rotates to a fresh active pack.
func (d *Store) newPackLocked() (*Journal, error) {
	seq := d.nextSeq
	d.nextSeq++
	p, _, err := openJournal(packPath(d.dir, seq), packMagic, d.opts.Fsync, nil)
	if err != nil {
		return nil, err
	}
	d.packs[seq] = p
	d.packSize += p.Size()
	d.active = seq
	if d.opts.Fsync == FsyncAlways {
		// Under the no-loss policy the new pack's directory entry must
		// be durable too; weaker policies accept losing the newest pack
		// the same way they accept a torn tail.
		if err := syncDir(filepath.Join(d.dir, "packs")); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// appendObject writes one Blob/Tree record through to disk, deduplicating
// on the object index (content-addressing makes re-puts free).
func (d *Store) appendObject(h core.Handle, packed []byte) error {
	if int64(core.HandleSize+len(packed)) > maxPayload {
		// Replay treats over-length records as corruption, so writing
		// one would persist data only to silently discard it on the
		// next Open. Refuse up front.
		return fmt.Errorf("durable: object %v payload %d bytes exceeds %d-byte record limit", h, len(packed), maxPayload)
	}
	// Cheap dedup probe before building the record: re-puts of evicted
	// or peer-ingested objects are common and should not pay a full
	// frame copy.
	d.mu.Lock()
	loc, dup := d.index[h]
	p := d.packs[loc.pack]
	d.mu.Unlock()
	if !dup {
		recType := recBlob
		if h.Kind() == core.KindTree {
			recType = recTree
		}
		rec := appendFrame(make([]byte, 0, recHeaderLen+core.HandleSize+len(packed)+recTrailLen), recType, h[:], packed)
		var gc bool
		var err error
		if p, loc, gc, err = d.appendRecord(h, rec); err != nil {
			return err
		}
		if gc {
			d.autoGC()
		}
	}
	if d.opts.Fsync != FsyncAlways {
		return nil
	}
	// A duplicate syncs too: the put that appended it may not have
	// synced it yet. A closed pack is no failure: GC retired it after
	// syncing the records' new home, or Close synced it or reported why
	// not.
	if err := p.syncTo(loc.offset + loc.length); !errors.Is(err, errJournalClosed) {
		return err
	}
	return nil
}

// appendRecord appends h's framed record to the active pack, unless a
// concurrent put got there first, and returns the pack and location of
// h's record, and whether the append crossed the GC budget: the caller
// then runs autoGC.
func (d *Store) appendRecord(h core.Handle, rec []byte) (*Journal, location, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, location{}, false, errStoreClosed
	}
	if loc, ok := d.index[h]; ok {
		return d.packs[loc.pack], loc, false, nil
	}
	p := d.packs[d.active]
	if p == nil || p.Size() >= d.opts.MaxPackBytes {
		var err error
		if p, err = d.newPackLocked(); err != nil {
			return nil, location{}, false, err
		}
	}
	off, err := p.appendFramed(rec)
	if err != nil {
		return nil, location{}, false, err
	}
	loc := location{pack: d.active, offset: off, length: int64(len(rec))}
	d.packSize += loc.length
	d.index[h] = loc
	d.stats.Appends++
	gc := false
	if b := d.opts.GCBudgetBytes; b > 0 && d.packSize > b && d.packSize > d.gcFloor+b/4 {
		d.gcFloor, gc = d.packSize, true // no concurrent append triggers it too
	}
	return p, loc, gc, nil
}

// appendMemo journals one memoization entry, deduplicating identical
// (key → result) pairs (determinism guarantees a key never remaps).
func (d *Store) appendMemo(recType byte, key, result core.Handle) error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return errStoreClosed
	}
	table := d.thunks
	if recType == recEncode {
		table = d.encodes
	}
	if prev, ok := table[key]; ok && prev == result {
		// Under FsyncAlways the appender of this record may not have
		// synced it yet; Commit waits for that sync or makes its own.
		d.mu.Unlock()
		return d.journal.Commit()
	}
	rec := memoRecord(key, result)
	if err := d.journal.Append(recType, rec[:]); err != nil {
		d.mu.Unlock()
		return err
	}
	table[key] = result
	d.stats.MemoAppends++
	d.mu.Unlock()
	return d.journal.Commit()
}

// objectLocked reads the packed object bytes of the record at loc, without
// its framing, into a slice of their size; the caller holds d.mu. Replay
// checked the record's CRC and length, and a reader that stores the
// bytes checks them against their handle.
func (d *Store) objectLocked(loc location) ([]byte, error) {
	p := d.packs[loc.pack]
	if p == nil {
		return nil, fmt.Errorf("durable: pack %d vanished", loc.pack)
	}
	const head = recHeaderLen + core.HandleSize
	buf := make([]byte, loc.length-head-recTrailLen)
	if err := p.readAt(buf, loc.offset+head); err != nil {
		return nil, err
	}
	return buf, nil
}
