package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"fixgo/internal/core"
)

// File and record framing, shared by pack files and every Journal (the
// memo journal among them).
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

// appendFile is an append-only file with size tracking and sync-on-demand.
type appendFile struct {
	f     *os.File
	path  string
	size  int64
	dirty bool
}

func (a *appendFile) append(rec []byte) (offset int64, err error) {
	offset = a.size
	if _, err := a.f.WriteAt(rec, offset); err != nil {
		return 0, err
	}
	a.size += int64(len(rec))
	a.dirty = true
	return offset, nil
}

func (a *appendFile) sync() error {
	if !a.dirty {
		return nil
	}
	if err := a.f.Sync(); err != nil {
		return err
	}
	a.dirty = false
	return nil
}

// packFile is one numbered object pack.
type packFile struct {
	appendFile
	seq uint64
}

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

// frame encodes one record.
func frame(recType byte, payload []byte) []byte {
	rec := make([]byte, recHeaderLen+len(payload)+recTrailLen)
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	rec[4] = recType
	copy(rec[recHeaderLen:], payload)
	crc := crc32.ChecksumIEEE(rec[4 : recHeaderLen+len(payload)])
	binary.LittleEndian.PutUint32(rec[recHeaderLen+len(payload):], crc)
	return rec
}

// openAppend opens (or creates) an append-only file, writing the magic
// into an empty file and validating it in a non-empty one.
func openAppend(path, magic string) (*appendFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	a := &appendFile{f: f, path: path, size: st.Size()}
	if a.size < int64(magicLen) {
		// Empty, or a runt left by a crash during file creation (the
		// magic itself was torn). Re-initialize rather than fail: like
		// any torn tail, everything before the tear — here, nothing —
		// is the consistent prefix.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, err
		}
		if _, err := f.WriteAt([]byte(magic), 0); err != nil {
			f.Close()
			return nil, err
		}
		a.size = magicLen
		a.dirty = true
		return a, nil
	}
	hdr := make([]byte, magicLen)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, int64(magicLen)), hdr); err != nil {
		f.Close()
		return nil, fmt.Errorf("durable: %s: short magic: %w", path, err)
	}
	if string(hdr) != magic {
		f.Close()
		return nil, fmt.Errorf("durable: %s: bad magic %q (want %q)", path, hdr, magic)
	}
	return a, nil
}

// scan replays a file's records, calling visit for each valid one with
// its offset and framed length. On a torn or corrupt tail it truncates
// the file to the last valid record and reports how many bytes were
// dropped. Corruption is indistinguishable from a crash mid-append, and
// the append-only discipline means everything before the tear is intact —
// so truncation, not failure, is the correct recovery.
func (a *appendFile) scan(visit func(offset int64, recType byte, payload []byte) error) (dropped int64, err error) {
	off := int64(magicLen)
	var hdr [recHeaderLen]byte
	for off < a.size {
		rest := a.size - off
		if rest < recHeaderLen {
			break // torn header
		}
		if _, err := a.f.ReadAt(hdr[:], off); err != nil {
			return 0, err
		}
		plen := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		if plen > maxPayload || recHeaderLen+plen+recTrailLen > rest {
			break // corrupt length or torn payload/crc
		}
		buf := make([]byte, plen+recTrailLen)
		if _, err := a.f.ReadAt(buf, off+recHeaderLen); err != nil {
			return 0, err
		}
		crc := crc32.Update(crc32.Update(0, crc32.IEEETable, hdr[4:5]), crc32.IEEETable, buf[:plen])
		if crc != binary.LittleEndian.Uint32(buf[plen:]) {
			break // torn or bit-flipped record
		}
		if err := visit(off, hdr[4], buf[:plen]); err != nil {
			return 0, err
		}
		off += recHeaderLen + plen + recTrailLen
	}
	if off < a.size {
		dropped = a.size - off
		if err := a.f.Truncate(off); err != nil {
			return 0, err
		}
		a.size = off
		a.dirty = true
	}
	return dropped, nil
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
		a, err := openAppend(packPath(d.dir, seq), packMagic)
		if err != nil {
			return err
		}
		p := &packFile{appendFile: *a, seq: seq}
		dropped, err := p.scan(func(off int64, recType byte, payload []byte) error {
			if recType != recBlob && recType != recTree {
				return fmt.Errorf("durable: %s: unexpected record type %d", p.path, recType)
			}
			if len(payload) < core.HandleSize {
				return fmt.Errorf("durable: %s: object record shorter than a handle", p.path)
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
			p.f.Close()
			return err
		}
		if dropped > 0 {
			d.stats.TruncatedTail++
			d.logf("durable: %s: truncated %d-byte torn tail", p.path, dropped)
		}
		d.packs[seq] = p
		d.packSize += p.size
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
func (d *Store) newPackLocked() (*packFile, error) {
	seq := d.nextSeq
	d.nextSeq++
	a, err := openAppend(packPath(d.dir, seq), packMagic)
	if err != nil {
		return nil, err
	}
	p := &packFile{appendFile: *a, seq: seq}
	d.packs[seq] = p
	d.packSize += p.size
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
	_, dup := d.index[h]
	d.mu.Unlock()
	if dup {
		return nil
	}
	recType := recBlob
	if h.Kind() == core.KindTree {
		recType = recTree
	}
	payload := make([]byte, core.HandleSize+len(packed))
	copy(payload, h[:])
	copy(payload[core.HandleSize:], packed)
	rec := frame(recType, payload)

	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return fmt.Errorf("durable: store is closed")
	}
	if _, ok := d.index[h]; ok {
		return nil
	}
	p := d.packs[d.active]
	if p == nil || p.size >= d.opts.MaxPackBytes {
		var err error
		if p, err = d.newPackLocked(); err != nil {
			return err
		}
	}
	off, err := p.append(rec)
	if err != nil {
		return err
	}
	d.packSize += int64(len(rec))
	d.index[h] = location{pack: p.seq, offset: off, length: int64(len(rec))}
	d.stats.Appends++
	if d.opts.Fsync == FsyncAlways {
		if err := p.sync(); err != nil {
			return err
		}
	}
	if b := d.opts.GCBudgetBytes; b > 0 && d.packSize > b && d.packSize > d.gcFloor+b/4 {
		if _, err := d.gcLocked(d.opts.Live); err != nil {
			d.logf("durable: auto-GC: %v", err)
		}
		d.gcFloor = d.packSize
	}
	return nil
}

// appendMemo journals one memoization entry, deduplicating identical
// (key → result) pairs (determinism guarantees a key never remaps).
func (d *Store) appendMemo(recType byte, key, result core.Handle) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return fmt.Errorf("durable: store is closed")
	}
	table := d.thunks
	if recType == recEncode {
		table = d.encodes
	}
	if prev, ok := table[key]; ok && prev == result {
		return nil
	}
	rec := memoRecord(key, result)
	if err := d.journal.Append(recType, rec[:]); err != nil {
		return err
	}
	table[key] = result
	d.stats.MemoAppends++
	return d.journal.Commit()
}

// readRecordLocked fetches one framed record and returns its type and
// payload.
func (d *Store) readRecordLocked(loc location) (byte, []byte, error) {
	p := d.packs[loc.pack]
	if p == nil {
		return 0, nil, fmt.Errorf("durable: pack %d vanished", loc.pack)
	}
	buf := make([]byte, loc.length)
	if _, err := p.f.ReadAt(buf, loc.offset); err != nil {
		return 0, nil, err
	}
	plen := int64(binary.LittleEndian.Uint32(buf[0:4]))
	if recHeaderLen+plen+recTrailLen != loc.length {
		return 0, nil, fmt.Errorf("durable: pack %d offset %d: length mismatch", loc.pack, loc.offset)
	}
	return buf[4], buf[recHeaderLen : recHeaderLen+plen], nil
}
