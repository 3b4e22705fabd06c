package durable

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// fsyncEvery is the FsyncInterval period: the data-loss window of every
// Journal, packs included.
const fsyncEvery = 100 * time.Millisecond

// Journal is this package's one append-only file: an 8-byte magic
// followed by CRC32-framed records (see pack.go for the framing). Every
// file the system appends to is one — a Store's object packs and its
// memo journal, and the async job queue's journal (internal/jobs) — so
// each gets the same crash-recovery discipline (replay on open, torn-tail
// truncation) and the same sync rule (syncTo) from one implementation.
//
// A Journal is safe for concurrent use, and owns its durability policy:
// under FsyncInterval an append to a file with no sync pending arms a
// timer that syncs it fsyncEvery later, under FsyncAlways Commit syncs,
// under FsyncNever nothing does. No sync holds the append lock across its
// fsync, so an Append never waits on the disk, and an idle Journal costs
// no goroutine.
type Journal struct {
	// syncMu serializes syncs and Rewrite. It is taken before mu, so
	// Rewrite never swaps the file while an fsync is in flight.
	syncMu sync.Mutex
	mu     sync.Mutex
	magic  string
	policy FsyncPolicy
	path   string
	f      *os.File // nil once closed
	size   int64    // bytes written, magic included
	// synced is the prefix an fsync is known to have made durable: the
	// file is dirty while synced < size.
	synced int64
	buf    []byte      // Append's frame scratch
	armed  bool        // FsyncInterval: timer will sync the file
	timer  *time.Timer // FsyncInterval: nil until the first append
}

// MaxJournalPayload bounds one record's payload; Append rejects anything
// larger, because replay would treat the over-length record as corruption
// and silently truncate it on the next open.
const MaxJournalPayload = maxPayload

// OpenJournal opens (or creates) an append-only journal at path. magic
// must be exactly 8 bytes and distinguishes this journal's format from
// unrelated files. Existing records are replayed through visit in append
// order before OpenJournal returns, each payload valid only until visit
// returns; a torn or corrupt tail — the signature of a crash mid-append —
// is truncated away rather than treated as an error, and dropped reports
// how many bytes were discarded. visit may be nil when the caller does
// not need replay. policy decides when later appends reach stable storage
// (see Commit).
func OpenJournal(path, magic string, policy FsyncPolicy, visit func(recType byte, payload []byte) error) (j *Journal, dropped int64, err error) {
	if len(magic) != magicLen {
		return nil, 0, fmt.Errorf("durable: journal magic must be %d bytes, got %d", magicLen, len(magic))
	}
	var v func(int64, byte, []byte) error
	if visit != nil {
		v = func(_ int64, recType byte, payload []byte) error { return visit(recType, payload) }
	}
	return openJournal(path, magic, policy, v)
}

// openJournal is OpenJournal with each record's offset passed to visit:
// the Store indexes pack records by it.
func openJournal(path, magic string, policy FsyncPolicy, visit func(off int64, recType byte, payload []byte) error) (*Journal, int64, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, err
	}
	j := &Journal{magic: magic, policy: policy, path: path, f: f}
	dropped, err := j.replay(visit)
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return j, dropped, nil
}

// replayBuf is the read buffer replay streams a file through.
const replayBuf = 64 << 10

// replay writes the magic into an empty file and validates it in a
// non-empty one, then calls visit for each valid record with its offset.
// It reads the file once, front to back, through one buffered reader,
// into one record buffer it reuses: visit's payload is valid only until
// visit returns. On a torn or corrupt tail it truncates the file to the
// last valid record and reports how many bytes were dropped. Corruption
// is indistinguishable from a crash mid-append, and the append-only
// discipline means everything before the tear is intact — so truncation,
// not failure, is the correct recovery.
func (j *Journal) replay(visit func(off int64, recType byte, payload []byte) error) (dropped int64, err error) {
	st, err := j.f.Stat()
	if err != nil {
		return 0, err
	}
	j.size, j.synced = st.Size(), st.Size()
	if j.size < magicLen {
		// Empty, or a runt left by a crash during file creation (the
		// magic itself was torn). Re-initialize rather than fail: like
		// any torn tail, everything before the tear — here, nothing —
		// is the consistent prefix.
		if err := j.f.Truncate(0); err != nil {
			return 0, err
		}
		if _, err := j.f.WriteAt([]byte(j.magic), 0); err != nil {
			return 0, err
		}
		j.size, j.synced = magicLen, 0
		return 0, nil
	}
	r := bufio.NewReaderSize(io.NewSectionReader(j.f, 0, j.size), replayBuf)
	var hdr [magicLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, fmt.Errorf("durable: %s: short magic: %w", j.path, err)
	}
	if string(hdr[:]) != j.magic {
		return 0, fmt.Errorf("durable: %s: bad magic %q (want %q)", j.path, hdr[:], j.magic)
	}
	var rec []byte // one record's payload and CRC
	off := int64(magicLen)
	for off < j.size {
		rest := j.size - off
		if rest < recHeaderLen {
			break // torn header
		}
		if _, err := io.ReadFull(r, hdr[:recHeaderLen]); err != nil {
			return 0, err
		}
		plen := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		if plen > maxPayload || recHeaderLen+plen+recTrailLen > rest {
			break // corrupt length or torn payload/crc
		}
		if n := int(plen + recTrailLen); cap(rec) < n {
			rec = make([]byte, n)
		} else {
			rec = rec[:n]
		}
		if _, err := io.ReadFull(r, rec); err != nil {
			return 0, err
		}
		crc := crc32.Update(crc32.Update(0, crc32.IEEETable, hdr[4:5]), crc32.IEEETable, rec[:plen])
		if crc != binary.LittleEndian.Uint32(rec[plen:]) {
			break // torn or bit-flipped record
		}
		if visit != nil {
			if err := visit(off, hdr[4], rec[:plen]); err != nil {
				return 0, err
			}
		}
		off += recHeaderLen + plen + recTrailLen
	}
	if off < j.size {
		dropped = j.size - off
		if err := j.f.Truncate(off); err != nil {
			return 0, err
		}
		j.size = off
		j.synced = 0 // no fsync has covered the truncation
	}
	return dropped, nil
}

// errJournalClosed reports use after Close.
var errJournalClosed = errors.New("durable: journal is closed")

// maxKeptFrame bounds the frame scratch a Journal keeps between appends;
// a larger record's buffer goes to the GC.
const maxKeptFrame = 64 << 10

// Append frames and appends one record: a page-cache write, never an
// fsync, so it is cheap to call under the caller's own lock. The record
// is framed into a buffer the journal reuses.
func (j *Journal) Append(recType byte, payload []byte) error {
	if int64(len(payload)) > MaxJournalPayload {
		return fmt.Errorf("durable: journal payload %d bytes exceeds %d-byte record limit", len(payload), MaxJournalPayload)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.buf = appendFrame(j.buf[:0], recType, nil, payload)
	_, err := j.appendLocked(j.buf)
	if cap(j.buf) > maxKeptFrame {
		j.buf = nil
	}
	return err
}

// appendFramed appends one record its caller framed and returns the
// record's offset: the Store frames object records outside its own lock
// and indexes them by offset.
func (j *Journal) appendFramed(rec []byte) (int64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendLocked(rec)
}

func (j *Journal) appendLocked(rec []byte) (int64, error) {
	if j.f == nil {
		return 0, errJournalClosed
	}
	off := j.size
	if _, err := j.f.WriteAt(rec, off); err != nil {
		return 0, err
	}
	j.size += int64(len(rec))
	j.armLocked()
	return off, nil
}

// armLocked starts the FsyncInterval timer unless one is pending, so
// every append is synced within fsyncEvery of when it was written.
func (j *Journal) armLocked() {
	if j.policy != FsyncInterval || j.armed || j.f == nil {
		return
	}
	j.armed = true
	if j.timer == nil {
		j.timer = time.AfterFunc(fsyncEvery, j.flush)
	} else {
		j.timer.Reset(fsyncEvery)
	}
}

// flush is the FsyncInterval timer's callback. It disarms before it
// syncs, so an append during the sync arms the next timer, and it re-arms
// after a failed sync, so the dirty file is retried.
func (j *Journal) flush() {
	j.mu.Lock()
	j.armed = false
	j.mu.Unlock()
	if j.Sync() != nil {
		j.mu.Lock()
		j.armLocked()
		j.mu.Unlock()
	}
}

// Commit makes every appended record durable when the policy is
// FsyncAlways and is a no-op otherwise. Callers invoke it after
// releasing their own lock and before acknowledging the transition the
// records describe: an fsync is milliseconds, and holding a wide lock
// across it would serialize everything behind disk latency. When an
// fsync that started after the caller's records were appended has
// already finished, Commit returns without one of its own.
func (j *Journal) Commit() error {
	if j.policy != FsyncAlways {
		return nil
	}
	j.mu.Lock()
	end := j.size
	j.mu.Unlock()
	return j.syncTo(end)
}

// Sync forces all appended records to stable storage.
func (j *Journal) Sync() error {
	return j.syncTo(math.MaxInt64)
}

// syncTo is the one sync rule for appended records. It makes the file
// durable at least through offset end: at once when an earlier fsync
// covered it, otherwise by one fsync, issued outside mu, that covers
// every record appended before it starts. A failed fsync leaves the file
// dirty for the next one. A file retired while its fsync is in flight
// reports success: os.File defers the close until the fsync returns, and
// whoever retired the file answers for its records.
func (j *Journal) syncTo(end int64) error {
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	j.mu.Lock()
	f, to, covered := j.f, j.size, j.synced >= min(end, j.size)
	j.mu.Unlock()
	if f == nil {
		return errJournalClosed
	}
	if covered {
		return nil
	}
	err := fsync(f)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != f {
		return nil
	}
	if err == nil {
		j.synced = to
	}
	return err
}

// Size reports the journal's current on-disk size in bytes (including
// the magic).
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return 0
	}
	return j.size
}

// readAt reads len(buf) bytes of the file at off.
func (j *Journal) readAt(buf []byte, off int64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errJournalClosed
	}
	_, err := j.f.ReadAt(buf, off)
	return err
}

// Close syncs and closes the journal, after any sync in flight. The
// Journal must not be used after Close; an append racing Close may reach
// the file after the final sync.
func (j *Journal) Close() error {
	err := j.Sync()
	if errors.Is(err, errJournalClosed) {
		return nil
	}
	if cerr := j.retire(); err == nil {
		err = cerr
	}
	return err
}

// retire closes the file without a sync and stops its timer: Close after
// its final sync, and GC for a pack whose records it synced into fresh
// packs. It takes only mu, so it never waits on an fsync in flight.
func (j *Journal) retire() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	if j.timer != nil {
		j.timer.Stop()
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// Rewrite atomically replaces the journal's contents with the records
// emitted by fn — the compaction path for journals whose state is the
// fold of many superseded records (e.g. a job that was enqueued, started,
// failed, retried, and completed needs only two records to reconstruct).
// The replacement is written to a temporary file, synced, and renamed
// over the journal, so a crash at any point leaves either the old or the
// new journal intact — never a mix.
func (j *Journal) Rewrite(fn func(emit func(recType byte, payload []byte) error) error) error {
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errJournalClosed
	}
	tmp := j.path + ".rewrite"
	nf, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	size := int64(magicLen)
	_, err = nf.WriteAt([]byte(j.magic), 0)
	var buf []byte
	emit := func(recType byte, payload []byte) error {
		if int64(len(payload)) > MaxJournalPayload {
			return fmt.Errorf("durable: journal payload %d bytes exceeds %d-byte record limit", len(payload), MaxJournalPayload)
		}
		buf = appendFrame(buf[:0], recType, nil, payload)
		if _, err := nf.WriteAt(buf, size); err != nil {
			return err
		}
		size += int64(len(buf))
		return nil
	}
	if err == nil {
		err = fn(emit)
	}
	if err == nil {
		err = fsync(nf)
	}
	if err == nil {
		err = os.Rename(tmp, j.path)
	}
	if err != nil {
		nf.Close()
		os.Remove(tmp)
		return err
	}
	// The rename already took effect: the journal's live file IS the new
	// one whatever happens next, so swap state before reporting any
	// later error — otherwise subsequent appends would write to the
	// replaced inode and silently vanish.
	old := j.f
	j.f, j.size, j.synced = nf, size, size
	cerr := old.Close()
	// The rename must itself be durable before the old contents are
	// considered gone.
	if err := syncDir(filepath.Dir(j.path)); err != nil {
		return err
	}
	return cerr
}
