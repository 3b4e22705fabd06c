package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// fsyncEvery is the FsyncInterval period: the data-loss window of every
// file this package keeps (packs and each Journal).
const fsyncEvery = 100 * time.Millisecond

// Journal is the exported, general-purpose form of this package's
// append-only file format: an 8-byte magic followed by CRC32-framed
// records (see pack.go for the framing). Every journal in the system is
// one — the Store's memo journal, the async job queue's (internal/jobs)
// and the edge log's (internal/edgelog) — so each gets the same
// crash-recovery discipline (replay on open, torn-tail truncation) from
// one implementation; only the pack files use the framing directly.
//
// A Journal is safe for concurrent use, and owns its durability policy:
// under FsyncInterval it syncs itself from a background ticker until
// Close, under FsyncAlways Commit syncs, under FsyncNever nothing does.
type Journal struct {
	mu     sync.Mutex
	magic  string
	policy FsyncPolicy
	f      *appendFile

	stop chan struct{} // closed by Close; nil unless FsyncInterval
	done chan struct{} // closed when the ticker goroutine has exited
}

// MaxJournalPayload bounds one record's payload; Append rejects anything
// larger, because replay would treat the over-length record as corruption
// and silently truncate it on the next open.
const MaxJournalPayload = maxPayload

// OpenJournal opens (or creates) an append-only journal at path. magic
// must be exactly 8 bytes and distinguishes this journal's format from
// unrelated files. Existing records are replayed through visit in append
// order before OpenJournal returns; a torn or corrupt tail — the
// signature of a crash mid-append — is truncated away rather than treated
// as an error, and dropped reports how many bytes were discarded. visit
// may be nil when the caller does not need replay. policy decides when
// later appends reach stable storage (see Commit).
func OpenJournal(path, magic string, policy FsyncPolicy, visit func(recType byte, payload []byte) error) (j *Journal, dropped int64, err error) {
	if len(magic) != magicLen {
		return nil, 0, fmt.Errorf("durable: journal magic must be %d bytes, got %d", magicLen, len(magic))
	}
	a, err := openAppend(path, magic)
	if err != nil {
		return nil, 0, err
	}
	dropped, err = a.scan(func(off int64, recType byte, payload []byte) error {
		if visit == nil {
			return nil
		}
		return visit(recType, payload)
	})
	if err != nil {
		a.f.Close()
		return nil, 0, err
	}
	j = &Journal{magic: magic, policy: policy, f: a}
	if policy == FsyncInterval {
		j.stop = make(chan struct{})
		j.done = make(chan struct{})
		go j.syncLoop()
	}
	return j, dropped, nil
}

func (j *Journal) syncLoop() {
	defer close(j.done)
	t := time.NewTicker(fsyncEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_ = j.Sync()
		case <-j.stop:
			return
		}
	}
}

// errJournalClosed reports use after Close.
var errJournalClosed = errors.New("durable: journal is closed")

// Append frames and appends one record: a page-cache write, never an
// fsync, so it is cheap to call under the caller's own lock.
func (j *Journal) Append(recType byte, payload []byte) error {
	if int64(len(payload)) > MaxJournalPayload {
		return fmt.Errorf("durable: journal payload %d bytes exceeds %d-byte record limit", len(payload), MaxJournalPayload)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errJournalClosed
	}
	_, err := j.f.append(frame(recType, payload))
	return err
}

// Commit makes every appended record durable when the policy is
// FsyncAlways and is a no-op otherwise. Callers invoke it after
// releasing their own lock and before acknowledging the transition the
// records describe: an fsync is milliseconds, and holding a wide lock
// across it would serialize everything behind disk latency.
func (j *Journal) Commit() error {
	if j.policy != FsyncAlways {
		return nil
	}
	return j.Sync()
}

// Sync forces all appended records to stable storage.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errJournalClosed
	}
	return j.f.sync()
}

// Size reports the journal's current on-disk size in bytes (including
// the magic).
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return 0
	}
	return j.f.size
}

// Close syncs and closes the journal. The Journal must not be used after
// Close.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.f == nil {
		j.mu.Unlock()
		return nil
	}
	err := j.f.sync()
	if cerr := j.f.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	j.mu.Unlock()
	if j.stop != nil {
		close(j.stop)
		<-j.done
	}
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
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errJournalClosed
	}
	path := j.f.path
	tmp := path + ".rewrite"
	nf, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	a := &appendFile{f: nf, path: tmp}
	if _, err := nf.WriteAt([]byte(j.magic), 0); err != nil {
		nf.Close()
		os.Remove(tmp)
		return err
	}
	a.size = magicLen
	emit := func(recType byte, payload []byte) error {
		if int64(len(payload)) > MaxJournalPayload {
			return fmt.Errorf("durable: journal payload %d bytes exceeds %d-byte record limit", len(payload), MaxJournalPayload)
		}
		_, err := a.append(frame(recType, payload))
		return err
	}
	if err := fn(emit); err != nil {
		nf.Close()
		os.Remove(tmp)
		return err
	}
	if err := nf.Sync(); err != nil {
		nf.Close()
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		nf.Close()
		os.Remove(tmp)
		return err
	}
	// The rename already took effect: the journal's live file IS the new
	// one whatever happens next, so swap state before reporting any
	// later error — otherwise subsequent appends would write to the
	// replaced inode and silently vanish.
	old := j.f
	j.f = a
	a.path = path
	cerr := old.f.Close()
	// The rename must itself be durable before the old contents are
	// considered gone.
	if err := syncDir(filepath.Dir(path)); err != nil {
		return err
	}
	return cerr
}
