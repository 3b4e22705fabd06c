package storage

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"fixgo/internal/core"
)

// tmpPrefix marks in-flight object files; the LFC warm scan removes them,
// and a crash mid-write leaves only a temp file behind.
const tmpPrefix = "tmp-"

// Dir is an S3-like blob tier over a local directory: one file per
// object, sharded by the first byte of the handle, filled by write to a
// temp file plus atomic rename. It stands in for a real remote blob
// service in tests and benches, and is a usable single-machine remote
// tier (e.g. a directory on network-attached storage).
type Dir struct {
	dir string

	gets   atomic.Uint64
	puts   atomic.Uint64
	errors atomic.Uint64
}

// NewDir opens (creating if needed) a directory-backed tier rooted at dir.
func NewDir(dir string) (*Dir, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create remote dir: %w", err)
	}
	return &Dir{dir: dir}, nil
}

func (d *Dir) path(h core.Handle) string {
	name := core.FormatHandle(h)
	return filepath.Join(d.dir, name[:2], name)
}

// Get reads the object file for h.
func (d *Dir) Get(ctx context.Context, h core.Handle) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(d.path(h))
	if os.IsNotExist(err) {
		return nil, &NotFoundError{Handle: h, Tier: "remote"}
	}
	if err != nil {
		d.errors.Add(1)
		return nil, err
	}
	d.gets.Add(1)
	return data, nil
}

// Holds reports whether the object file for h exists, without reading
// it or counting a get.
func (d *Dir) Holds(h core.Handle) bool {
	_, err := os.Stat(d.path(h))
	return err == nil
}

// Put writes the object file for h via a temp file and atomic rename. An
// already-present object is left untouched.
func (d *Dir) Put(ctx context.Context, h core.Handle, data []byte) error {
	if h.IsLiteral() {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	path := d.path(h)
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	shard := filepath.Dir(path)
	if err := os.MkdirAll(shard, 0o755); err != nil {
		d.errors.Add(1)
		return err
	}
	if err := writeAtomic(shard, path, data); err != nil {
		d.errors.Add(1)
		return err
	}
	d.puts.Add(1)
	return nil
}

// StorageStats reports the remote tier's counters.
func (d *Dir) StorageStats() Stats {
	return Stats{
		RemoteGets:   d.gets.Load(),
		RemotePuts:   d.puts.Load(),
		RemoteErrors: d.errors.Load(),
	}
}

// writeAtomic writes data to path by creating a temp file in dir and
// renaming it into place, so readers never observe a partial object.
func writeAtomic(dir, path string, data []byte) error {
	f, err := os.CreateTemp(dir, tmpPrefix)
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
