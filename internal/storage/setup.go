package storage

import "fixgo/internal/durable"

// Config is a daemon's tier assembly, parsed straight from its flags.
type Config struct {
	// RemoteDir is the remote tier's backing directory (the local
	// stand-in for an object store bucket). Empty means no tier.
	RemoteDir string
	// CacheDir holds the local file cache's spill files.
	CacheDir string
	// CacheBudget bounds the local file cache in bytes; 0 disables
	// caching and every tier read goes remote.
	CacheBudget int64
}

// Build assembles a daemon's storage tier. The shape follows from what
// the daemon has: no remote directory, no tier (nil Storage, nil error —
// the node keeps every object hot); a remote directory alone spills to
// it through a bounded local file cache ("remote"); with local, the
// durable pack store, writes go through the packs and upload to the
// remote asynchronously, and reads fall local → cache → remote
// ("hybrid").
func Build(cfg Config, local *durable.Store) (Storage, error) {
	if cfg.RemoteDir == "" {
		return nil, nil
	}
	remote, err := NewDir(cfg.RemoteDir)
	if err != nil {
		return nil, err
	}
	cached, err := NewLFC(cfg.CacheDir, cfg.CacheBudget, remote)
	if err != nil {
		return nil, err
	}
	if local == nil {
		return cached, nil
	}
	return NewHybrid(NewLocal(local), cached), nil
}
