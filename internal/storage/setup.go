package storage

import (
	"fmt"

	"fixgo/internal/durable"
)

// Storage mode names, as accepted by the daemons' -storage flag.
const (
	// ModeLocal keeps every object hot: no tier, no remote. The
	// pre-tiering behavior, and the default.
	ModeLocal = "local"
	// ModeRemote spills to the remote directory through a bounded local
	// file cache.
	ModeRemote = "remote"
	// ModeHybrid writes through the durable pack store and uploads to
	// the remote asynchronously; reads fall local → cache → remote.
	ModeHybrid = "hybrid"
)

// Config is a daemon's tier assembly, parsed straight from its flags.
type Config struct {
	// Mode is one of ModeLocal, ModeRemote, ModeHybrid ("" means local).
	Mode string
	// RemoteDir is the remote tier's backing directory (the local
	// stand-in for an object store bucket). Required unless Mode is
	// local.
	RemoteDir string
	// CacheDir holds the local file cache's spill files.
	CacheDir string
	// CacheBudget bounds the local file cache in bytes; 0 disables
	// caching and every tier read goes remote.
	CacheBudget int64
}

// Build assembles a daemon's storage tier from its flag configuration.
// local is the durable pack store backing hybrid mode's write-through
// side; hybrid without one is a configuration error rather than a silent
// downgrade. A nil Storage with a nil error means Mode is local: the
// node runs untierred.
func Build(cfg Config, local *durable.Store) (Storage, error) {
	switch cfg.Mode {
	case "", ModeLocal:
		return nil, nil
	case ModeRemote, ModeHybrid:
	default:
		return nil, fmt.Errorf("storage: unknown mode %q (want %s, %s, or %s)",
			cfg.Mode, ModeLocal, ModeRemote, ModeHybrid)
	}
	if cfg.RemoteDir == "" {
		return nil, fmt.Errorf("storage: mode %s requires a remote directory (-remote-dir)", cfg.Mode)
	}
	remote, err := NewDir(cfg.RemoteDir)
	if err != nil {
		return nil, err
	}
	cached, err := NewLFC(cfg.CacheDir, cfg.CacheBudget, remote)
	if err != nil {
		return nil, err
	}
	if cfg.Mode == ModeRemote {
		return cached, nil
	}
	if local == nil {
		return nil, fmt.Errorf("storage: mode %s requires a durable store (-data-dir)", ModeHybrid)
	}
	return NewHybrid(NewLocal(local), cached), nil
}
