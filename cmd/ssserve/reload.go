package main

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"scaleshift/internal/core"
	"scaleshift/internal/query"
	"scaleshift/internal/store"
)

// snapshot is one immutable generation of everything a query needs:
// the store, the index built over it, and the derived eps_frac
// denominator.  Snapshots are published through an RCU cell, so a hot
// reload swaps all three at once while in-flight queries finish on the
// generation they started with.
type snapshot struct {
	ix        *core.Index
	normScale float64
	how       string    // provenance, for logs and /readyz
	loadedAt  time.Time // when this generation was published
}

// reloadConfig says where fresh artifacts come from on SIGHUP or
// POST /admin/reload.  A nil reloadConfig (synthetic or CSV data with
// no artifact paths) disables reload.
type reloadConfig struct {
	// StorePath is the checksummed store artifact (required).
	StorePath string
	// IndexPath is the checksummed index artifact.  Empty means the
	// index is rebuilt from the freshly loaded store instead.
	IndexPath string
	// Opts shape the rebuilt index when IndexPath is empty, and the
	// normScale window length always.
	Opts core.Options
	// Seed feeds the normScale sample, matching startup.
	Seed int64
	// Open opens an artifact for reading.  Tests and the chaos
	// harness override it to inject faults; nil means os.Open.
	Open func(path string) (io.ReadCloser, error)
}

// reloader serializes artifact reloads.  Loading and validation run
// outside any lock the serving path touches: queries keep flowing on
// the current snapshot until the new one is ready to swap in.
type reloader struct {
	mu  sync.Mutex
	cfg reloadConfig
	// fileOpen selects the zero-copy index path: when the artifact
	// source is the real filesystem (no injected Open), the index is
	// memory-mapped and fully verified before the swap, and served in
	// place instead of copied onto the heap.
	fileOpen bool
}

func newReloader(cfg reloadConfig) *reloader {
	rl := &reloader{fileOpen: cfg.Open == nil}
	if cfg.Open == nil {
		cfg.Open = func(path string) (io.ReadCloser, error) { return os.Open(path) }
	}
	rl.cfg = cfg
	return rl
}

// load reads and validates a complete snapshot from the configured
// artifacts.  Every byte is covered by binio's per-section and
// whole-file checksums, so a corrupt, truncated, or version-skewed
// artifact returns a typed error here and the caller keeps the old
// snapshot — rejection is the load failing, not a rebuild: rebuilding
// on *reload* would trade an index that serves for a build's worth of
// unavailability, which is strictly worse than keeping what we have.
func (rl *reloader) load() (*snapshot, error) {
	cfg := rl.cfg
	f, err := cfg.Open(cfg.StorePath)
	if err != nil {
		return nil, fmt.Errorf("opening store artifact: %w", err)
	}
	st, err := store.ReadBinary(f)
	closeErr := f.Close()
	if err != nil {
		return nil, fmt.Errorf("store artifact %s rejected: %w", cfg.StorePath, err)
	}
	if closeErr != nil {
		return nil, fmt.Errorf("closing store artifact: %w", closeErr)
	}

	var ix *core.Index
	var how string
	if cfg.IndexPath != "" {
		if rl.fileOpen {
			// Zero-copy: map the artifact, every CRC and the arena
			// validation checked here, off the serving path — the swap
			// only publishes verified bytes, and the old snapshot keeps
			// serving while we check.
			if ix, err = core.LoadIndexFile(cfg.IndexPath, st); err != nil {
				return nil, fmt.Errorf("index artifact %s rejected: %w", cfg.IndexPath, err)
			}
		} else {
			g, err := cfg.Open(cfg.IndexPath)
			if err != nil {
				return nil, fmt.Errorf("opening index artifact: %w", err)
			}
			ix, err = core.LoadIndex(g, st)
			closeErr = g.Close()
			if err != nil {
				return nil, fmt.Errorf("index artifact %s rejected: %w", cfg.IndexPath, err)
			}
			if closeErr != nil {
				return nil, fmt.Errorf("closing index artifact: %w", closeErr)
			}
		}
		// As at startup (OpenOrRebuildFile), the windows the store
		// gained since the index was written go to the delta.
		if err = ix.IndexStore(); err != nil {
			ix.Close()
			return nil, fmt.Errorf("indexing the windows the store gained: %w", err)
		}
		how = fmt.Sprintf("reloaded from %s + %s", cfg.StorePath, cfg.IndexPath)
	} else {
		ix, err = core.NewIndex(st, cfg.Opts)
		if err != nil {
			return nil, fmt.Errorf("rebuilding index: %w", err)
		}
		if err = ix.Build(); err != nil {
			return nil, fmt.Errorf("rebuilding index: %w", err)
		}
		how = fmt.Sprintf("reloaded from %s, index rebuilt", cfg.StorePath)
	}

	window := ix.Options().WindowLen
	normScale, err := query.SENormScale(st, window, 500, cfg.Seed+2)
	if err != nil {
		return nil, fmt.Errorf("recomputing norm scale: %w", err)
	}
	return &snapshot{ix: ix, normScale: normScale, how: how, loadedAt: time.Now()}, nil
}
