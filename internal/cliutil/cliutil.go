// Package cliutil holds the plumbing the commands share: the
// -log-format / -metrics-out observability flags, structured-logger
// construction, and the store/index loading paths that ssquery and
// ssserve both need.  Keeping them here means a diagnostic improvement
// lands in every binary at once instead of drifting per command.
package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"time"

	"scaleshift/internal/atomicfile"
	"scaleshift/internal/core"
	"scaleshift/internal/obs"
	"scaleshift/internal/stock"
	"scaleshift/internal/store"
)

// ObsFlags carries the observability flag values shared by every
// command.
type ObsFlags struct {
	LogFormat  string
	MetricsOut string
}

// AddObsFlags registers -log-format and -metrics-out on fs.
func AddObsFlags(fs *flag.FlagSet) *ObsFlags {
	o := &ObsFlags{}
	fs.StringVar(&o.LogFormat, "log-format", "text", "diagnostic log format: text or json")
	fs.StringVar(&o.MetricsOut, "metrics-out", "", "write a JSON metrics snapshot to this file on exit")
	return o
}

// Setup validates the flags, turns the metrics layer on when a
// snapshot was requested, and returns the command's structured logger
// (writing to stderr, so stdout stays parseable output).
func (o *ObsFlags) Setup() (*slog.Logger, error) {
	logger, err := obs.NewLogger(os.Stderr, o.LogFormat)
	if err != nil {
		return nil, err
	}
	if o.MetricsOut != "" {
		obs.Enable()
	}
	return logger, nil
}

// Finish writes the metrics snapshot when one was requested.  Call it
// after the command's work so the counters reflect the whole run; the
// write is atomic so a crash never leaves a torn snapshot.
func (o *ObsFlags) Finish() error {
	if o.MetricsOut == "" {
		return nil
	}
	if err := atomicfile.WriteFile(o.MetricsOut, obs.Default.WriteJSON); err != nil {
		return fmt.Errorf("writing metrics snapshot: %w", err)
	}
	return nil
}

// ServeFlags carries the overload-protection flag values for the
// serving path (ssserve).  The defaults are deliberately conservative:
// a box that can verify a few hundred windows per millisecond clears a
// 64-deep in-flight set quickly, and a queue twice that size absorbs
// bursts without letting latency run away.
type ServeFlags struct {
	// MaxInflight is the number of search requests serviced
	// concurrently (-max-inflight).
	MaxInflight int
	// MaxQueue bounds the admission wait queue (-max-queue).
	MaxQueue int
	// QueueTimeout bounds how long a request may wait for an
	// in-flight slot before it is shed (-queue-timeout).
	QueueTimeout time.Duration
	// RequestTimeout is the per-request deadline applied to every
	// search (-request-timeout); it propagates through the engine's
	// cooperative cancellation.
	RequestTimeout time.Duration
}

// AddServeFlags registers the shared serving flags on fs with their
// defaults.  Validate after parsing.
func AddServeFlags(fs *flag.FlagSet) *ServeFlags {
	s := &ServeFlags{}
	fs.IntVar(&s.MaxInflight, "max-inflight", 64, "search requests serviced concurrently (must be > 0)")
	fs.IntVar(&s.MaxQueue, "max-queue", 128, "search requests allowed to wait for a slot; beyond this the server sheds with 429 (must be > 0)")
	fs.DurationVar(&s.QueueTimeout, "queue-timeout", 2*time.Second, "longest a search may wait for a slot before shedding with 429 (must be > 0)")
	fs.DurationVar(&s.RequestTimeout, "request-timeout", 15*time.Second, "per-request deadline for searches (must be > 0)")
	return s
}

// Validate rejects non-positive limits: a zero queue or timeout turns
// the admission controller into either a hard wall or an unbounded
// buffer, and both are misconfigurations worth failing loudly on.
func (s *ServeFlags) Validate() error {
	switch {
	case s.MaxInflight <= 0:
		return fmt.Errorf("-max-inflight must be > 0, got %d", s.MaxInflight)
	case s.MaxQueue <= 0:
		return fmt.Errorf("-max-queue must be > 0, got %d", s.MaxQueue)
	case s.QueueTimeout <= 0:
		return fmt.Errorf("-queue-timeout must be > 0, got %v", s.QueueTimeout)
	case s.RequestTimeout <= 0:
		return fmt.Errorf("-request-timeout must be > 0, got %v", s.RequestTimeout)
	}
	return nil
}

// LoadStore resolves the shared database flags: a checksummed binary
// artifact (-store), a CSV file (-data), or freshly generated
// synthetic data.
func LoadStore(storeFile, dataFile string, companies, days int, seed int64) (*store.Store, error) {
	if storeFile != "" {
		f, err := os.Open(storeFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		st, err := store.ReadBinary(f)
		if err != nil {
			return nil, fmt.Errorf("store artifact %s unusable: %v (regenerate it with ssgen -binary)", storeFile, err)
		}
		return st, nil
	}
	if dataFile != "" {
		f, err := os.Open(dataFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return store.ReadCSV(f)
	}
	cfg := stock.DefaultConfig()
	cfg.Companies = companies
	cfg.Days = days
	cfg.Seed = seed
	st := store.New()
	if _, err := stock.Populate(st, cfg); err != nil {
		return nil, err
	}
	return st, nil
}

// OpenIndex maps the index from the cache file, or builds it from the
// store when there is none (cache "" or no file there) and then saves
// it there when one is configured.  The cache is derived state: one
// that cannot be served as it is — truncated, corrupted,
// version-skewed, an MBR directory, or built over a different store —
// is rebuilt from the store with one structured warning, and the
// rebuilt index replaces it.  The returned string describes how the
// index was obtained — mapped, built with the build's stage split, or
// rebuilt and why — for the command's status output: the one place
// that says it.
func OpenIndex(st *store.Store, opts core.Options, cache string, logger *slog.Logger) (*core.Index, string, error) {
	start := time.Now()
	ix, rebuilt, err := core.OpenOrRebuildFile(cache, st, opts)
	how := "built"
	switch {
	case err != nil:
		return nil, "", err
	case rebuilt == nil:
		return ix, fmt.Sprintf("mapped from %s in %v (direction-box directory)", cache, time.Since(start).Round(time.Millisecond)), nil
	case !errors.Is(rebuilt, fs.ErrNotExist):
		logger.Warn("index cache rejected; rebuilt from the store", "reason", rebuilt, "cache", cache)
		how = fmt.Sprintf("rebuilt (%v)", rebuilt)
	}
	how += fmt.Sprintf(" in %v", time.Since(start).Round(time.Millisecond))
	if bs := ix.BuildStages(); bs != (core.BuildStages{}) {
		const tenth = time.Millisecond / 10
		how += fmt.Sprintf(" (extract %v, tile %v, emit %v)", bs.Extract.Round(tenth), bs.Tile.Round(tenth), bs.Emit.Round(tenth))
	}
	if cache != "" {
		// Atomic replace: a crash mid-save leaves the previous cache (or
		// none), never a torn file for the next run to choke on.
		start = time.Now()
		if err := atomicfile.WriteFile(cache, ix.WriteBinary); err != nil {
			return nil, "", fmt.Errorf("writing index cache: %w", err)
		}
		how += fmt.Sprintf(", cached to %s in %v", cache, time.Since(start).Round(time.Millisecond))
	}
	return ix, how, nil
}
