package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"scaleshift/internal/ckpt"
	"scaleshift/internal/obs"
	"scaleshift/internal/query"
	"scaleshift/internal/wal"
)

// Checkpoint metrics, registered lazily on the first instrumented
// checkpoint (the phase label values are fixed, so recording stays
// allocation-free).
var ckm struct {
	once sync.Once

	checkpoints *obs.Counter
	bytes       *obs.Counter
	capture     *obs.Histogram
	install     *obs.Histogram
	truncateDur *obs.Histogram
}

func initCkptMetrics() {
	r := obs.Default
	const help = "Checkpoint phase latency, by phase: capture (ingest quiesced), install (new segment files + manifest, durable), truncate (WAL prefix drop)."
	ckm.checkpoints = r.Counter("scaleshift_checkpoints_total", "Durable checkpoints installed.")
	ckm.bytes = r.Counter("scaleshift_checkpoint_bytes_total", "Bytes checkpoints wrote: new segment files and manifests.")
	ckm.capture = r.DurationHistogram("scaleshift_checkpoint_phase_seconds", help, obs.Label{Key: "phase", Value: "capture"})
	ckm.install = r.DurationHistogram("scaleshift_checkpoint_phase_seconds", help, obs.Label{Key: "phase", Value: "install"})
	ckm.truncateDur = r.DurationHistogram("scaleshift_checkpoint_phase_seconds", help, obs.Label{Key: "phase", Value: "truncate"})
}

// recordCheckpoint publishes one durable checkpoint's phase timings and
// the bytes it wrote.
func recordCheckpoint(capture, install, truncate time.Duration, written int64) {
	if !obs.Enabled() {
		return
	}
	ckm.once.Do(initCkptMetrics)
	ckm.checkpoints.Inc()
	ckm.bytes.Add(written)
	ckm.capture.ObserveDuration(capture)
	ckm.install.ObserveDuration(install)
	ckm.truncateDur.ObserveDuration(truncate)
}

// checkpointConfig shapes the durable-ingest checkpoint lifecycle.
type checkpointConfig struct {
	// Path is the artifact base path; the previous checkpoint is
	// retained at Path+".prev" until the next one is durable.
	Path string
	// WALBytes triggers a background checkpoint when the WAL's retained
	// stream grows past it (0 disables the size trigger).
	WALBytes int64
	// Interval triggers a background checkpoint when the last one is
	// older than it and appends have landed since (0 disables the timer).
	Interval time.Duration
	// MaxLag is the checkpoint age past which /readyz stops reporting
	// ready (0: lag is reported but never blocks readiness).
	MaxLag time.Duration
	// Seed feeds the normScale recomputation on append-mode reload,
	// matching startup.
	Seed int64
}

// checkpointFailure records the most recent failed checkpoint for
// /readyz — the warn-level signal that recovery cost is growing.
type checkpointFailure struct {
	Err string    `json:"error"`
	At  time.Time `json:"at"`
}

// checkpointer runs the checkpoint lifecycle over an ingest state: the
// flush-install-truncate cycle, the background size/age triggers, and
// the lag accounting /readyz surfaces.  One checkpoint runs at a time
// (mu); appends are quiesced only for the brief capture, not for the
// serialization or the artifact write.
type checkpointer struct {
	mu     sync.Mutex
	cfg    checkpointConfig
	in     *ingestState
	logger *slog.Logger

	gen        atomic.Int64
	lastAt     atomic.Int64 // unix nanos of the last durable checkpoint
	lastOffset atomic.Int64 // WAL offset the last durable checkpoint covers
	lastErr    atomic.Pointer[checkpointFailure]
	// lastBytes and segFiles describe the last durable checkpoint: the
	// bytes it wrote, and the segment files on disk after it.
	lastBytes atomic.Int64
	segFiles  atomic.Int64

	// prevOffset (guarded by mu) is the WAL offset of the PREVIOUS
	// durable checkpoint — the lag-one truncation bound.  Truncating
	// only through it keeps the newest artifact's whole tail on disk, so
	// corruption of that artifact still recovers from .prev with zero
	// loss.
	prevOffset int64

	// testHook, when set, runs at named phases of a checkpoint; a
	// non-nil error aborts right there, which crash-matrix tests use to
	// freeze the on-disk state mid-lifecycle.
	testHook func(phase string) error
}

// newCheckpointer resumes the checkpoint lineage: a recovered
// checkpoint seeds the generation counter, the age clock, and the
// truncation bound.
func newCheckpointer(cfg checkpointConfig, in *ingestState, logger *slog.Logger, recovered *ckpt.Result) *checkpointer {
	c := &checkpointer{cfg: cfg, in: in, logger: logger}
	c.lastAt.Store(time.Now().UnixNano())
	if recovered != nil {
		c.gen.Store(recovered.Meta.Generation)
		c.lastAt.Store(recovered.Meta.CreatedAt.UnixNano())
		c.lastOffset.Store(recovered.Meta.WALOffset)
		c.prevOffset = recovered.Meta.WALOffset
	}
	return c
}

func (c *checkpointer) hook(phase string) error {
	if c.testHook != nil {
		return c.testHook(phase)
	}
	return nil
}

// run takes one checkpoint: compact the delta, capture a consistent
// (segments, store snapshot, WAL offset) triple under the ingest lock,
// write the new segments' files and install the manifest off the lock,
// then truncate the WAL through the previous checkpoint's offset.
func (c *checkpointer) run() (ckpt.Meta, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.checkpointLocked(false)
}

// checkpointLocked is the checkpoint cycle; c.mu is held.  When
// ingestLocked, the caller already holds in.mu across the whole call
// (the reload barrier) and nothing here may retake it.
func (c *checkpointer) checkpointLocked(ingestLocked bool) (ckpt.Meta, error) {
	fail := func(err error) (ckpt.Meta, error) {
		c.lastErr.Store(&checkpointFailure{Err: err.Error(), At: time.Now()})
		return ckpt.Meta{}, err
	}
	if err := c.hook("pre-flush"); err != nil {
		return fail(err)
	}

	// Capture under the ingest lock: Compact drains the delta (a
	// checkpoint names frozen segments only), then the segment pin,
	// store snapshot, and WAL offset are taken together — one consistent
	// cut of everything acked so far.  The writing happens after the
	// lock drops; the pinned snapshot and immutable segments cannot
	// change under it.
	in := c.in
	captureStart := time.Now()
	if !ingestLocked {
		in.mu.Lock()
	}
	if err := in.seg.Compact(); err != nil {
		if !ingestLocked {
			in.mu.Unlock()
		}
		return fail(fmt.Errorf("checkpoint compaction: %w", err))
	}
	segs, err := in.seg.PinSegments()
	if err != nil {
		if !ingestLocked {
			in.mu.Unlock()
		}
		return fail(err)
	}
	snap := in.seg.Store().Snapshot()
	var offset int64
	if in.log != nil {
		offset = in.log.Offset()
	}
	if !ingestLocked {
		in.mu.Unlock()
	}
	capture := time.Since(captureStart)

	meta := ckpt.Meta{Generation: c.gen.Load() + 1, WALOffset: offset, CreatedAt: time.Now()}
	installStart := time.Now()
	stats, err := ckpt.Save(c.cfg.Path, meta, snap.WriteBinary, segs, c.hook)
	segs.Release()
	if err != nil {
		return fail(err)
	}
	installDur := time.Since(installStart)
	if stats.CollectErr != nil {
		c.logger.Warn("checkpoint durable, but unreferenced segment files remain; collecting again at the next checkpoint", "err", stats.CollectErr)
	}
	c.lastBytes.Store(stats.BytesWritten)
	c.segFiles.Store(int64(stats.SegmentFiles))
	c.gen.Store(meta.Generation)
	c.lastAt.Store(meta.CreatedAt.UnixNano())
	c.lastOffset.Store(meta.WALOffset)
	c.lastErr.Store(nil)
	prev := c.prevOffset
	c.prevOffset = meta.WALOffset

	if err := c.hook("pre-truncate"); err != nil {
		recordCheckpoint(capture, installDur, 0, stats.BytesWritten)
		return meta, err
	}
	truncStart := time.Now()
	if err := c.truncate(prev, ingestLocked); err != nil {
		// The checkpoint itself is durable; a failed truncation only
		// delays space reclamation and retries at the next checkpoint
		// (the next bound supersedes this one).
		c.logger.Warn("WAL truncation failed; retrying at the next checkpoint", "err", err)
	}
	recordCheckpoint(capture, installDur, time.Since(truncStart), stats.BytesWritten)
	return meta, nil
}

// truncate drops the WAL prefix covered by the lag-one bound.
func (c *checkpointer) truncate(through int64, ingestLocked bool) error {
	in := c.in
	if in.log == nil || through <= 0 {
		return nil
	}
	if !ingestLocked {
		in.mu.Lock()
		defer in.mu.Unlock()
	}
	return in.log.TruncateThrough(through)
}

// walBytes reads the retained WAL stream size under the ingest lock.
func (c *checkpointer) walBytes() int64 {
	in := c.in
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.log == nil {
		return 0
	}
	return in.log.Size()
}

// walOffset reads the acked logical end offset under the ingest lock.
func (c *checkpointer) walOffset() int64 {
	in := c.in
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.log == nil {
		return 0
	}
	return in.log.Offset()
}

// age is the time since the last durable checkpoint (or process start).
func (c *checkpointer) age() time.Duration {
	return time.Since(time.Unix(0, c.lastAt.Load()))
}

// lagExceeded reports whether checkpoint lag has crossed the
// configured readiness bound.
func (c *checkpointer) lagExceeded() bool {
	return c.cfg.MaxLag > 0 && c.age() > c.cfg.MaxLag
}

// due decides whether the background loop should checkpoint now.  The
// size trigger fires on the retained WAL alone; the age trigger
// additionally requires acked appends past the last checkpoint, so an
// idle server is not re-serialized every interval.
func (c *checkpointer) due() bool {
	if c.cfg.WALBytes > 0 && c.walBytes() >= c.cfg.WALBytes {
		return true
	}
	if c.cfg.Interval > 0 && c.age() >= c.cfg.Interval && c.walOffset() > c.lastOffset.Load() {
		return true
	}
	return false
}

// loop is the background checkpoint driver; it exits with ctx.
func (c *checkpointer) loop(ctx context.Context) {
	poll := time.Second
	if c.cfg.Interval > 0 && c.cfg.Interval < poll {
		poll = c.cfg.Interval
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		if !c.due() {
			continue
		}
		start := time.Now()
		meta, err := c.run()
		if err != nil {
			// Serving and durability are unaffected — every acked append
			// is still in the WAL — but recovery cost grows until a
			// checkpoint lands, which is exactly what the /readyz lag
			// warning (and MaxLag bound) surface.
			c.logger.Error("background checkpoint failed; WAL keeps growing", "err", err)
			continue
		}
		c.logger.Info("checkpoint",
			"generation", meta.Generation, "wal_offset", meta.WALOffset,
			"elapsed", time.Since(start).Round(time.Millisecond))
	}
}

// detail summarizes checkpoint lag for /readyz.
func (c *checkpointer) detail() map[string]interface{} {
	age := c.age()
	d := map[string]interface{}{
		"path":       c.cfg.Path,
		"generation": c.gen.Load(),
		"age":        age.Round(time.Millisecond).String(),
		"wal_bytes":  c.walBytes(),
		// What the last checkpoint wrote, and the segment files the
		// current and previous manifests name between them.
		"bytes_written": c.lastBytes.Load(),
		"segment_files": c.segFiles.Load(),
	}
	if f := c.lastErr.Load(); f != nil {
		d["last_error"] = f
	}
	if c.cfg.MaxLag > 0 {
		d["max_lag"] = c.cfg.MaxLag.String()
		d["lag_exceeded"] = age > c.cfg.MaxLag
	}
	return d
}

// errUnrecoverable reports a state no startup path can serve without
// silent data loss: the WAL was truncated against a checkpoint that can
// no longer be read, so neither the artifacts nor a full replay can
// reconstruct every acked append.  Refusing loudly is the only honest
// option — starting anyway would drop acked data without a trace.
var errUnrecoverable = errors.New("ingest state unrecoverable without data loss")

// validateRecovery proves the chosen recovery path covers every acked
// append before any of it is served.  Without a recovered checkpoint,
// full WAL replay is sound only while the log still holds its complete
// history from logical offset zero; with one, the log must reach back
// at least to the checkpoint's offset (the lag-one truncation
// guarantees this for every crash the server itself caused).
func validateRecovery(recovered *ckpt.Result, log *wal.Log) error {
	if log == nil {
		return nil
	}
	if recovered == nil {
		if log.Base() == 0 {
			return nil
		}
		return fmt.Errorf("%w: no checkpoint artifact loads and the WAL starts at logical offset %d, past records only a checkpoint held — restore a checkpoint artifact or a complete WAL",
			errUnrecoverable, log.Base())
	}
	if log.Base() > recovered.Meta.WALOffset {
		return fmt.Errorf("%w: the recovered checkpoint covers WAL offset %d but the log begins at %d — records in between exist nowhere",
			errUnrecoverable, recovered.Meta.WALOffset, log.Base())
	}
	return nil
}

// reloadAppend is hot reload for append mode: a checkpoint barrier.
// With the ingest lock held, every acked append is flushed into a fresh
// checkpoint artifact; the server then re-reads and fully re-validates
// the artifact it just wrote (each reload doubles as a recovery drill)
// and swaps both the serving snapshot and the ingest index to the
// loaded copy.  Appends stall for the duration; queries keep flowing on
// the old snapshot until the swap.
func (s *server) reloadAppend() error {
	c := s.ckpt
	c.mu.Lock()
	defer c.mu.Unlock()
	return s.hotReload(func(swap func(*snapshot)) error {
		in := s.ingest
		in.mu.Lock()
		defer in.mu.Unlock()
		meta, err := c.checkpointLocked(true)
		if err != nil {
			return fmt.Errorf("checkpoint barrier: %w", err)
		}
		if err := c.hook("mid-reload"); err != nil {
			return err
		}
		res, warns, err := ckpt.Recover(c.cfg.Path)
		if err != nil {
			return fmt.Errorf("re-reading checkpoint: %w", err)
		}
		for _, w := range warns {
			s.logger.Warn("during reload: " + w.String())
		}
		if res.Meta.Generation != meta.Generation {
			res.Seg.Close()
			return fmt.Errorf("checkpoint raced: recovered generation %d, wrote %d", res.Meta.Generation, meta.Generation)
		}
		normScale, err := query.SENormScale(res.Store, res.Seg.Options().WindowLen, 500, c.cfg.Seed+2)
		if err != nil {
			res.Seg.Close()
			return fmt.Errorf("recomputing norm scale: %w", err)
		}

		old := in.seg
		res.Seg.CompactThreshold = old.CompactThreshold
		res.Seg.MergeRatio = old.MergeRatio
		res.Seg.MaxFrozen = old.MaxFrozen
		res.Seg.StartCompactor()
		in.seg = res.Seg
		in.names = make(map[string]int, res.Store.NumSequences())
		for seq := 0; seq < res.Store.NumSequences(); seq++ {
			in.names[res.Store.SequenceName(seq)] = seq
		}
		swap(&snapshot{
			ix:        res.Seg,
			normScale: normScale,
			how:       fmt.Sprintf("reloaded from checkpoint %s (generation %d)", res.Source, res.Meta.Generation),
			loadedAt:  time.Now(),
		})
		return nil
	})
}

// handleCheckpoint is the operational trigger: POST /admin/checkpoint.
func (s *server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("checkpoint requires POST"))
		return
	}
	if s.ckpt == nil {
		s.writeError(w, http.StatusConflict, fmt.Errorf("checkpoint unavailable: server was not started with -append and -checkpoint"))
		return
	}
	start := time.Now()
	meta, err := s.ckpt.run()
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]interface{}{
		"status":     "checkpointed",
		"generation": meta.Generation,
		"wal_offset": meta.WALOffset,
		"elapsed":    time.Since(start).Round(time.Millisecond).String(),
	})
}
