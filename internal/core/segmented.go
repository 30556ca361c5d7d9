package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"scaleshift/internal/binio"
	"scaleshift/internal/dft"
	"scaleshift/internal/engine"
	"scaleshift/internal/geom"
	"scaleshift/internal/resilience"
	"scaleshift/internal/store"
	"scaleshift/internal/vec"
)

// SegmentedIndex is the streaming-ingest variant of Index: an ordered
// set of immutable frozen segments plus a mutable delta, maintained
// LSM-style.  AppendValues extends a sequence in place, runs the
// sliding DFT forward from the last extraction position (no recompute
// of old windows), and publishes a fresh manifest generation through
// an RCU cell — queries pin a manifest and never block on ingest or
// compaction.  A background compactor folds the delta into frozen
// bulk-loaded segments and merges segments when they pile up.
//
// The delta is a segment like the others, minus the directory: it
// keeps each window's feature point (deltaSeg), and a query filters it
// in feature space with the test a frozen leaf applies — a range query
// verifies only the delta windows within the slack-widened ε of its
// SE-line, a k-NN query visits them by increasing lower bound and stops
// at the first one past its kth best.
//
// Results are bit-identical to a from-scratch Index over the same
// final data: extraction follows the same checkpoint discipline, every
// segment feeds the same exact verifier, and the verifier reads
// through the manifest's pinned store snapshot.
//
// Writer methods (AppendValues, AppendSequence, Compact) are
// mutually safe against queries but serialize against each other
// internally; queries may run from any number of goroutines.
type SegmentedIndex struct {
	// writer is the delta, the extraction state behind it and the store
	// they follow — what an Index holds too — guarded by mu.
	writer
	// base retains the wrapped Index (and with it any mmap backing the
	// initial frozen segment's arena) until Close; mappings are the
	// segment files the frozen segments were opened from (segfile.go),
	// held until Close too — a merged-away segment may still be pinned
	// by a query.
	base     *Index
	mappings []*binio.Mapping

	// CompactThreshold is the delta size at which the background
	// compactor is kicked (default 4096).
	//
	// MergeRatio drives size-tiered retention: when the delta folds,
	// adjacent frozen segments are absorbed into the new segment from
	// the newest backward while each is at most MergeRatio times the
	// windows already in the merge run (default 2 — the binary-counter
	// schedule, whose total rewrite work is amortized O(log N) per
	// window).  Zero disables tiering (segments only merge through the
	// MaxFrozen backstop; ssgen uses this to keep explicit chunks).
	//
	// MaxFrozen is the backstop bound on the frozen segment count: a
	// compaction that would exceed it merges everything into one
	// segment (default 8; zero means unbounded).
	//
	// Set all three before StartCompactor.
	CompactThreshold int
	MergeRatio       float64
	MaxFrozen        int

	cell *resilience.Cell[*manifest]

	// mu guards the writer-side state below; compactMu serializes
	// compactions so the slow build phase runs outside mu.
	mu        sync.Mutex
	compactMu sync.Mutex

	frozen []*frozenSeg
	gen    int64

	// compactHook, when set (tests), runs between a compaction's
	// decide and build phases; a non-nil error aborts the compaction.
	compactHook func() error

	compactions int
	pauses      []time.Duration
	lastErr     error

	compactorOn bool
	kick        chan struct{}
	done        chan struct{}
	closeOnce   sync.Once
	closeErr    error
	wg          sync.WaitGroup
}

// NewSegmentedIndex builds a segmented index over st: the current
// contents become the initial frozen segment (bulk-loaded in
// parallel), and subsequent AppendValues/AppendSequence calls grow the
// delta.
func NewSegmentedIndex(st *store.Store, opts Options) (*SegmentedIndex, error) {
	ix, err := NewIndex(st, opts)
	if err != nil {
		return nil, err
	}
	if err := ix.BuildBulkParallel(0); err != nil {
		return nil, err
	}
	return NewSegmentedFromIndex(ix)
}

// NewSegmentedFromIndex wraps an already-built (or artifact-loaded)
// Index as the initial frozen segment of a segmented index.  Windows
// the store gained after the index was built land in the delta, so
// the segmented view covers the store completely from the start.
func NewSegmentedFromIndex(ix *Index) (*SegmentedIndex, error) {
	if err := ix.Freeze(); err != nil {
		return nil, err
	}
	g := emptySegmented(ix.st, ix.opts, ix.fmap, ix)
	// The index's one segment is the initial frozen segment.
	seg := ix.man.frozen[0]
	for _, r := range seg.ranges {
		g.next[r.Seq] = r.Hi
	}
	if seg.count > 0 {
		if seg.flat.Len() != seg.count {
			return nil, fmt.Errorf("core: index covers %d windows but its tree disagrees", seg.count)
		}
		g.frozen = append(g.frozen, seg)
	}
	if err := g.finishInit(); err != nil {
		return nil, err
	}
	return g, nil
}

// emptySegmented allocates the writer-side shell with defaults; the
// caller fills frozen/next and then finishInit publishes generation 0.
func emptySegmented(st *store.Store, opts Options, fmap *dft.FeatureMap, base *Index) *SegmentedIndex {
	return &SegmentedIndex{
		writer:           newWriter(st, opts, fmap),
		base:             base,
		CompactThreshold: 4096,
		MergeRatio:       2,
		MaxFrozen:        8,
		kick:             make(chan struct{}, 1),
		done:             make(chan struct{}),
	}
}

// finishInit extracts every window the frozen segments do not cover
// into the delta, seeds the numeric slack from the frozen bounds, and
// publishes the initial manifest.
func (g *SegmentedIndex) finishInit() error {
	for _, sg := range g.frozen {
		b, _ := sg.flat.Bounds() // the zero Rect while empty
		g.maxAbs = max(g.maxAbs, maxAbsRect(b))
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for seq := range g.next {
		if err := g.extract(seq); err != nil {
			return err
		}
	}
	g.cell = resilience.NewCell(g.manifestLocked())
	return nil
}

func maxAbsRect(r geom.Rect) float64 {
	var m float64
	for i := range r.L {
		m = math.Max(m, math.Max(math.Abs(r.L[i]), math.Abs(r.H[i])))
	}
	return m
}

// AppendValues appends samples to sequence seq, extracts the features
// of every window the new samples complete, and publishes a new
// manifest generation.  Queries in flight keep their pinned manifest;
// new queries see the appended windows immediately (served exactly
// from the delta).
func (g *SegmentedIndex) AppendValues(seq int, values []float64) error {
	start := time.Now()
	g.mu.Lock()
	defer g.mu.Unlock()
	if seq < 0 || seq >= len(g.next) {
		return fmt.Errorf("core: sequence %d out of range [0, %d)", seq, len(g.next))
	}
	if err := g.st.AppendValues(seq, values); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := g.extract(seq); err != nil {
		return err
	}
	g.publishLocked()
	g.maybeKickLocked()
	recordDeltaApply(time.Since(start))
	return nil
}

// AppendSequence adds a whole new sequence and indexes its windows
// through the delta, returning the sequence id.
func (g *SegmentedIndex) AppendSequence(name string, values []float64) (int, error) {
	start := time.Now()
	g.mu.Lock()
	defer g.mu.Unlock()
	seq := g.st.AppendSequence(name, values)
	if err := g.extract(seq); err != nil {
		return seq, err
	}
	g.publishLocked()
	g.maybeKickLocked()
	recordDeltaApply(time.Since(start))
	return seq, nil
}

// manifestLocked assembles the current immutable view: frozen segment
// list pinned by value, delta pinned by length, store pinned via
// Snapshot.
func (g *SegmentedIndex) manifestLocked() *manifest {
	return g.manifest(g.gen, g.st.Snapshot(), append([]*frozenSeg(nil), g.frozen...))
}

func (g *SegmentedIndex) publishLocked() {
	g.gen++
	g.cell.Swap(g.manifestLocked())
}

func (g *SegmentedIndex) maybeKickLocked() {
	if g.compactorOn && g.CompactThreshold > 0 && g.delta.n >= g.CompactThreshold {
		select {
		case g.kick <- struct{}{}:
		default:
		}
	}
}

// StartCompactor launches the background compaction goroutine; it
// wakes whenever the delta crosses CompactThreshold and exits on
// Close.  Idempotent.
func (g *SegmentedIndex) StartCompactor() {
	g.mu.Lock()
	if g.compactorOn {
		g.mu.Unlock()
		return
	}
	g.compactorOn = true
	g.mu.Unlock()
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		for {
			select {
			case <-g.done:
				return
			case <-g.kick:
				// Errors are recorded in lastErr and surfaced by Backlog;
				// the delta keeps serving queries exactly in the meantime.
				_ = g.Compact()
			}
		}
	}()
}

// SetCompactHook installs a hook that runs between a compaction's
// decide and build phases; a non-nil error aborts that compaction
// (recorded in Backlog, delta left intact).  Chaos harnesses use it to
// prove queries and appends survive compaction failure.
func (g *SegmentedIndex) SetCompactHook(fn func() error) {
	g.mu.Lock()
	g.compactHook = fn
	g.mu.Unlock()
}

// mergeRunLocked decides how far back the size-tiered merge reaches:
// it returns the frozen-list index k such that segments [k:] merge
// with the folding delta (k == len(frozen) is a pure fold).  Only a
// SUFFIX of the list may merge — frozen segments tile each sequence's
// windows contiguously in list order, so an adjacent run's coverage is
// itself contiguous and the invariant survives the merge.
//
// The tiered walk absorbs the next-older segment while it is at most
// MergeRatio times the run gathered so far — the logarithmic-method
// schedule under which a window is rewritten O(log N) times over its
// lifetime, instead of on every MaxFrozen-th compaction.  MaxFrozen
// remains a hard backstop: if the tiered choice would still leave too
// many segments, everything merges into one.
func (g *SegmentedIndex) mergeRunLocked(cut int) int {
	k := len(g.frozen)
	run := cut
	if g.MergeRatio > 0 {
		for k > 0 && run > 0 && float64(g.frozen[k-1].count) <= g.MergeRatio*float64(run) {
			run += g.frozen[k-1].count
			k--
		}
	}
	resulting := k
	if run > 0 {
		resulting++
	}
	if g.MaxFrozen > 0 && resulting > g.MaxFrozen {
		return 0
	}
	return k
}

// Compact folds the current delta into a new frozen segment, absorbing
// an adjacent run of older segments chosen by the size-tiered policy
// (see mergeRunLocked).  The expensive build runs without holding the
// writer lock, so appends and queries proceed throughout; only the
// final manifest swap holds the lock, and that pause is recorded (see
// Backlog).  Safe to call directly (tests, shutdown flush) even while
// the background compactor runs.
func (g *SegmentedIndex) Compact() error {
	g.compactMu.Lock()
	defer g.compactMu.Unlock()

	// Phase 1 (brief, locked): decide what to compact and pin it.
	g.mu.Lock()
	cut := g.delta.n
	k := g.mergeRunLocked(cut)
	if cut == 0 && k >= len(g.frozen) {
		g.mu.Unlock()
		return nil
	}
	pinned := g.delta.prefix(cut)
	keep := append([]*frozenSeg(nil), g.frozen[:k]...)
	run := append([]*frozenSeg(nil), g.frozen[k:]...)
	snap := g.st.Snapshot()
	hook := g.compactHook
	g.mu.Unlock()

	fail := func(err error) error {
		g.mu.Lock()
		g.lastErr = err
		g.mu.Unlock()
		return err
	}
	if hook != nil {
		if err := hook(); err != nil {
			return fail(fmt.Errorf("core: compaction aborted: %w", err))
		}
	}

	// Phase 2 (slow, unlocked): build the replacement segment.
	// Appends landing during this phase grow the delta past cut and
	// survive as the post-compaction delta.
	buildStart := time.Now()
	var seg *frozenSeg
	var err error
	if len(run) > 0 {
		seg, err = mergeSegments(snap, g.fmap, g.opts, run, pinned)
	} else {
		seg, err = buildSegment(pinned, g.opts)
	}
	if err != nil {
		return fail(err)
	}
	build := time.Since(buildStart)
	newFrozen := keep
	if seg != nil {
		newFrozen = append(newFrozen, seg)
	}

	// Phase 3 (brief, locked): swap the manifest.  The lock-held time
	// here is the only moment ingest stalls on compaction.
	start := time.Now()
	g.mu.Lock()
	g.frozen = newFrozen
	g.delta = g.delta.suffix(cut)
	g.publishLocked()
	g.compactions++
	g.lastErr = nil
	pause := time.Since(start)
	if len(g.pauses) >= 1024 {
		copy(g.pauses, g.pauses[1:])
		g.pauses = g.pauses[:len(g.pauses)-1]
	}
	g.pauses = append(g.pauses, pause)
	g.mu.Unlock()
	recordCompaction(build, pause)
	return nil
}

// Backlog reports the compaction state for readiness endpoints and
// tests.
type Backlog struct {
	// Generation is the published manifest generation.
	Generation int64
	// Frozen and FrozenWindows size the immutable side; DeltaWindows
	// is the mutable backlog awaiting compaction.
	Frozen        int
	FrozenWindows int
	DeltaWindows  int
	// Compactions counts completed compactions; the pause fields
	// distribute the manifest-swap stall (the lock-held phase 3) over the
	// last 1 024 compactions.
	Compactions     int
	CompactPauseMax time.Duration
	CompactPauseP99 time.Duration
	CompactPauseP50 time.Duration
	// LastCompactErr is the most recent compaction failure, empty
	// after any success.
	LastCompactErr string
}

// Backlog returns current ingest/compaction gauges.
func (g *SegmentedIndex) Backlog() Backlog {
	g.mu.Lock()
	defer g.mu.Unlock()
	b := Backlog{
		Generation:   g.gen,
		Frozen:       len(g.frozen),
		DeltaWindows: g.delta.n,
		Compactions:  g.compactions,
	}
	for _, sg := range g.frozen {
		b.FrozenWindows += sg.count
	}
	if g.lastErr != nil {
		b.LastCompactErr = g.lastErr.Error()
	}
	if len(g.pauses) > 0 {
		sorted := append([]time.Duration(nil), g.pauses...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		b.CompactPauseMax = sorted[len(sorted)-1]
		b.CompactPauseP99 = sorted[int(0.99*float64(len(sorted)-1))]
		b.CompactPauseP50 = sorted[(len(sorted)-1)/2]
	}
	return b
}

// Close stops the background compactor and releases the wrapped
// index's resources (including any artifact mapping backing the
// initial frozen segment).  Idempotent and safe to call concurrently:
// the entire teardown runs once, and every caller returns only after
// it has completed (a hot-reload drain goroutine and a shutdown path
// may both close the same superseded index).
func (g *SegmentedIndex) Close() error {
	g.closeOnce.Do(func() {
		close(g.done)
		g.wg.Wait()
		if g.base != nil {
			g.closeErr = g.base.Close()
		}
		for _, m := range g.mappings {
			if err := m.Close(); err != nil && g.closeErr == nil {
				g.closeErr = err
			}
		}
	})
	return g.closeErr
}

// Options returns the index configuration.
func (g *SegmentedIndex) Options() Options { return g.opts }

// Store returns the underlying store.  It is writer-side state: while
// appends run, read through QueryWindow (or a manifest snapshot)
// instead.
func (g *SegmentedIndex) Store() *store.Store { return g.st }

// Generation returns the published manifest generation.
func (g *SegmentedIndex) Generation() int64 {
	pin := g.cell.Acquire()
	defer pin.Release()
	return pin.Value().gen
}

// WindowCount returns the number of searchable windows (frozen +
// delta) in the published manifest.
func (g *SegmentedIndex) WindowCount() int {
	pin := g.cell.Acquire()
	defer pin.Release()
	return pin.Value().windowCount()
}

// IndexPageCount returns the total index pages across frozen segments.
func (g *SegmentedIndex) IndexPageCount() int {
	pin := g.cell.Acquire()
	defer pin.Release()
	return pin.Value().indexPageCount()
}

// IndexByteCount returns the total arena bytes across frozen segments.
func (g *SegmentedIndex) IndexByteCount() int {
	pin := g.cell.Acquire()
	defer pin.Release()
	return pin.Value().indexByteCount()
}

// TreeHeight returns the tallest frozen segment's height.
func (g *SegmentedIndex) TreeHeight() int {
	pin := g.cell.Acquire()
	defer pin.Release()
	return pin.Value().treeHeight()
}

// QueryWindow reads one window through the published manifest's store
// snapshot — safe against concurrent appends, unlike Store().Window.
func (g *SegmentedIndex) QueryWindow(seq, start, n int, dst vec.Vector) error {
	pin := g.cell.Acquire()
	defer pin.Release()
	return pin.Value().sv.Window(seq, start, n, dst, nil)
}

// StoreShape reports the snapshot's sequence, value, and page counts
// for serving-layer gauges, read race-free through the manifest.
func (g *SegmentedIndex) StoreShape() (seqs, values, pages int) {
	pin := g.cell.Acquire()
	defer pin.Release()
	return pin.Value().storeShape()
}

// Exec is Index.Exec over the segmented index: it pins the current
// manifest, fans the index phase across segments (all pieces of a long
// query see the same generation), and verifies every candidate against
// the manifest's store snapshot through the same executors as Index —
// so the result set is bit-identical to a from-scratch index over the
// same data, whatever the segment layout.
func (g *SegmentedIndex) Exec(ctx context.Context, q Query, stats *SearchStats) (Result, error) {
	pin := g.cell.Acquire()
	defer pin.Release()
	return exec(ctx, pin.Value(), q, stats)
}

// ExecBatch is Index.ExecBatch over the segmented index, with the same
// partial-progress semantics; each query pins its own manifest.
func (g *SegmentedIndex) ExecBatch(ctx context.Context, queries []Query, parallelism int, stats *SearchStats) ([]Result, []BatchStatus, error) {
	return execBatch(ctx, g.Exec, queries, parallelism, stats)
}

// SearchPlannedContext builds a range Query and calls Exec.  It is
// retained only for the frozen benchmark/ harness; the next benchmark
// PR removes it.
func (g *SegmentedIndex) SearchPlannedContext(ctx context.Context, q vec.Vector, eps float64, costs CostBounds, force engine.PathKind, pool *store.BufferPool, stats *SearchStats) ([]Match, *engine.Explain, error) {
	res, err := g.Exec(ctx, Query{Vec: q, Eps: eps, Costs: costs, Force: force, Pool: pool}, stats)
	return res.Matches, res.Explain, err
}
