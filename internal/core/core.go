// Package core implements the paper's contribution: similarity search
// over time-series databases under scaling and shifting transformations
// (Chu & Wong, PODS '99).
//
// A sequence u is similar to v with error bound ε when some scale
// factor a and shift offset b make ‖a·u + b·N − v‖ ≤ ε (Definition 1).
// The Index answers range queries under this similarity over every
// sliding window of a sequence database, returning the optimal (a, b)
// per match, and supports cost bounds on the transformation, dynamic
// insertion, nearest-neighbour queries (Corollary 1), and long queries
// via multipiece search (§7).
//
// The pipeline follows §6 exactly:
//
//	pre-processing: slide a length-n window over every sequence,
//	    apply the Shift-Eliminated Transformation (Definition 2),
//	    reduce to 2·f_c dimensions with the DFT feature map, and
//	    insert the feature points into an R*-tree;
//	searching: descend only into children whose ε-enlarged MBR is
//	    penetrated by the query's SE-line (Theorem 3), collecting leaf
//	    points within ε of the line (Theorem 2, in feature space);
//	post-processing: fetch each candidate window, compute the exact
//	    distance and the optimal (a, b) (§5.2), and apply the user's
//	    transformation cost bounds.
//
// Feature-space search has no false dismissals because the SE and DFT
// maps are linear contractions; the post-processing step removes all
// false alarms, so results are exactly the brute-force answer set.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"scaleshift/internal/binio"
	"scaleshift/internal/dft"
	"scaleshift/internal/engine"
	"scaleshift/internal/geom"
	"scaleshift/internal/rtree"
	"scaleshift/internal/store"
	"scaleshift/internal/vec"
)

// ReductionKind selects the dimension-reduction basis.
type ReductionKind int

const (
	// ReductionDFT keeps the first f_c complex DFT coefficients — the
	// paper's choice, following Faloutsos et al. [2].
	ReductionDFT ReductionKind = iota
	// ReductionHaar keeps the 2·f_c coarsest Haar wavelet rows — the
	// alternative family the paper cites (Chan & Fu [14]).  Requires a
	// power-of-two window length.
	ReductionHaar
)

// String names the reduction for tables and logs.
func (k ReductionKind) String() string {
	switch k {
	case ReductionDFT:
		return "dft"
	case ReductionHaar:
		return "haar"
	default:
		return "unknown"
	}
}

// Options configures an Index.  Start from DefaultOptions.
type Options struct {
	// WindowLen is the extracting-window length n (§6 pre-processing).
	WindowLen int
	// Coefficients is f_c, the number of DFT coefficients kept by the
	// dimension-reduction step; the index dimensionality is 2·f_c
	// (§7: 3 coefficients → a 6-dimensional R*-tree).  The Haar
	// reduction keeps 2·f_c rows so the index dimensionality matches.
	Coefficients int
	// Reduction selects the feature basis (default DFT, as in §7).
	Reduction ReductionKind
	// Tree holds the R*-tree structural parameters.  Tree.Dim is
	// ignored; it is derived from Coefficients.
	Tree rtree.Config
	// Strategy selects the MBR penetration check (§7): experiment
	// set 2 uses geom.EnteringExiting, set 3 geom.BoundingSpheres.
	Strategy geom.Strategy
}

// DefaultOptions returns the paper's experimental configuration:
// window length 128, f_c = 3 (6 dims), M = 20, m = 8, p = 6, R* split,
// Entering/Exiting-Points penetration.
func DefaultOptions() Options {
	return Options{
		WindowLen:    128,
		Coefficients: 3,
		Tree:         rtree.DefaultConfig(6),
		Strategy:     geom.EnteringExiting,
	}
}

// CostBounds is the user-specified cost limit on transformations (§3):
// a match is reported only when its optimal scale factor lies in
// [ScaleMin, ScaleMax] and its shift offset in [ShiftMin, ShiftMax].
// Use UnboundedCosts to accept every transformation; the zero value
// accepts only a = b = 0.
type CostBounds struct {
	ScaleMin, ScaleMax float64
	ShiftMin, ShiftMax float64
}

// UnboundedCosts places no restriction on the transformation.
func UnboundedCosts() CostBounds {
	inf := math.Inf(1)
	return CostBounds{ScaleMin: -inf, ScaleMax: inf, ShiftMin: -inf, ShiftMax: inf}
}

// Allow reports whether a transformation with scale a and shift b is
// within bounds.
func (c CostBounds) Allow(a, b float64) bool {
	return a >= c.ScaleMin && a <= c.ScaleMax && b >= c.ShiftMin && b <= c.ShiftMax
}

// Match is one qualifying data subsequence.
type Match struct {
	// Seq and Start address the window inside the store; Name is the
	// sequence's name.
	Seq, Start int
	Name       string
	// Dist is the exact minimum D₂(F_{a,b}(Q), S').
	Dist float64
	// Scale and Shift are the optimal transformation (§5.2).
	Scale, Shift float64
}

// SearchStats accounts one query in the paper's cost model, extended
// with the query engine's per-stage accounting: how long each stage
// (plan, probe, verify) took and which access path served each probe.
// Candidates counts windows emitted by the probe stage; FalseAlarms +
// CostRejected count those pruned by verification; Results counts
// those matched.
type SearchStats struct {
	// IndexNodeAccesses counts R*-tree pages read.
	IndexNodeAccesses int
	// DataPageAccesses counts distinct data pages fetched during
	// post-processing: under a positive Query.Limit, at most what the
	// unlimited query fetches (see NormCertified).
	DataPageAccesses int
	// Candidates counts leaf hits forwarded to post-processing.
	Candidates int
	// FalseAlarms counts candidates rejected by the exact check.
	FalseAlarms int
	// CostRejected counts exact matches rejected by the cost bounds.
	CostRejected int
	// Results counts the matches — all of them, whatever Query.Limit
	// returned.
	Results int
	// ExactChecks counts the candidates that paid the exact distance
	// pass: every returned row, plus the windows the certified
	// prefix-sum bound could not classify.
	ExactChecks int
	// NormCertified counts the matches beyond the returned rows that
	// were counted from their window statistics alone — SE-norm within
	// ε, no cost bound — without the window being fetched.
	NormCertified int
	// LeafEntriesChecked counts leaf feature points compared.
	LeafEntriesChecked int
	// SubtreesAccepted counts directory entries the index phase accepted
	// whole — every point beneath them within ε of the SE-line, the
	// a ≈ 0 shell — and LeafEntriesAccepted the leaf points they
	// forwarded without a comparison (see rtree.SearchStats).
	SubtreesAccepted, LeafEntriesAccepted int
	// Penetration counts geometric pruning primitives.
	Penetration geom.CheckStats
	// PlanTime, ProbeTime, and VerifyTime are the wall-clock totals of
	// the engine's three execution stages.
	PlanTime, ProbeTime, VerifyTime time.Duration
	// PathProbes counts index-phase probes served by each access path,
	// indexed by engine.PathKind (PathRTree and PathScan; the PathAuto
	// slot stays zero): one per piece per probed segment — an
	// Index is one segment, so one per range query and one per piece of
	// a multipiece long query; a segmented index adds one per further
	// frozen segment and one for a non-empty delta.
	PathProbes [engine.NumPathKinds]int
	// TraceID references the obs trace recorded for this query, when
	// the search ran under a traced context (obs.Tracer.StartTrace);
	// empty otherwise.  Accumulating stats across queries keeps the
	// first ID.
	TraceID string
}

// PageAccesses returns the total page count (index + data), the
// quantity plotted in Figure 5.
func (s SearchStats) PageAccesses() int {
	return s.IndexNodeAccesses + s.DataPageAccesses
}

// Add accumulates o into s.
func (s *SearchStats) Add(o SearchStats) {
	s.IndexNodeAccesses += o.IndexNodeAccesses
	s.DataPageAccesses += o.DataPageAccesses
	s.Candidates += o.Candidates
	s.FalseAlarms += o.FalseAlarms
	s.CostRejected += o.CostRejected
	s.Results += o.Results
	s.ExactChecks += o.ExactChecks
	s.NormCertified += o.NormCertified
	s.LeafEntriesChecked += o.LeafEntriesChecked
	s.SubtreesAccepted += o.SubtreesAccepted
	s.LeafEntriesAccepted += o.LeafEntriesAccepted
	s.Penetration.Add(o.Penetration)
	s.PlanTime += o.PlanTime
	s.ProbeTime += o.ProbeTime
	s.VerifyTime += o.VerifyTime
	for i := range s.PathProbes {
		s.PathProbes[i] += o.PathProbes[i]
	}
	if s.TraceID == "" {
		s.TraceID = o.TraceID
	}
}

// CheckInvariants verifies the accounting identities that range-query
// stats must satisfy, however they were accumulated (single queries,
// long queries, batches, any access path):
//
//   - every candidate emitted by a probe is classified exactly once:
//     Candidates == FalseAlarms + CostRejected + Results;
//   - no counter is negative.
//
// It applies to range-query accounting only: nearest-neighbour search
// counts refined candidates without classifying them, so NN stats are
// exempt.  Tests assert this across every access path; production
// callers can use it as a cheap self-check on aggregated telemetry.
func (s SearchStats) CheckInvariants() error {
	for _, c := range []struct {
		name  string
		value int
	}{
		{"IndexNodeAccesses", s.IndexNodeAccesses},
		{"DataPageAccesses", s.DataPageAccesses},
		{"Candidates", s.Candidates},
		{"FalseAlarms", s.FalseAlarms},
		{"CostRejected", s.CostRejected},
		{"Results", s.Results},
		{"ExactChecks", s.ExactChecks},
		{"NormCertified", s.NormCertified},
		{"LeafEntriesChecked", s.LeafEntriesChecked},
		{"SubtreesAccepted", s.SubtreesAccepted},
		{"LeafEntriesAccepted", s.LeafEntriesAccepted},
	} {
		if c.value < 0 {
			return fmt.Errorf("core: SearchStats invariant violated: %s = %d < 0", c.name, c.value)
		}
	}
	if got := s.FalseAlarms + s.CostRejected + s.Results; s.Candidates != got {
		return fmt.Errorf("core: SearchStats invariant violated: Candidates = %d but FalseAlarms+CostRejected+Results = %d+%d+%d = %d",
			s.Candidates, s.FalseAlarms, s.CostRejected, s.Results, got)
	}
	return nil
}

// Index is the scale/shift-invariant subsequence index of §6: one
// frozen arena over the windows indexed when it was last built, and a
// delta holding what the mutators (IndexSequence, AppendAndIndex,
// ExtendAndIndex) have added since — searched together, so a mutation
// is visible to the next Exec — until Freeze folds the delta into a new
// arena.  Mutating methods must not run concurrently with searches.
type Index struct {
	// writer is the mutable side: the store, the delta, the extraction
	// state that continues each sequence (writer.go).
	writer
	// flat is the arena, and indexed how many windows of each sequence it
	// covers: the first indexed[seq] of them.  The delta continues every
	// sequence from there to writer.next.
	flat    *rtree.FlatTree
	indexed []int
	// man is what every query and shape accessor reads: the arena as the
	// one frozen segment of a manifest, the delta as of the last
	// mutation, over the live store.  It is immutable; install and
	// republish replace it.
	man *manifest
	// mapping backs flat when the index was opened zero-copy from a
	// file (LoadIndexFile); the arena's arrays alias it, so it must
	// outlive the last search.  artifact is the whole mapped frame,
	// kept for the deferred VerifyArtifact pass.
	mapping  *binio.Mapping
	artifact []byte
	// stages is where the last bulk build's time went (see BuildStages).
	stages BuildStages
}

// BuildStages is where a bulk build's time went: extracting the feature
// points into columns, tiling them (polar keys, sorts, directory
// extents), and emitting the arena.  Zero for an index that was opened
// or built by a loader of the caller's (BuildWith).
type BuildStages struct {
	Extract, Tile, Emit time.Duration
}

// BuildStages returns the stage split of the bulk build that produced
// the index's arena.
func (ix *Index) BuildStages() BuildStages { return ix.stages }

// DirectoryBox is the value of Index.Directory for every arena this
// package builds or opens.
const DirectoryBox = rtree.DirectoryBox

// Directory names the shape of the arena's directory: DirectoryBox (norm
// ranges and unit-direction boxes, pruned by the cone test) for every
// arena this package builds or opens — flatFromSection refuses any other
// — and whatever a caller's loader writes for one built by BuildWith.
func (ix *Index) Directory() string { return ix.flat.Directory() }

// NewIndex creates an empty index over st.  Sequences already in st
// are not indexed until Build (or IndexSequence) is called.
func NewIndex(st *store.Store, opts Options) (*Index, error) {
	if opts.WindowLen < 3 {
		return nil, fmt.Errorf("core: window length %d too short", opts.WindowLen)
	}
	var fmap *dft.FeatureMap
	var err error
	switch opts.Reduction {
	case ReductionDFT:
		fmap, err = dft.NewFeatureMap(opts.WindowLen, opts.Coefficients)
	case ReductionHaar:
		fmap, err = dft.NewHaarMap(opts.WindowLen, 2*opts.Coefficients)
	default:
		return nil, fmt.Errorf("core: unknown reduction kind %d", int(opts.Reduction))
	}
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	cfg := opts.Tree
	cfg.Dim = fmap.Dim()
	flat, err := rtree.BulkLoadFlat(cfg, nil, nil, 1) // the empty arena
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	switch opts.Strategy {
	case geom.EnteringExiting, geom.BoundingSpheres:
	default:
		return nil, fmt.Errorf("core: unknown penetration strategy %d", int(opts.Strategy))
	}
	ix := &Index{writer: newWriter(st, opts, fmap)}
	ix.install(flat, nil)
	return ix, nil
}

// install makes flat, covering the first indexed[seq] windows of every
// sequence, the index's arena, with nothing pending: the delta is
// emptied, extraction continues from the arena's coverage, and the
// manifest is the arena as its one frozen segment.
func (ix *Index) install(flat *rtree.FlatTree, indexed []int) {
	ix.flat, ix.indexed = flat, indexed
	ix.delta = deltaSeg{dim: ix.fmap.Dim()}
	clear(ix.sliders)
	ix.next = slices.Clone(indexed)
	bounds, _ := flat.Bounds() // the zero Rect, hence no slack, while empty
	ix.maxAbs = maxAbsRect(bounds)
	seg := &frozenSeg{flat: flat, ranges: prefixRanges(indexed)}
	for _, r := range seg.ranges {
		seg.count += r.Hi
	}
	ix.man = ix.manifest(0, ix.st, []*frozenSeg{seg})
}

// republish replaces the manifest after a mutation: the same frozen
// segment, the delta and the options as they now are.
func (ix *Index) republish() {
	ix.man = ix.manifest(0, ix.st, ix.man.frozen)
}

// Options returns the index configuration.
func (ix *Index) Options() Options { return ix.opts }

// SetStrategy switches the MBR penetration check used by subsequent
// searches.  The index structure is independent of the strategy, so
// the paper's experiment sets 2 and 3 can share one index.
func (ix *Index) SetStrategy(s geom.Strategy) error {
	switch s {
	case geom.EnteringExiting, geom.BoundingSpheres:
		ix.opts.Strategy = s
		ix.republish()
		return nil
	default:
		return fmt.Errorf("core: unknown penetration strategy %d", int(s))
	}
}

// Store returns the underlying sequence store.
func (ix *Index) Store() *store.Store { return ix.st }

// QueryWindow reads window [start, start+n) of sequence seq for
// serving-layer use.  On an Index the store is immutable, so this is
// Store().Window; the segmented counterpart reads through the
// published manifest's snapshot so the read cannot race with appends.
func (ix *Index) QueryWindow(seq, start, n int, dst vec.Vector) error {
	return ix.man.sv.Window(seq, start, n, dst, nil)
}

// StoreShape reports the store's sequence, value, and page counts for
// serving-layer gauges; see QueryWindow for the concurrency contract.
func (ix *Index) StoreShape() (seqs, values, pages int) { return ix.man.storeShape() }

// WindowCount returns the number of searchable windows: the arena's and
// the delta's, so a mutation shows at once.
func (ix *Index) WindowCount() int { return ix.man.windowCount() }

// EntryCount returns the number of leaf entries in the arena: one
// feature point per window it covers.  Like the other shape accessors
// below it describes the arena, which the delta joins at the next fold.
func (ix *Index) EntryCount() int { return ix.flat.Len() }

// IndexPageCount returns the number of index pages (tree nodes).
func (ix *Index) IndexPageCount() int { return ix.man.indexPageCount() }

// IndexByteCount returns the size of the arena in bytes.  Pages count
// nodes, the paper's unit of index I/O, whatever a node's entries weigh;
// this is what the index costs in memory and on disk.
func (ix *Index) IndexByteCount() int { return ix.man.indexByteCount() }

// TreeHeight returns the R*-tree height.
func (ix *Index) TreeHeight() int { return ix.man.treeHeight() }

// WriteIndexStats renders per-level geometry statistics of the
// directory (occupancy, MBR elongation, circumscribed/inscribed sphere
// gap) — the numbers behind §7's explanation of the bounding-spheres
// failure.
func (ix *Index) WriteIndexStats(w io.Writer) error { return ix.flat.WriteStats(w) }

// Build indexes every window of every sequence currently in the store
// (§6 pre-processing), whatever the index held before: the bulk build of
// BuildBulkParallel, on every CPU.
func (ix *Index) Build() error {
	return ix.rebuild(context.Background(), ix.allWindows(), 0, nil)
}

// BuildWith is Build with the arena made by load, a loader of
// rtree.BulkLoadFlat's shape, from the feature points in (sequence,
// start) order: how the paper's experiments index by one-by-one R*
// insertion (internal/bench/rstar.Load) an index that is then searched,
// mutated and saved like any other.  Whatever directory load writes is
// served as it is until the next fold.
func (ix *Index) BuildWith(load func(cfg rtree.Config, ids []int64, cols []float64) (*rtree.FlatTree, error)) error {
	return ix.rebuild(context.Background(), ix.allWindows(), 0, load)
}

// BuildBulk indexes every window of every sequence by building the
// tree with Sort-Tile-Recursive bulk loading — tiled on the norm and
// direction of the feature points and summarised for the cone test
// (Directory reads DirectoryBox).  It requires an empty index; the
// loader emits the serving arena directly (see rtree.BulkLoadFlat).
// Dynamic insertion and removal work normally afterwards, through the
// delta.  It is BuildBulkParallel on one worker.
func (ix *Index) BuildBulk() error {
	return ix.BuildBulkParallelContext(context.Background(), 1)
}

// BuildBulkParallel is BuildBulk with the pre-processing fanned out
// over a bounded worker pool: feature extraction is sharded across
// sequences and across featureCheckpoint-aligned segments (each
// segment restarts the sliding DFT, so its features are
// bit-reproducible no matter which worker computes them and land at
// precomputed slots), and the STR bulk load parallelizes its sort and
// tiling passes.  workers < 1 means runtime.GOMAXPROCS(0).  The
// resulting tree is identical to the sequential BuildBulk tree.
func (ix *Index) BuildBulkParallel(workers int) error {
	return ix.BuildBulkParallelContext(context.Background(), workers)
}

// BuildBulkParallelContext is BuildBulkParallel with cooperative
// cancellation: workers poll ctx between checkpoint segments (each
// segment is at most featureCheckpoint windows of O(f_c) work, so
// cancellation latency is bounded by one segment) and the build
// returns ctx.Err() with the index left empty and reusable.  A panic
// in any worker — one poisoned sequence, say — is recovered into a
// *WorkerPanicError naming the offending (seq, window) instead of
// crashing the process.
func (ix *Index) BuildBulkParallelContext(ctx context.Context, workers int) error {
	if ix.man.windowCount() != 0 {
		return fmt.Errorf("core: BuildBulk requires an empty index")
	}
	return ix.rebuild(ctx, ix.allWindows(), workers, nil)
}

// allWindows returns, per sequence of the store, how many windows it
// holds: the coverage of a full build.
func (ix *Index) allWindows() []int {
	counts := make([]int, ix.st.NumSequences())
	for seq := range counts {
		counts[seq] = max(0, ix.st.SequenceLen(seq)-ix.opts.WindowLen+1)
	}
	return counts
}

// rebuild replaces the arena with one built from the store over the
// first next[seq] windows of every sequence, and empties the delta: a
// fold when next is what the index already covers, a build when it is
// the whole store.  The old arena is released (its backing mapping, if
// any, closed); on failure the index is left as it was.  load, when
// non-nil, stands in for rtree.BulkLoadFlat; workers < 1 means
// runtime.GOMAXPROCS(0).
func (ix *Index) rebuild(ctx context.Context, next []int, workers int, load func(rtree.Config, []int64, []float64) (*rtree.FlatTree, error)) error {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	flat, stages, err := bulkLoadRanges(ctx, ix.st, ix.fmap, ix.opts, prefixRanges(next), workers, load)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		return fmt.Errorf("core: bulk indexing: %w", err)
	}
	ix.stages, ix.artifact = stages, nil
	ix.install(flat, next)
	m := ix.mapping
	ix.mapping = nil
	return m.Close()
}

// prefixRanges returns the windows [0, counts[seq]) of every sequence
// that has any.
func prefixRanges(counts []int) []winRange {
	ranges := make([]winRange, 0, len(counts))
	for seq, c := range counts {
		if c > 0 {
			ranges = append(ranges, winRange{Seq: seq, Lo: 0, Hi: c})
		}
	}
	return ranges
}

// bulkLoadRanges extracts the feature point of every window of ranges
// and bulk loads them into a frozen tree.  Extraction writes straight
// into the columnar buffer the loader reads — window k of the
// concatenated ranges has coordinate j at cols[j·n+k] — so no object is
// made per window.  The work is cut at featureCheckpoint boundaries,
// where the sliding DFT restarts, and shared over workers goroutines
// that poll ctx between pieces; every piece lands at slots fixed in
// advance, so the tree does not depend on the schedule.  The stage
// split is returned and, with observability on, published.  It is the
// fold of both index types; a nil load is rtree.BulkLoadFlat on workers.
func bulkLoadRanges(ctx context.Context, sv storeView, fmap *dft.FeatureMap, opts Options, ranges []winRange, workers int, load func(rtree.Config, []int64, []float64) (*rtree.FlatTree, error)) (*rtree.FlatTree, BuildStages, error) {
	start := time.Now()
	type piece struct{ seq, cp, segLast, lo, slot int }
	var pieces []piece
	n := 0
	for _, r := range ranges {
		for cp := r.Lo - r.Lo%featureCheckpoint; cp < r.Hi; cp += featureCheckpoint {
			pieces = append(pieces, piece{r.Seq, cp, min(cp+featureCheckpoint, r.Hi) - 1, r.Lo, n - r.Lo})
		}
		n += r.Hi - r.Lo
	}
	dim := fmap.Dim()
	ids, cols := make([]int64, n), make([]float64, n*dim)

	workers = max(1, min(workers, len(pieces)))
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			curSeq, curStart := -1, -1
			defer recoverWorkerPanic("bulk build", &curSeq, &curStart, &errs[g])
			sc := newSegScratch(opts)
			feat := make(vec.Vector, dim)
			for k := int(next.Add(1)) - 1; k < len(pieces); k = int(next.Add(1)) - 1 {
				if errs[g] = ctx.Err(); errs[g] != nil {
					return
				}
				pc := pieces[k]
				curSeq, curStart = pc.seq, pc.cp
				errs[g] = extractSegment(sv, fmap, opts, pc.seq, pc.cp, pc.segLast, pc.lo, sc, feat, func(start int, f vec.Vector) error {
					curStart = start
					ids[pc.slot+start] = store.EncodeWindowID(pc.seq, start)
					for j, x := range f {
						cols[j*n+pc.slot+start] = x
					}
					return nil
				})
				if errs[g] != nil {
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// Prefer reporting a real failure over a bare context error: if a
	// worker panicked or hit I/O trouble while another saw the
	// cancellation, the cause is the more useful message.
	var ctxErr error
	for _, err := range errs {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			ctxErr = err
		} else if err != nil {
			return nil, BuildStages{}, err
		}
	}
	if ctxErr != nil {
		return nil, BuildStages{}, ctxErr
	}
	cfg := opts.Tree
	cfg.Dim = dim
	extract := time.Since(start)
	if load == nil {
		load = func(cfg rtree.Config, ids []int64, cols []float64) (*rtree.FlatTree, error) {
			return rtree.BulkLoadFlat(cfg, ids, cols, workers)
		}
	}
	flat, err := load(cfg, ids, cols)
	if err != nil {
		return nil, BuildStages{}, err
	}
	stages := BuildStages{Extract: extract}
	stages.Tile, stages.Emit = flat.BuildStages()
	recordBuildStages(stages)
	return flat, stages, nil
}

// IndexSequence indexes the windows of sequence seq that are not yet
// indexed, into the delta: the next Exec finds them.  It is idempotent
// and supports sequences that grew since the last call (requirement 2
// of §3).
func (ix *Index) IndexSequence(seq int) error {
	if seq < 0 || seq >= ix.st.NumSequences() {
		return fmt.Errorf("core: sequence %d out of range [0, %d)", seq, ix.st.NumSequences())
	}
	if err := ix.extract(seq); err != nil {
		return err
	}
	ix.republish()
	return nil
}

// featureCheckpoint is the absolute window-start stride at which the
// sliding DFT restarts from scratch.  Restarting at fixed checkpoints
// makes every window's feature bit-reproducible no matter where an
// extraction begins — required so a window absorbed as its sequence
// grew (ExtendAndIndex, AppendValues) and the same window re-extracted
// by a fold are one feature point — and bounds floating-point drift as
// a side effect.
const featureCheckpoint = 256

// segScratch holds the per-worker state of one feature-extraction
// stream: raw spans a checkpoint segment's samples for the sliding DFT
// and slider is the transformer re-seeded on each segment; w and se
// serve the direct (Haar) transform.
type segScratch struct {
	raw, w, se vec.Vector
	slider     *dft.SlidingTransformer
}

func newSegScratch(opts Options) *segScratch {
	n := opts.WindowLen
	if opts.Reduction == ReductionDFT {
		return &segScratch{raw: make(vec.Vector, n+featureCheckpoint-1)}
	}
	return &segScratch{w: make(vec.Vector, n), se: make(vec.Vector, n)}
}

// extractSegment streams the features of windows [max(cp, from),
// segLast] of sequence seq into fn, where cp is a checkpoint-aligned
// segment start.  The sliding DFT restarts from scratch at cp, so the
// emitted features depend only on (seq, cp) — any caller that respects
// checkpoint alignment reproduces them bit-identically, which is what
// lets the bulk build shard segments across workers and a compaction
// re-extract any slice of a sequence.
func extractSegment(sv storeView, fmap *dft.FeatureMap, opts Options, seq, cp, segLast, from int, sc *segScratch, feat vec.Vector, fn func(start int, f vec.Vector) error) error {
	n := opts.WindowLen
	if opts.Reduction == ReductionDFT {
		span := segLast - cp + n // samples covering windows [cp, segLast]
		if err := sv.Window(seq, cp, span, sc.raw[:span], nil); err != nil {
			return err
		}
		// Reposition seeds exactly as NewSlidingTransformer does, so the
		// features do not depend on what the scratch extracted before.
		var err error
		if sc.slider == nil {
			sc.slider, err = dft.NewSlidingTransformer(fmap, sc.raw[:n])
		} else {
			err = sc.slider.Reposition(sc.raw[:n])
		}
		if err != nil {
			return err
		}
		for s := cp; s <= segLast; s++ {
			if s > cp {
				sc.slider.Slide(sc.raw[s-cp+n-1])
			}
			if s < from {
				continue
			}
			sc.slider.Feature(feat)
			if err := fn(s, feat); err != nil {
				return err
			}
		}
		return nil
	}
	for start := max(cp, from); start <= segLast; start++ {
		if err := sv.Window(seq, start, n, sc.w, nil); err != nil {
			return err
		}
		vec.SETransformInPlace(sc.se, sc.w)
		fmap.TransformInto(feat, sc.se)
		if err := fn(start, feat); err != nil {
			return err
		}
	}
	return nil
}

// AppendAndIndex appends a new sequence to the store and indexes its
// windows, returning the sequence id.
func (ix *Index) AppendAndIndex(name string, values []float64) (int, error) {
	seq := ix.st.AppendSequence(name, values)
	return seq, ix.IndexSequence(seq)
}

// ExtendAndIndex appends new samples to the store's most recent
// sequence and indexes the windows they complete — including the
// windows spanning the old end (requirement 2 of §3: time series are
// collected regularly and must become searchable as they arrive).
func (ix *Index) ExtendAndIndex(seq int, values []float64) error {
	if err := ix.st.ExtendSequence(seq, values); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return ix.IndexSequence(seq)
}

// UnindexSequence removes every indexed window of sequence seq: the
// arena is rebuilt from the store without them (and with whatever the
// delta held folded in).  The raw data remains in the store (the store
// is append-only) but the windows will no longer be found by searches.
func (ix *Index) UnindexSequence(seq int) error {
	if seq < 0 || seq >= len(ix.next) {
		return fmt.Errorf("core: sequence %d not indexed", seq)
	}
	next := slices.Clone(ix.next)
	next[seq] = 0
	return ix.rebuild(context.Background(), next, 0, nil)
}

// numericSlack is how far the index phase widens ε so that neither of
// its two inexactnesses dismisses a true match; maxAbs is the largest
// coordinate magnitude in the index.  The exact post-processing check
// reapplies the caller's epsilon, so the widening never adds false
// results.
//
// Computing PLD near zero cancels catastrophically, with absolute error
// on the order of ‖point‖·√ε_machine ≈ 1.5e-8·‖point‖: the 1e-7 term is
// a conservative multiple of the largest point norm.
//
// A frozen arena stores each feature point p rounded to a float32 p̃ in
// units of 2^exp, ½ ≤ maxAbs·2^-exp < 1 (rtree.FlatTree): per
// coordinate |pⱼ − p̃ⱼ| ≤ 2⁻²⁴·|p̃ⱼ| where the scaled value is a normal
// float32 and ≤ 2⁻¹⁵⁰·2^exp ≤ 2⁻¹⁴⁹·maxAbs where it is subnormal, so
// ‖p − p̃‖ ≤ 2⁻²⁴·maxAbs·√dim (the subnormal case is 2¹²⁵ times
// smaller, and vanishes in float64 beside the other).  Point-to-line
// distance is 1-Lipschitz in the point: PLD(p, l) ≤ ε implies
// PLD(p̃, l) ≤ ε + ‖p − p̃‖, and the MBRs above contain p̃.  The k-NN
// stream's stop rule reads the same inequality the other way (a streamed
// bound is at most the true distance plus the slack).  The delta's exact
// float64 features do not need the term; one slack serves a manifest.
func numericSlack(maxAbs float64, dim int) float64 {
	return (1e-7 + 0x1p-24) * maxAbs * math.Sqrt(float64(dim))
}

// seLineFor returns the query's SE-line image in feature space: the
// line {t·F(T_se(q))} through the origin (§5.1 property 3; linear maps
// send lines through the origin to lines through the origin).
func seLineFor(fmap *dft.FeatureMap, q vec.Vector) vec.Line {
	se := vec.SETransform(q)
	d := fmap.Transform(se)
	return vec.Line{P: make(vec.Vector, fmap.Dim()), D: d}
}
