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
	"scaleshift/internal/resilience"
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
	// slot stays zero): one per piece per probed segment — one per
	// frozen segment and one for a non-empty delta, so a built index
	// counts one per range query and one per piece of a multipiece long
	// query.
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

// Index is the scale/shift-invariant subsequence index of §6, and the
// one index type: an ordered set of immutable frozen segments — each a
// bulk-loaded flat R*-tree over a contiguous per-sequence window range
// (segment.go) — plus a mutable delta of the windows added since the
// last fold (delta.go), read through a manifest that is published
// through an RCU cell.  A build installs one frozen segment over the
// whole store.  The mutators (IndexSequence, AppendAndIndex,
// AppendValues, IndexStore) extract the windows the store gained
// into the delta and publish a new manifest, so the next Exec finds
// them; queries pin a manifest and never block on a mutation.  Compact
// folds the delta into a new frozen segment, merging older ones by the
// size-tiered policy, and Freeze merges every segment and the delta
// into one — the segment a Build over the same windows makes.  The
// background compactor runs Compact whenever the delta crosses
// CompactThreshold; it does not run until StartCompactor is called.
//
// Results are bit-identical to a sequential scan, whatever the segment
// layout: extraction follows one checkpoint discipline, every segment
// feeds the same exact verifier, and the verifier reads through the
// manifest's pinned store snapshot.
//
// Queries may run from any number of goroutines, concurrently with the
// mutators, which serialize against each other internally.
type Index struct {
	// writer is the delta, the extraction state behind it and the store
	// they follow, guarded by mu.
	writer
	// mappings are the artifact files frozen segments were opened from
	// (LoadIndexFile, SegmentList.Open), held until Close: a merged-away
	// segment may still be pinned by a query.
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
	// compactions and builds, so a compaction's slow phase runs outside
	// mu.
	mu        sync.Mutex
	compactMu sync.Mutex

	frozen []*frozenSeg
	gen    int64
	// stages is where the last bulk build's time went (see BuildStages).
	stages BuildStages

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

// SegmentedIndex is Index.  The name is kept for the callers that
// still use it.
type SegmentedIndex = Index

// BuildStages is where a bulk build's time went: extracting the feature
// points into columns, tiling them (polar keys, sorts, directory
// extents), and emitting the arena.  Zero for an index that was opened
// or built by a loader of the caller's (BuildWith).
type BuildStages struct {
	Extract, Tile, Emit time.Duration
}

// BuildStages returns the stage split of the last Build.
func (ix *Index) BuildStages() BuildStages {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.stages
}

// DirectoryBox is the value of Index.Directory for every arena this
// package builds or opens.
const DirectoryBox = rtree.DirectoryBox

// Directory names the shape of the frozen segments' directories:
// DirectoryBox (norm ranges and unit-direction boxes, pruned by the
// cone test) for every arena this package builds or opens —
// flatFromSection refuses any other — and whatever a caller's loader
// writes for one built by BuildWith, until a fold replaces it.
func (ix *Index) Directory() string {
	d := DirectoryBox
	ix.published(func(m *manifest) {
		for _, sg := range m.frozen {
			if sd := sg.flat.Directory(); sd != DirectoryBox {
				d = sd
			}
		}
	})
	return d
}

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
	if _, err := rtree.BulkLoadFlat(cfg, nil, nil, 1); err != nil { // validates cfg
		return nil, fmt.Errorf("core: %w", err)
	}
	switch opts.Strategy {
	case geom.EnteringExiting, geom.BoundingSpheres:
	default:
		return nil, fmt.Errorf("core: unknown penetration strategy %d", int(opts.Strategy))
	}
	ix := &Index{
		writer:           newWriter(st, opts, fmap),
		CompactThreshold: 4096,
		MergeRatio:       2,
		MaxFrozen:        8,
		kick:             make(chan struct{}, 1),
		done:             make(chan struct{}),
	}
	ix.cell = resilience.NewCell(ix.manifestLocked())
	return ix, nil
}

// NewSegmentedFromIndex returns ix: there is one index type.  It is
// kept for the callers that still convert.
func NewSegmentedFromIndex(ix *Index) (*Index, error) { return ix, nil }

// published runs fn on the published manifest, pinned for the call.
func (ix *Index) published(fn func(*manifest)) {
	pin := ix.cell.Acquire()
	defer pin.Release()
	fn(pin.Value())
}

// Options returns the index configuration.
func (ix *Index) Options() (o Options) {
	ix.published(func(m *manifest) { o = m.opts })
	return o
}

// SetStrategy switches the MBR penetration check used by subsequent
// searches.  The index structure is independent of the strategy, so
// the paper's experiment sets 2 and 3 can share one index.
func (ix *Index) SetStrategy(s geom.Strategy) error {
	switch s {
	case geom.EnteringExiting, geom.BoundingSpheres:
	default:
		return fmt.Errorf("core: unknown penetration strategy %d", int(s))
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.opts.Strategy = s
	ix.publishLocked()
	return nil
}

// Store returns the underlying store.  It is writer-side state: while
// mutations run, read through QueryWindow (or a manifest snapshot)
// instead.
func (ix *Index) Store() *store.Store { return ix.st }

// Generation returns the published manifest generation.
func (ix *Index) Generation() (gen int64) {
	ix.published(func(m *manifest) { gen = m.gen })
	return gen
}

// QueryWindow reads window [start, start+n) of sequence seq through the
// published manifest's store snapshot — safe against concurrent
// mutations, unlike Store().Window.
func (ix *Index) QueryWindow(seq, start, n int, dst vec.Vector) (err error) {
	ix.published(func(m *manifest) { err = m.sv.Window(seq, start, n, dst, nil) })
	return err
}

// StoreShape reports the snapshot's sequence, value, and page counts
// for serving-layer gauges, read race-free through the manifest.
func (ix *Index) StoreShape() (seqs, values, pages int) {
	ix.published(func(m *manifest) { seqs, values, pages = m.storeShape() })
	return seqs, values, pages
}

// WindowCount returns the number of searchable windows, frozen and
// delta, so a mutation shows at once.
func (ix *Index) WindowCount() (n int) {
	ix.published(func(m *manifest) { n = m.windowCount() })
	return n
}

// EntryCount returns the number of leaf entries in the frozen
// segments: one feature point per window they cover.  Like the other
// shape accessors below it describes the frozen segments, which the
// delta joins at the next fold.
func (ix *Index) EntryCount() (n int) {
	ix.published(func(m *manifest) {
		for _, sg := range m.frozen {
			n += sg.flat.Len()
		}
	})
	return n
}

// IndexPageCount returns the number of index pages (tree nodes) across
// the frozen segments.
func (ix *Index) IndexPageCount() (n int) {
	ix.published(func(m *manifest) { n = m.indexPageCount() })
	return n
}

// IndexByteCount returns the size of the frozen segments' arenas in
// bytes.  Pages count nodes, the paper's unit of index I/O, whatever a
// node's entries weigh; this is what the index costs in memory and on
// disk.
func (ix *Index) IndexByteCount() (n int) {
	ix.published(func(m *manifest) { n = m.indexByteCount() })
	return n
}

// TreeHeight returns the tallest frozen segment's R*-tree height.
func (ix *Index) TreeHeight() (h int) {
	ix.published(func(m *manifest) { h = m.treeHeight() })
	return h
}

// WriteIndexStats renders per-level geometry statistics of each frozen
// segment's directory (occupancy, MBR elongation, circumscribed/inscribed
// sphere gap) — the numbers behind §7's explanation of the
// bounding-spheres failure.
func (ix *Index) WriteIndexStats(w io.Writer) (err error) {
	ix.published(func(m *manifest) {
		for _, sg := range m.frozen {
			if err == nil {
				err = sg.flat.WriteStats(w)
			}
		}
	})
	return err
}

// Build indexes every window of every sequence currently in the store
// (§6 pre-processing), whatever the index held before: the bulk build of
// BuildBulkParallel, on every CPU.  Like every build, it fails with a
// *store.DomainError naming the first value stored outside the numeric
// domain: a store filled in process records it as it fills.
func (ix *Index) Build() error {
	return ix.rebuild(context.Background(), 0, nil, ix.allWindows)
}

// BuildWith is Build with the arena made by load, a loader of
// rtree.BulkLoadFlat's shape, from the feature points in (sequence,
// start) order: how the paper's experiments index by one-by-one R*
// insertion (internal/bench/rstar.Load) an index that is then searched,
// mutated and saved like any other.  Whatever directory load writes is
// served as it is until the next fold.  load runs under the index's
// writer lock, so it must not call the index's mutators.
func (ix *Index) BuildWith(load func(cfg rtree.Config, ids []int64, cols []float64) (*rtree.FlatTree, error)) error {
	return ix.rebuild(context.Background(), 0, load, ix.allWindows)
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
	return ix.rebuild(ctx, workers, nil, func(next []int) ([]int, error) {
		if ix.WindowCount() != 0 {
			return nil, fmt.Errorf("core: BuildBulk requires an empty index")
		}
		return ix.allWindows(next)
	})
}

// allWindows returns, per sequence of the store, how many windows it
// holds: the coverage of a full build.
func (ix *Index) allWindows([]int) ([]int, error) {
	counts := make([]int, ix.st.NumSequences())
	for seq := range counts {
		counts[seq] = max(0, ix.st.SequenceLen(seq)-ix.opts.WindowLen+1)
	}
	return counts, nil
}

// rebuild replaces every segment and the delta with one frozen segment
// bulk-built from the store over the first next[seq] windows of every
// sequence, where next is what cover makes of a copy of the current
// coverage.  It holds the writer lock throughout, so it serializes with
// mutations and compactions while queries keep the published manifest;
// on failure the index is left as it was.  load, when non-nil, stands
// in for rtree.BulkLoadFlat; workers < 1 means runtime.GOMAXPROCS(0).
func (ix *Index) rebuild(ctx context.Context, workers int, load func(rtree.Config, []int64, []float64) (*rtree.FlatTree, error), cover func(next []int) ([]int, error)) error {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	ix.compactMu.Lock()
	defer ix.compactMu.Unlock()
	ix.mu.Lock()
	defer ix.mu.Unlock()
	next, err := cover(slices.Clone(ix.next))
	if err != nil {
		return err
	}
	if _, err := ix.st.Domain(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	ranges := prefixRanges(next)
	flat, stages, err := bulkLoadRanges(ctx, ix.st, ix.fmap, ix.opts, ranges, workers, load)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		return fmt.Errorf("core: bulk indexing: %w", err)
	}
	ix.stages = stages
	ix.frozen = nil
	if flat.Len() > 0 {
		ix.frozen = []*frozenSeg{{flat: flat, ranges: ranges, count: flat.Len()}}
	}
	ix.delta = deltaSeg{dim: ix.fmap.Dim()}
	clear(ix.streams)
	ix.next = next
	bounds, _ := flat.Bounds() // the zero Rect, hence no slack, while empty
	ix.maxAbs = maxAbsRect(bounds)
	ix.publishLocked()
	return nil
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
// split is returned and, with observability on, published.  Every
// build and every merge runs it; a nil load is rtree.BulkLoadFlat on
// workers.
func bulkLoadRanges(ctx context.Context, sv storeView, fmap *dft.FeatureMap, opts Options, ranges []winRange, workers int, load func(rtree.Config, []int64, []float64) (*rtree.FlatTree, error)) (*rtree.FlatTree, BuildStages, error) {
	start := time.Now()
	type piece struct{ seq, lo, hi, slot int }
	var pieces []piece
	n := 0
	for _, r := range ranges {
		for cp := r.Lo - r.Lo%featureCheckpoint; cp < r.Hi; cp += featureCheckpoint {
			pieces = append(pieces, piece{r.Seq, max(cp, r.Lo), min(cp+featureCheckpoint, r.Hi) - 1, n - r.Lo})
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
			fs := newFeatureStream(fmap, opts)
			for k := int(next.Add(1)) - 1; k < len(pieces); k = int(next.Add(1)) - 1 {
				if errs[g] = ctx.Err(); errs[g] != nil {
					return
				}
				pc := pieces[k]
				curSeq, curStart = pc.seq, pc.lo
				errs[g] = fs.run(sv, pc.seq, pc.lo, pc.hi, func(start int, f vec.Vector) error {
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

// featureCheckpoint is the absolute window-start stride at which the
// sliding DFT restarts from scratch.  Restarting at fixed checkpoints
// makes every window's feature bit-reproducible no matter where an
// extraction begins — a window absorbed as its sequence grew and the
// same window re-extracted by a build or a fold are one feature point —
// and bounds floating-point drift as a side effect.
const featureCheckpoint = 256

// featureStream is the one feature extractor: every build, merge, fold
// and append computes a window's feature point through one.  It is
// positioned on a window (seq, pos) of the sliding DFT and runs forward
// from there: a run continues the recurrence only from the window just
// before it, and only when that run does not begin on a checkpoint;
// otherwise it restarts at the checkpoint at or before its first window.
// The recurrence restarts at every checkpoint it crosses, so a window's
// feature is the one the slides from its checkpoint give, wherever the
// stream started.  The Haar reduction has no recurrence and transforms
// each window directly.
type featureStream struct {
	fmap     *dft.FeatureMap
	n        int
	haar     bool
	sl       *dft.SlidingTransformer // nil until the first restart
	seq, pos int                     // the window sl is positioned on
	raw, se  vec.Vector              // the samples of one run; a Haar window's SE form
	feat     vec.Vector
}

func newFeatureStream(fmap *dft.FeatureMap, opts Options) *featureStream {
	fs := &featureStream{fmap: fmap, n: opts.WindowLen, haar: opts.Reduction != ReductionDFT, seq: -1, feat: make(vec.Vector, fmap.Dim())}
	if fs.haar {
		fs.se = make(vec.Vector, fs.n)
	}
	return fs
}

// run emits the feature points of windows [lo, hi] of sequence seq to
// fn, in start order, reading the samples they need from sv in one
// read.  The vector fn receives is reused by the next window.
func (fs *featureStream) run(sv storeView, seq, lo, hi int, fn func(start int, f vec.Vector) error) error {
	if lo > hi {
		return nil
	}
	n := fs.n
	cont := !fs.haar && fs.sl != nil && fs.seq == seq && fs.pos == lo-1 && lo%featureCheckpoint != 0
	first, base := lo, lo // the first window stepped on, the first sample read
	switch {
	case cont: // the samples entering, and a crossed checkpoint's window
		base = min(lo+n-1, lo-lo%featureCheckpoint+featureCheckpoint)
	case !fs.haar:
		first, base = lo-lo%featureCheckpoint, lo-lo%featureCheckpoint
	}
	span := hi + n - base
	if cap(fs.raw) < span {
		fs.raw = make(vec.Vector, span)
	}
	raw := fs.raw[:span]
	if err := sv.Window(seq, base, span, raw, nil); err != nil {
		return err
	}
	fs.seq = seq
	for s := first; s <= hi; s++ {
		switch {
		case fs.haar:
			vec.SETransformInPlace(fs.se, raw[s-base:s-base+n])
			fs.fmap.TransformInto(fs.feat, fs.se)
		case s%featureCheckpoint == 0: // a run that does not continue starts on one
			// Reposition seeds exactly as NewSlidingTransformer does, so a
			// restart does not depend on where the stream was.
			if err := fs.restart(raw[s-base : s-base+n]); err != nil {
				return err
			}
		default:
			fs.sl.Slide(raw[s+n-1-base])
		}
		fs.pos = s
		if s < lo {
			continue
		}
		if !fs.haar {
			fs.sl.Feature(fs.feat)
		}
		if err := fn(s, fs.feat); err != nil {
			return err
		}
	}
	return nil
}

// restart seeds the recurrence on window w.
func (fs *featureStream) restart(w vec.Vector) error {
	if fs.sl == nil {
		var err error
		fs.sl, err = dft.NewSlidingTransformer(fs.fmap, w)
		return err
	}
	return fs.sl.Reposition(w)
}

// IndexSequence indexes the windows of sequence seq that are not yet
// indexed, into the delta: the next Exec finds them.  It is idempotent
// and supports sequences that grew since the last call (requirement 2
// of §3).
func (ix *Index) IndexSequence(seq int) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.indexLocked(seq, time.Now())
}

// indexLocked extracts the windows sequence seq gained into the delta
// and publishes them; start is when the mutation began.
func (ix *Index) indexLocked(seq int, start time.Time) error {
	if seq < 0 || seq >= ix.st.NumSequences() {
		return fmt.Errorf("core: sequence %d out of range [0, %d)", seq, ix.st.NumSequences())
	}
	if err := ix.extract(seq); err != nil {
		return err
	}
	ix.publishLocked()
	ix.maybeKickLocked()
	recordDeltaApply(time.Since(start))
	return nil
}

// IndexStore indexes, into the delta, every window the store holds
// that the index does not: IndexSequence over every sequence, published
// once if any window was added.  An index opened from an artifact
// written before its store grew covers the grown store after it.
func (ix *Index) IndexStore() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	had := ix.delta.n
	for seq := range ix.st.NumSequences() {
		if err := ix.extract(seq); err != nil {
			return err
		}
	}
	if ix.delta.n != had {
		ix.publishLocked()
		ix.maybeKickLocked()
	}
	return nil
}

// AppendAndIndex appends a new sequence to the store and indexes its
// windows, returning the sequence id.  Values outside the numeric
// domain (store.InDomain) are refused, as by every mutator, with a
// *store.DomainError before the store is touched.
func (ix *Index) AppendAndIndex(name string, values []float64) (int, error) {
	if err := store.CheckDomain(-1, 0, values); err != nil {
		return -1, fmt.Errorf("core: %w", err)
	}
	start := time.Now()
	ix.mu.Lock()
	defer ix.mu.Unlock()
	seq := ix.st.AppendSequence(name, values)
	return seq, ix.indexLocked(seq, start)
}

// AppendValues appends samples to sequence seq through its tail,
// extracts the features of every window the new samples complete —
// the sequence's feature stream runs forward from the last extraction
// position, no old window is recomputed — and
// publishes a new manifest generation.  Queries in flight keep their
// pinned manifest; new queries see the appended windows at once.
func (ix *Index) AppendValues(seq int, values []float64) error {
	if err := store.CheckDomain(-1, 0, values); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	start := time.Now()
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if seq < 0 || seq >= len(ix.next) {
		return fmt.Errorf("core: sequence %d out of range [0, %d)", seq, len(ix.next))
	}
	if err := ix.st.AppendValues(seq, values); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return ix.indexLocked(seq, start)
}

// UnindexSequence removes every indexed window of sequence seq: the
// index is rebuilt from the store as one frozen segment without them
// (and with whatever the delta held folded in).  The raw data remains
// in the store (the store is append-only) but the windows will no
// longer be found by searches.
func (ix *Index) UnindexSequence(seq int) error {
	return ix.rebuild(context.Background(), 0, nil, func(next []int) ([]int, error) {
		if seq < 0 || seq >= len(next) {
			return nil, fmt.Errorf("core: sequence %d not indexed", seq)
		}
		next[seq] = 0
		return next, nil
	})
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
// PLD(p̃, l) ≤ ε + ‖p − p̃‖, and the MBRs above contain p̃.  The delta's
// exact float64 features do not need the term; one slack serves a
// manifest.
func numericSlack(maxAbs float64, dim int) float64 {
	return (1e-7 + 0x1p-24) * maxAbs * math.Sqrt(float64(dim))
}

// featureNoise bounds, in norm, how far rounding moves an extracted
// feature point from the exact one, in units of the values it was
// extracted from: at most 2⁻⁴⁰·n·maxVal per coordinate for windows of
// length n over values of magnitude up to maxVal (the sliding DFT,
// restarted every featureCheckpoint windows, is measured at
// 2⁻⁵⁵·n·maxVal).  numericSlack, scaled by the feature magnitudes,
// does not cover it where those are far below the values: in an index
// of (near-)constant windows every feature point is rounding noise
// around the origin, and the query that matches them at scale 0 would
// dismiss them.
func featureNoise(maxVal float64, n, dim int) float64 {
	return 0x1p-40 * float64(n) * maxVal * math.Sqrt(float64(dim))
}
