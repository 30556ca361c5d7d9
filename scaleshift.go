// Package scaleshift is the public API of this library: similarity
// search over time-series databases under scaling and shifting
// transformations, implementing Chu & Wong, "Fast Time-Series Searching
// with Scaling and Shifting" (PODS 1999).
//
// A sequence u is similar to a sequence v with error bound ε when some
// scale factor a and shift offset b satisfy ‖a·u + b·(1,…,1) − v‖₂ ≤ ε.
// Given a database of sequences, an Index answers range queries under
// this similarity over every sliding window, returning the optimal
// (a, b) for each match.  A query is a value — Query{Vec, Eps, K,
// Costs, Force, Pool, Limit} — and Index.Exec is the one way to run it:
// the kind follows from the value (K > 0 is k-nearest-neighbour, a Vec
// longer than the window is a multipiece long query, otherwise a range
// query), Limit > 0 returns only the answer's first rows beside its
// exact size (Result.Total), and ExecBatch runs a slice of them
// concurrently.  An Index is read as one frozen segment and a delta:
// the segment prices its access paths (tree probe, scan) for the query,
// the cheaper runs, and one exact verifier checks whatever it emits, so
// the choice shows only in Result.Explain.  See the repository README
// for a tour and EXPERIMENTS.md for the reproduction of the paper's
// evaluation.
//
// Basic use:
//
//	st := scaleshift.NewStore()
//	st.AppendSequence("HSBC", prices)
//
//	ix, err := scaleshift.NewIndex(st, scaleshift.DefaultOptions())
//	if err != nil { ... }
//	if err := ix.Build(); err != nil { ... }
//
//	res, err := ix.Exec(ctx, scaleshift.Query{Vec: q, Eps: eps}, nil)
//	for _, m := range res.Matches { ... } // m.Scale, m.Shift: the optimal (a, b)
//
// The index is built, then searched and mutated.  Build, BuildBulk and
// LoadIndex hand back an index served from one contiguous arena.  The
// mutators (IndexSequence, AppendAndIndex, ExtendAndIndex) add windows
// to a delta beside it, which the next Exec already searches;
// UnindexSequence rebuilds the arena without a sequence.  Freeze folds
// the delta into a new arena — never needed for a correct answer, worth
// calling once a batch of mutations is in:
//
//	seq, err := ix.AppendAndIndex("NEW", prices)
//	res, err = ix.Exec(ctx, q, nil) // sees the new windows
//	if err := ix.Freeze(); err != nil { ... }
//
// The concrete types live in internal packages; this package re-exports
// them with type aliases, so values are interchangeable across the
// boundary.
package scaleshift

import (
	"io"

	"scaleshift/internal/core"
	"scaleshift/internal/engine"
	"scaleshift/internal/geom"
	"scaleshift/internal/rtree"
	"scaleshift/internal/store"
	"scaleshift/internal/vec"
)

// Core index types.
type (
	// Index is the scale/shift-invariant subsequence index (paper §6).
	Index = core.Index
	// Options configures an Index; start from DefaultOptions.
	Options = core.Options
	// CostBounds restricts matches by their transformation cost (§3).
	CostBounds = core.CostBounds
	// Query is one similarity query as a value: range, multipiece long
	// or k-NN, by its fields.  The zero Costs means UnboundedCosts.
	Query = core.Query
	// Result is a query's answer: the matches (the first Query.Limit of
	// them), their Total and, for range and long queries, the Explain of
	// the plan that produced them.
	Result = core.Result
	// Match is one qualifying subsequence with its optimal transform.
	Match = core.Match
	// SearchStats accounts one query in the paper's page-cost model,
	// including the engine's per-stage timings and path counters.
	SearchStats = core.SearchStats
	// PathKind identifies a query-engine access path (or PathAuto).
	PathKind = engine.PathKind
	// Explain records one range query: the access path, the candidates
	// each segment emitted, and the per-stage actuals.
	Explain = engine.Explain
	// ReductionKind selects the dimension-reduction basis.
	ReductionKind = core.ReductionKind
	// Strategy selects the MBR penetration check (§7).
	Strategy = geom.Strategy
	// TreeConfig holds the R*-tree structural parameters.
	TreeConfig = rtree.Config
	// SplitAlgorithm selects the R-tree node split algorithm.
	SplitAlgorithm = rtree.SplitAlgorithm
)

// Storage types.
type (
	// Store is the paged sequence storage engine.
	Store = store.Store
	// PageCounter records page accesses for one query.
	PageCounter = store.PageCounter
)

// Penetration-check strategies (§7): experiment set 2 vs set 3.
const (
	EnteringExiting = geom.EnteringExiting
	BoundingSpheres = geom.BoundingSpheres
)

// Query-engine access paths: leave Query.Force PathAuto (the zero
// value) to probe the tree, or force PathScan to run the sequential
// scan, the oracle the tree is checked against.  Results are
// bit-identical whichever path runs.
const (
	PathAuto  = engine.PathAuto
	PathRTree = engine.PathRTree
	PathScan  = engine.PathScan
)

// Dimension-reduction bases.
const (
	ReductionDFT  = core.ReductionDFT
	ReductionHaar = core.ReductionHaar
)

// R-tree split algorithms.
const (
	SplitRStar     = rtree.SplitRStar
	SplitQuadratic = rtree.SplitQuadratic
	SplitLinear    = rtree.SplitLinear
)

// PageSize is the disk page size of the cost model (4 KB, as in §7).
const PageSize = store.PageSize

// NewStore returns an empty sequence store.
func NewStore() *Store { return store.New() }

// ReadCSV parses a store from its CSV serialization (one sequence per
// line: name,v1,v2,...).
func ReadCSV(r io.Reader) (*Store, error) { return store.ReadCSV(r) }

// ReadStoreBinary parses a store from its binary serialization.
func ReadStoreBinary(r io.Reader) (*Store, error) { return store.ReadBinary(r) }

// NewIndex creates an empty index over st; call Build (or BuildBulk /
// BuildBulkParallel) to index the store's sequences.
func NewIndex(st *Store, opts Options) (*Index, error) { return core.NewIndex(st, opts) }

// LoadIndex reopens an index written by Index.WriteBinary, attached to
// the same store (or a bit-exact copy).
func LoadIndex(r io.Reader, st *Store) (*Index, error) { return core.LoadIndex(r, st) }

// DefaultOptions returns the paper's experimental configuration:
// window length 128, f_c = 3 DFT coefficients (6-dim R*-tree with
// M = 20, m = 8, forced-reinsert p = 6), Entering/Exiting-Points
// penetration checking.
func DefaultOptions() Options { return core.DefaultOptions() }

// DefaultTreeConfig returns the paper's R*-tree parameters for the
// given dimensionality.
func DefaultTreeConfig(dim int) TreeConfig { return rtree.DefaultConfig(dim) }

// UnboundedCosts places no restriction on the transformation.
func UnboundedCosts() CostBounds { return core.UnboundedCosts() }

// ParsePathKind maps an access-path name (auto, rtree, scan) to its
// PathKind.
func ParsePathKind(s string) (PathKind, error) { return engine.ParsePathKind(s) }

// MinDist returns the minimum achievable Euclidean distance between
// F_{a,b}(u) = a·u + b·(1,…,1) and v over all real a, b, together with
// the optimal scale factor and shift offset (paper §5.2, Theorem 1).
// For a constant u every scale factor is optimal and scale 0 is
// reported.
func MinDist(u, v []float64) (dist, scale, shift float64) {
	m := vec.MinDist(vec.Vector(u), vec.Vector(v))
	return m.Dist, m.Scale, m.Shift
}

// Similar reports whether u is similar to v with error bound eps under
// the scale/shift similarity of Definition 1.
func Similar(u, v []float64, eps float64) bool {
	return vec.Similar(vec.Vector(u), vec.Vector(v), eps)
}

// ApplyTransform returns a·u + b·(1,…,1), the scale-shift
// transformation F_{a,b} of Definition 1.
func ApplyTransform(u []float64, a, b float64) []float64 {
	return vec.Apply(vec.Vector(u), a, b)
}
