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
// concurrently.  One exact verifier checks whatever the index phase
// emits, so results are bit-identical to a sequential scan's.  See the
// repository README for a tour and EXPERIMENTS.md for the reproduction
// of the paper's evaluation.
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
// There is one index type, built once and then grown as values arrive
// (§3, requirement 2).  Build hands back an index of one frozen
// segment, served from one contiguous arena.  The mutators
// (AppendAndIndex, AppendValues, IndexStore) add windows to a delta
// beside it, which the next Exec already searches, and may run while
// queries do; UnindexSequence rebuilds the index
// without a sequence.  Freeze merges the segments and the delta into
// one segment, the one Build makes — never needed for a correct answer,
// worth calling once a batch of mutations is in:
//
//	seq, err := ix.AppendAndIndex("NEW", prices)
//	res, err = ix.Exec(ctx, q, nil) // sees the new windows
//	if err := ix.Freeze(); err != nil { ... }
//
// A server that ingests without pause calls StartCompactor instead: a
// background Compact folds the delta into a new frozen segment whenever
// it grows past CompactThreshold, merging older segments as they pile
// up.  WriteBinary saves the index as an SSSEG artifact (its frozen
// segments, and the delta folded into one more: a built index writes
// one), and LoadIndexFile maps it back over the same store.
//
// The concrete types live in internal packages; this package re-exports
// them with type aliases, so values are interchangeable across the
// boundary.
package scaleshift

import (
	"io"

	"scaleshift/internal/core"
	"scaleshift/internal/engine"
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
	// or k-NN, by its fields.  A nil Costs means UnboundedCosts.
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
	// TreeConfig holds the page shape of the bulk-built tree.
	TreeConfig = rtree.Config
)

// Storage types.
type (
	// Store is the paged sequence storage engine.
	Store = store.Store
	// PageCounter records page accesses for one query.
	PageCounter = store.PageCounter
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

// PageSize is the disk page size of the cost model (4 KB, as in §7).
const PageSize = store.PageSize

// NewStore returns an empty sequence store.
func NewStore() *Store { return store.New() }

// ReadCSV parses a store from its CSV serialization (one sequence per
// line: name,v1,v2,...).
func ReadCSV(r io.Reader) (*Store, error) { return store.ReadCSV(r) }

// ReadStoreBinary parses a store from its binary serialization.
func ReadStoreBinary(r io.Reader) (*Store, error) { return store.ReadBinary(r) }

// NewIndex creates an empty index over st; call Build to index the
// store's sequences.
func NewIndex(st *Store, opts Options) (*Index, error) { return core.NewIndex(st, opts) }

// LoadIndexFile maps the index Index.WriteBinary wrote at path,
// attached to the same store (or a bit-exact copy); Close releases the
// mapping.
func LoadIndexFile(path string, st *Store) (*Index, error) { return core.LoadIndexFile(path, st) }

// DefaultOptions returns the paper's experimental configuration:
// window length 128, f_c = 3 DFT coefficients (a 6-dimensional tree
// with M = 20, m = 8).
func DefaultOptions() Options { return core.DefaultOptions() }

// DefaultTreeConfig returns the paper's page shape (M = 20, m = 8) for
// the given dimensionality.
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
