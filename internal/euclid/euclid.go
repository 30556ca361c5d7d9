// Package euclid implements the prior art the paper argues against
// (§1–§2): subsequence matching under plain Euclidean distance in the
// style of the F-index / ST-index line of work (Agrawal et al. [1],
// Faloutsos et al. [2]).  Windows are mapped to their first f_c DFT
// coefficients (no shift elimination) and indexed in an R*-tree; a
// range query retrieves the feature points inside the ε-ball around
// the query's feature point — a rectangle range search followed by an
// exact post-check, which is the classic GEMINI pipeline.
//
// Its purpose here is comparative: the motivating claim of the paper
// is that Euclidean matching misses subsequences that are similar up
// to scaling and shifting, and the example/benchmarks use this package
// to quantify exactly that recall gap.
package euclid

import (
	"fmt"
	"math"

	"scaleshift/internal/bench/rstar"
	"scaleshift/internal/dft"
	"scaleshift/internal/geom"
	"scaleshift/internal/rtree"
	"scaleshift/internal/store"
	"scaleshift/internal/vec"
)

// Options configures the Euclidean index.
type Options struct {
	// WindowLen is the sliding-window length n.
	WindowLen int
	// Coefficients is f_c; the feature space has 2·f_c dimensions.
	// Unlike the scale/shift index, the DC coefficient is NOT removed
	// here, so the map keeps coefficients 1…f_c of the raw window —
	// plus the mean is folded into an extra dimension to tighten the
	// bound (the mean is the scaled 0-th coefficient).
	Coefficients int
	// Tree holds the R*-tree parameters; Dim is derived.
	Tree rtree.Config
}

// DefaultOptions mirrors the paper's configuration (n = 128, f_c = 3).
func DefaultOptions() Options {
	return Options{
		WindowLen:    128,
		Coefficients: 3,
		Tree:         rtree.DefaultConfig(7),
	}
}

// Match is one qualifying window.
type Match struct {
	Seq, Start int
	Name       string
	// Dist is the exact Euclidean distance D₂(Q, S').
	Dist float64
}

// Stats mirrors core.SearchStats for the Euclidean pipeline.
type Stats struct {
	IndexNodeAccesses  int
	DataPageAccesses   int
	Candidates         int
	FalseAlarms        int
	Results            int
	LeafEntriesChecked int
}

// Index is a GEMINI-style Euclidean subsequence index.
type Index struct {
	opts Options
	st   *store.Store
	fmap *dft.FeatureMap
	// flat is the frozen tree searches read: empty until Build.
	flat *rtree.FlatTree
	dim  int
}

// NewIndex creates an empty Euclidean index over st.
func NewIndex(st *store.Store, opts Options) (*Index, error) {
	if opts.WindowLen < 3 {
		return nil, fmt.Errorf("euclid: window length %d too short", opts.WindowLen)
	}
	fmap, err := dft.NewFeatureMap(opts.WindowLen, opts.Coefficients)
	if err != nil {
		return nil, fmt.Errorf("euclid: %w", err)
	}
	dim := fmap.Dim() + 1 // +1 for the (normalized) mean component
	opts.Tree.Dim = dim
	flat, err := rtree.BulkLoadFlat(opts.Tree, nil, nil, 1) // the empty arena
	if err != nil {
		return nil, fmt.Errorf("euclid: %w", err)
	}
	return &Index{opts: opts, st: st, fmap: fmap, flat: flat, dim: dim}, nil
}

// feature maps a raw window to its feature point: the 2·f_c non-DC DFT
// coordinates plus √n·mean, which is the orthonormal DC coordinate.
// The full map is an orthogonal projection of the window, hence a
// contraction, preserving the no-false-dismissal guarantee.
func (ix *Index) feature(w vec.Vector) vec.Vector {
	f := make(vec.Vector, ix.dim)
	ix.fmap.TransformInto(f[:ix.dim-1], w)
	n := float64(len(w))
	f[ix.dim-1] = vec.Mean(w) * math.Sqrt(n)
	return f
}

// WindowCount returns the number of indexed windows.
func (ix *Index) WindowCount() int { return ix.flat.Len() }

// IndexPageCount returns the number of index pages.
func (ix *Index) IndexPageCount() int { return ix.flat.NodeCount() }

// Build indexes every window of every sequence by R* insertion
// (rstar.Load) and freezes the tree.
func (ix *Index) Build() error {
	n, total := ix.opts.WindowLen, 0
	for seq := 0; seq < ix.st.NumSequences(); seq++ {
		total += max(0, ix.st.SequenceLen(seq)-n+1)
	}
	ids, cols := make([]int64, 0, total), make([]float64, total*ix.dim)
	w := make(vec.Vector, n)
	for seq := 0; seq < ix.st.NumSequences(); seq++ {
		L := ix.st.SequenceLen(seq)
		for start := 0; start+n <= L; start++ {
			if err := ix.st.Window(seq, start, n, w, nil); err != nil {
				return fmt.Errorf("euclid: indexing: %w", err)
			}
			for j, x := range ix.feature(w) {
				cols[j*total+len(ids)] = x
			}
			ids = append(ids, store.EncodeWindowID(seq, start))
		}
	}
	flat, err := rstar.Load(ix.opts.Tree, ids, cols)
	if err != nil {
		return fmt.Errorf("euclid: %w", err)
	}
	ix.flat = flat
	return nil
}

// Search returns every window within Euclidean distance eps of q.
// The result set is exact for plain Euclidean similarity; it does NOT
// include windows that only match after scaling or shifting — that is
// the point of the comparison.
func (ix *Index) Search(q vec.Vector, eps float64, stats *Stats) ([]Match, error) {
	if len(q) != ix.opts.WindowLen {
		return nil, fmt.Errorf("euclid: query length %d, window length %d", len(q), ix.opts.WindowLen)
	}
	if eps < 0 {
		return nil, fmt.Errorf("euclid: negative epsilon %v", eps)
	}
	fq := ix.feature(q)
	// ε-ball ⊂ ε-cube: rectangle range search, then exact feature-space
	// ball check happens implicitly via the exact post-check.
	rect := geom.RectFromPoint(fq).Enlarge(eps + ix.slack())

	var treeStats rtree.SearchStats
	candidates := ix.flat.RangeSearch(rect, &treeStats)

	var pc store.PageCounter
	w := make(vec.Vector, ix.opts.WindowLen)
	var out []Match
	falseAlarms := 0
	for _, cand := range candidates {
		seq, start := store.DecodeWindowID(cand.ID)
		if err := ix.st.Window(seq, start, ix.opts.WindowLen, w, &pc); err != nil {
			return nil, fmt.Errorf("euclid: post-processing: %w", err)
		}
		d := vec.Dist(q, w)
		if d > eps {
			falseAlarms++
			continue
		}
		out = append(out, Match{Seq: seq, Start: start, Name: ix.st.SequenceName(seq), Dist: d})
	}
	if stats != nil {
		stats.IndexNodeAccesses += treeStats.NodeAccesses
		stats.DataPageAccesses += pc.Distinct()
		stats.Candidates += len(candidates)
		stats.FalseAlarms += falseAlarms
		stats.Results += len(out)
		stats.LeafEntriesChecked += treeStats.LeafEntriesChecked
	}
	return out, nil
}

// slack widens the index-phase box against floating-point rounding in
// the feature computation and against the arena's float32 planes (each
// stored coordinate is within 2⁻²⁴ of its magnitude of the exact one),
// mirroring core's numeric slack coordinate by coordinate.
func (ix *Index) slack() float64 {
	b, ok := ix.flat.Bounds()
	if !ok {
		return 0
	}
	var m float64
	for i := range b.L {
		m = math.Max(m, math.Max(math.Abs(b.L[i]), math.Abs(b.H[i])))
	}
	return (1e-7 + 0x1p-24) * m
}
