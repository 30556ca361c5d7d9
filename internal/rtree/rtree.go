// Package rtree implements the height-balanced spatial index the paper
// builds its search on (§6), in the one form that is searched: FlatTree,
// a pointer-free arena of nodes storing feature points, traversed with
// batched pruning kernels and (de)serialized as one verbatim blob.
//
// An arena is built whole.  BulkLoadFlat tiles the points for the lines
// the index is actually asked about — all of them through the origin:
// its directory entries hold the range of the norms and a box of the
// unit directions beneath them, and Theorem 3 is applied to the cone
// they span (geom/cone.go).  FlatFromNodes freezes a tree somebody else
// grew — the R*-tree of Beckmann et al. [16], Guttman's splits and the
// X-tree supernodes the paper's experiments compare, which live in
// internal/bench/rstar — keeping its MBRs, pruned exactly so; arenas
// written before bulk loads changed shape are of that kind too.  The
// arena says which it is; the searches read it off.  Beyond standard
// rectangle range search, the FlatTree supports the paper's two query
// primitives:
//
//   - LineSearch — all points within ε of an arbitrary line, descending
//     only into children whose ε-enlarged MBR is penetrated by the line
//     (Theorem 3), with either Entering/Exiting-Points or
//     Bounding-Spheres penetration checking (§7);
//   - NearestToLine — best-first k-nearest-neighbour search by
//     point-to-line distance (Corollary 1).
//
// Every node corresponds to one disk page in the paper's cost model;
// SearchStats.NodeAccesses therefore equals the number of index page
// accesses of a query.
package rtree

import (
	"fmt"

	"scaleshift/internal/vec"
)

// SplitAlgorithm selects how overflowing nodes are split.
type SplitAlgorithm int

const (
	// SplitRStar is the topological split of the R*-tree [16]:
	// choose the axis minimizing total margin, then the distribution
	// minimizing overlap.
	SplitRStar SplitAlgorithm = iota
	// SplitQuadratic is Guttman's quadratic-cost split [22].
	SplitQuadratic
	// SplitLinear is Guttman's linear-cost split [22].
	SplitLinear
)

// String returns the conventional name of the algorithm.
func (s SplitAlgorithm) String() string {
	switch s {
	case SplitRStar:
		return "rstar"
	case SplitQuadratic:
		return "quadratic"
	case SplitLinear:
		return "linear"
	default:
		return "unknown"
	}
}

// Config holds the structural parameters of a tree.  The zero value is
// not usable; start from DefaultConfig.
type Config struct {
	// Dim is the dimensionality of indexed points.
	Dim int
	// MaxEntries is M, the page capacity (§6: 20 for a 4 KB page).
	MaxEntries int
	// MinEntries is m, the fill guarantee (§7: 40 % of M).
	MinEntries int
	// ReinsertCount is p, how many entries the R* forced-reinsert
	// removes on the first overflow of a level (§7: 30 % of M).
	// 0 disables forced reinsertion (as in the classic R-tree).
	ReinsertCount int
	// Split selects the node-split algorithm.
	Split SplitAlgorithm
	// SupernodeMaxOverlap, when positive, enables X-tree behaviour
	// (Berchtold et al. [23], cited by the paper for high-dimensional
	// indexing): if splitting an internal node would leave its two
	// halves overlapping by more than this fraction of their combined
	// area, and no low-overlap split exists, the node becomes a
	// *supernode* of multiplied capacity instead of splitting.  0
	// disables supernodes (plain R-tree/R*-tree).
	SupernodeMaxOverlap float64
}

// DefaultConfig returns the paper's experimental configuration (§7)
// for the given dimensionality: M = 20, m = 8 (40 % of M), p = 6
// (30 % of M), R* split.
func DefaultConfig(dim int) Config {
	return Config{
		Dim:           dim,
		MaxEntries:    20,
		MinEntries:    8,
		ReinsertCount: 6,
		Split:         SplitRStar,
	}
}

// validate reports whether the configuration is structurally sound.
func (c Config) validate() error {
	if c.Dim < 1 {
		return fmt.Errorf("rtree: dimension %d < 1", c.Dim)
	}
	if c.MaxEntries < 2 {
		return fmt.Errorf("rtree: MaxEntries %d < 2", c.MaxEntries)
	}
	if c.MinEntries < 1 || 2*c.MinEntries > c.MaxEntries+1 {
		return fmt.Errorf("rtree: MinEntries %d out of range for MaxEntries %d (need 1 <= m <= (M+1)/2)",
			c.MinEntries, c.MaxEntries)
	}
	if c.ReinsertCount < 0 || c.ReinsertCount > c.MaxEntries-c.MinEntries {
		return fmt.Errorf("rtree: ReinsertCount %d out of range (need 0 <= p <= M-m = %d)",
			c.ReinsertCount, c.MaxEntries-c.MinEntries)
	}
	switch c.Split {
	case SplitRStar, SplitQuadratic, SplitLinear:
	default:
		return fmt.Errorf("rtree: unknown split algorithm %d", int(c.Split))
	}
	if c.SupernodeMaxOverlap < 0 || c.SupernodeMaxOverlap >= 1 {
		return fmt.Errorf("rtree: SupernodeMaxOverlap %v out of range [0, 1)", c.SupernodeMaxOverlap)
	}
	return nil
}

// Item is a stored point with its caller-assigned identifier (the
// <ID, S'> leaf entry of §6 with the feature point standing in for the
// subsequence).
type Item struct {
	Point vec.Vector
	ID    int64
}
