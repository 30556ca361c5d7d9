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
// rectangle range search, the FlatTree supports the paper's line query
// and the start of its nearest-neighbour search:
//
//   - LineSearch — all points within ε of an arbitrary line, descending
//     only into children whose ε-enlarged MBR is penetrated by the line
//     (Theorem 3), with either Entering/Exiting-Points or
//     Bounding-Spheres penetration checking (§7);
//   - Seeds — leaf entries near a line, at their point-to-line
//     distances, from a descent along the smallest directory bounds:
//     what the query engine refines into the bound of its
//     k-nearest-neighbour range query (Corollary 1).
//
// Every node corresponds to one disk page in the paper's cost model;
// SearchStats.NodeAccesses therefore equals the number of index page
// accesses of a query.
package rtree

import (
	"fmt"

	"scaleshift/internal/vec"
)

// Config holds the structural parameters of a tree.  The zero value is
// not usable; start from DefaultConfig.  A tree grown by insertion has
// more of them (internal/bench/rstar.Config); what it freezes into an
// arena keeps these.
type Config struct {
	// Dim is the dimensionality of indexed points.
	Dim int
	// MaxEntries is M, the page capacity (§6: 20 for a 4 KB page).
	MaxEntries int
	// MinEntries is m, the fill guarantee (§7: 40 % of M).
	MinEntries int
}

// DefaultConfig returns the paper's experimental configuration (§7)
// for the given dimensionality: M = 20, m = 8 (40 % of M).
func DefaultConfig(dim int) Config {
	return Config{Dim: dim, MaxEntries: 20, MinEntries: 8}
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
	return nil
}

// Item is a stored point with its caller-assigned identifier (the
// <ID, S'> leaf entry of §6 with the feature point standing in for the
// subsequence).
type Item struct {
	Point vec.Vector
	ID    int64
}
