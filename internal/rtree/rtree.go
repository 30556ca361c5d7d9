// Package rtree implements the height-balanced spatial index the paper
// builds its search on (§6), in the form that is served: FlatTree, a
// pointer-free arena of nodes storing feature points, traversed with
// batched pruning kernels and (de)serialized as one verbatim blob.
//
// An arena is built whole.  BulkLoadFlat tiles the points for the lines
// the index is actually asked about — all of them through the origin:
// its directory entries hold the range of the norms and a box of the
// unit directions beneath them, and Theorem 3 is applied to the cone
// they span (geom/cone.go).  That is the one directory an arena has.
// (The R*-tree the paper grows by insertion, with Guttman's splits and
// the X-tree supernodes its experiments compare, keeps MBRs and lives
// with those experiments, in internal/bench/rstar.)  The FlatTree
// supports the paper's line query and the start of its nearest-neighbour
// search:
//
//   - LineSearchIDs and SegmentSearchIDs — the IDs of all points within ε
//     of a line, or of a segment of it, descending only into children
//     whose cone the ε-band enters (Theorem 3), and accepting whole a
//     subtree whose every point is within ε; Probe splits the same
//     descent into subtrees for a caller that runs them in parallel;
//   - Seeds — leaf entries near a line, at their point-to-line
//     distances, from a descent along the smallest directory bounds:
//     what the query engine refines into the bound of its
//     k-nearest-neighbour range query (Corollary 1).
//
// Every node corresponds to one disk page in the paper's cost model;
// SearchStats.NodeAccesses therefore equals the number of index page
// accesses of a query.
package rtree

import "fmt"

// Config holds the structural parameters of a tree.  The zero value is
// not usable; start from DefaultConfig.  A tree grown by insertion has
// more of them (internal/bench/rstar.Config), its page shape among them.
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

// Validate reports whether the configuration is structurally sound.
func (c Config) Validate() error {
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
