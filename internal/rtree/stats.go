package rtree

import (
	"fmt"
	"io"
	"strings"

	"scaleshift/internal/vec"
)

// LevelStats summarizes the geometry of one tree level — the numbers
// behind the paper's §7 discussion (after [26]) of why the
// bounding-spheres heuristic fails: R*-tree MBRs have long diagonals
// but small volume, so the circumscribed sphere is hugely larger than
// the box and the inscribed sphere hugely smaller.
type LevelStats struct {
	// Level is the tree level (0 = leaves).
	Level int
	// Nodes and Pages count nodes and their disk pages (supernodes
	// span several pages).
	Nodes, Pages int
	// Entries is the total number of entries across the level.
	Entries int
	// Bytes is what the level occupies in the arena: 24 per node (its
	// meta word and two offsets) and, per entry, an 8-byte reference and
	// its float32 planes — one per dimension for a point, two for an MBR.
	Bytes int
	// AvgOccupancy is Entries divided by the level's capacity.
	AvgOccupancy float64
	// AvgElongation is the mean ratio of an MBR's longest side to its
	// shortest side (1 = hypercube; large = long and thin).
	AvgElongation float64
	// AvgSphereGap is the mean ratio of an MBR's outer (circumscribed)
	// sphere radius to its inner (inscribed) sphere radius.  For a
	// hypercube in d dims this is √d; values far above that mean the
	// sphere pre-checks of §7 are almost always inconclusive.
	AvgSphereGap float64
}

// writeLevelStats renders a Stats result as an aligned table.
func writeLevelStats(w io.Writer, stats []LevelStats) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %8s %8s %8s %10s %10s %12s %12s\n",
		"level", "nodes", "pages", "entries", "bytes", "occupancy", "elongation", "sphere-gap")
	b.WriteString(strings.Repeat("-", 81))
	b.WriteByte('\n')
	for _, ls := range stats {
		fmt.Fprintf(&b, "%-6d %8d %8d %8d %10d %9.1f%% %12.1f %12.1f\n",
			ls.Level, ls.Nodes, ls.Pages, ls.Entries, ls.Bytes,
			100*ls.AvgOccupancy, ls.AvgElongation, ls.AvgSphereGap)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// CostHints summarizes the tree's structure for selectivity and cost
// estimation by a query planner: the leaf-entry count, the page count,
// the height, the root MBR's diagonal length and volume, and a small
// feature sample.  All fields are O(1) reads of maintained state, so a
// planner can call this on every query.
type CostHints struct {
	// Entries counts leaf entries, one feature point each.
	Entries int
	// Nodes counts index pages; Height counts levels.
	Nodes, Height int
	// Dim is the indexed dimensionality.
	Dim int
	// Diameter is the Euclidean length of the root MBR's diagonal and
	// Volume its d-dimensional volume; both are 0 for an empty tree.
	Diameter, Volume float64
	// Sample is a deterministic stratified sample of the stored feature
	// points, for distribution-aware selectivity estimation — the
	// MBR-volume model alone wildly underestimates selectivity on
	// concentrated data.  The slice is shared with the tree: read-only.
	Sample []vec.Vector
}

// sampleCap bounds the planner's feature sample: a bulk load keeps every
// (1 + n/sampleCap)-th point in leaf order.
const sampleCap = 256
