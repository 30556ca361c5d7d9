package rstar

import (
	"fmt"

	"scaleshift/internal/rtree"
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

// Config holds the parameters of a tree grown by insertion: the page
// shape (rtree.Config) and the ones that only steer the growth.  The
// zero value is not usable; start from DefaultConfig.
type Config struct {
	rtree.Config
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
	return Config{Config: rtree.DefaultConfig(dim), ReinsertCount: 6, Split: SplitRStar}
}

// validate reports whether the growth parameters are sound; the page
// shape is checked by rtree.Config.Validate.
func (c Config) validate() error {
	if c.ReinsertCount < 0 || c.ReinsertCount > c.MaxEntries-c.MinEntries {
		return fmt.Errorf("rstar: ReinsertCount %d out of range (need 0 <= p <= M-m = %d)",
			c.ReinsertCount, c.MaxEntries-c.MinEntries)
	}
	switch c.Split {
	case SplitRStar, SplitQuadratic, SplitLinear:
	default:
		return fmt.Errorf("rstar: unknown split algorithm %d", int(c.Split))
	}
	if c.SupernodeMaxOverlap < 0 || c.SupernodeMaxOverlap >= 1 {
		return fmt.Errorf("rstar: SupernodeMaxOverlap %v out of range [0, 1)", c.SupernodeMaxOverlap)
	}
	return nil
}
