package rstar

import (
	"math"
	"sort"

	"scaleshift/internal/rtree"
)

// This file implements the X-tree extension (Berchtold et al. [23],
// cited by the paper for high-dimensional indexing).  When
// Config.SupernodeMaxOverlap > 0 and splitting an internal (directory)
// node would leave the two halves overlapping badly, the node becomes a
// *supernode* of multiplied page capacity instead — trading sequential
// page reads for the pruning loss that overlapping directory entries
// cause in high dimensions.

// chooseSplitGroups decides how an overflowing node should be resolved:
// either a concrete split into two groups, or (X-tree mode, internal
// nodes only) a supernode extension when every acceptable split
// overlaps more than the configured threshold.
func (t *Tree) chooseSplitGroups(n *node) (g1, g2 []*entry, supernode bool) {
	g1, g2 = t.baseSplit(n.entries)
	if t.cfg.SupernodeMaxOverlap <= 0 || n.isLeaf() {
		return g1, g2, false
	}
	if groupOverlapRatio(g1, g2) <= t.cfg.SupernodeMaxOverlap {
		return g1, g2, false
	}
	if alt, ok := t.overlapMinimalSplit(n.entries); ok {
		return alt[0], alt[1], false
	}
	return nil, nil, true
}

// baseSplit runs the configured split algorithm.
func (t *Tree) baseSplit(entries []*entry) ([]*entry, []*entry) {
	switch t.cfg.Split {
	case rtree.SplitQuadratic:
		return splitQuadratic(entries, t.cfg.MinEntries)
	case rtree.SplitLinear:
		return splitLinear(entries, t.cfg.MinEntries)
	default:
		return splitRStar(entries, t.cfg.MinEntries)
	}
}

// growSupernode converts n into a supernode (or extends it by one page)
// and charges the extra page to the tree's page count.
func (t *Tree) growSupernode(n *node) {
	if n.super < 1 {
		n.super = 1
	}
	n.super++
	t.nodes++
}

// groupOverlapRatio measures how much the MBRs of two entry groups
// overlap, normalized by their combined area.
func groupOverlapRatio(g1, g2 []*entry) float64 {
	r1, r2 := mbrOf(g1), mbrOf(g2)
	inter := r1.IntersectionArea(r2)
	if inter == 0 {
		return 0
	}
	total := r1.Area() + r2.Area()
	if total <= 0 {
		// Degenerate (zero-volume) boxes that still intersect: treat as
		// full overlap so the caller prefers a supernode over a useless
		// split.
		return 1
	}
	return inter / total
}

// overlapMinimalSplit searches, on every dimension, the balanced
// sorted-sweep split with the smallest overlap ratio, and returns it
// when the best ratio is within the configured threshold.
func (t *Tree) overlapMinimalSplit(entries []*entry) (best [2][]*entry, ok bool) {
	dim := entries[0].rect.Dim()
	m := t.cfg.MinEntries
	bestRatio := math.Inf(1)
	for d := 0; d < dim; d++ {
		sorted := make([]*entry, len(entries))
		copy(sorted, entries)
		d := d
		sort.SliceStable(sorted, func(i, j int) bool {
			if sorted[i].rect.L[d] != sorted[j].rect.L[d] {
				return sorted[i].rect.L[d] < sorted[j].rect.L[d]
			}
			return sorted[i].rect.H[d] < sorted[j].rect.H[d]
		})
		for k := m; k <= len(sorted)-m; k++ {
			ratio := groupOverlapRatio(sorted[:k], sorted[k:])
			if ratio < bestRatio {
				bestRatio = ratio
				g1 := append([]*entry(nil), sorted[:k]...)
				g2 := append([]*entry(nil), sorted[k:]...)
				best = [2][]*entry{g1, g2}
			}
		}
	}
	return best, bestRatio <= t.cfg.SupernodeMaxOverlap
}
