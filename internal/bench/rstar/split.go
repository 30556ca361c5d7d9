package rstar

import (
	"math"
	"sort"

	"scaleshift/internal/geom"
)

// splitNode divides an overflowing node into the two given entry
// groups and hooks the new sibling into the parent, growing a new root
// when n was the root.  It returns the new sibling so the caller can
// recheck its capacity (splitting a supernode can leave oversized
// halves).
func (t *Tree) splitNode(n *node, g1, g2 []*entry) *node {
	// A split resolves any supernode status: both halves are normal.
	if n.super > 1 {
		t.nodes -= n.super - 1
		n.super = 1
	}
	sibling := &node{level: n.level, entries: g2}
	n.entries = g1
	for _, e := range g2 {
		if e.child != nil {
			e.child.parent = sibling
		}
	}
	t.nodes++

	if n.parent == nil {
		// Grow a new root above both halves.
		root := &node{level: n.level + 1}
		root.entries = []*entry{
			{rect: n.mbr(), child: n},
			{rect: sibling.mbr(), child: sibling},
		}
		n.parent, sibling.parent = root, root
		t.root = root
		t.nodes++
		return sibling
	}
	parent := n.parent
	sibling.parent = parent
	pe := n.parentEntry()
	n.mbrInto(&pe.rect)
	parent.entries = append(parent.entries, &entry{rect: sibling.mbr(), child: sibling})
	t.refreshUpward(parent)
	return sibling
}

// mbrOf returns the union rectangle of a group of entries.
func mbrOf(es []*entry) geom.Rect {
	r := geom.Rect{L: es[0].rect.L.Clone(), H: es[0].rect.H.Clone()}
	for _, e := range es[1:] {
		r.Extend(e.rect)
	}
	return r
}

// splitRStar is the R*-tree topological split [16]: pick the axis with
// the minimum total margin over all legal distributions of the entries
// sorted by lower and by upper bound, then on that axis pick the
// distribution with minimum overlap (ties: minimum combined area).
func splitRStar(entries []*entry, minEntries int) (g1, g2 []*entry) {
	dim := entries[0].rect.Dim()
	total := len(entries)
	maxK := total - minEntries // split index k gives groups [0:k] and [k:]

	type dist struct {
		sorted []*entry
		k      int
	}
	bestAxisMargin := math.Inf(1)
	var axisDists []dist

	for d := 0; d < dim; d++ {
		for _, byUpper := range []bool{false, true} {
			sorted := make([]*entry, total)
			copy(sorted, entries)
			d := d
			if byUpper {
				sort.SliceStable(sorted, func(i, j int) bool {
					return sorted[i].rect.H[d] < sorted[j].rect.H[d]
				})
			} else {
				sort.SliceStable(sorted, func(i, j int) bool {
					return sorted[i].rect.L[d] < sorted[j].rect.L[d]
				})
			}
			var margin float64
			var dists []dist
			for k := minEntries; k <= maxK; k++ {
				r1 := mbrOf(sorted[:k])
				r2 := mbrOf(sorted[k:])
				margin += r1.Margin() + r2.Margin()
				dists = append(dists, dist{sorted, k})
			}
			if margin < bestAxisMargin {
				bestAxisMargin = margin
				axisDists = dists
			}
		}
	}

	bestOverlap, bestArea := math.Inf(1), math.Inf(1)
	var best dist
	for _, dd := range axisDists {
		r1 := mbrOf(dd.sorted[:dd.k])
		r2 := mbrOf(dd.sorted[dd.k:])
		ov := r1.IntersectionArea(r2)
		area := r1.Area() + r2.Area()
		if ov < bestOverlap || (ov == bestOverlap && area < bestArea) {
			bestOverlap, bestArea, best = ov, area, dd
		}
	}
	g1 = append([]*entry(nil), best.sorted[:best.k]...)
	g2 = append([]*entry(nil), best.sorted[best.k:]...)
	return g1, g2
}

// splitQuadratic is Guttman's quadratic split [22]: seed with the pair
// wasting the most area, then repeatedly assign the entry with the
// greatest preference for one group.
func splitQuadratic(entries []*entry, minEntries int) (g1, g2 []*entry) {
	// PickSeeds.
	var s1, s2 int
	worst := math.Inf(-1)
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			d := unionArea(entries[i].rect, entries[j].rect) -
				entries[i].rect.Area() - entries[j].rect.Area()
			if d > worst {
				worst, s1, s2 = d, i, j
			}
		}
	}
	g1 = []*entry{entries[s1]}
	g2 = []*entry{entries[s2]}
	r1, r2 := entries[s1].rect, entries[s2].rect
	r1 = geom.Rect{L: r1.L.Clone(), H: r1.H.Clone()}
	r2 = geom.Rect{L: r2.L.Clone(), H: r2.H.Clone()}

	remaining := make([]*entry, 0, len(entries)-2)
	for i, e := range entries {
		if i != s1 && i != s2 {
			remaining = append(remaining, e)
		}
	}

	for len(remaining) > 0 {
		// If one group must take everything left to reach minEntries,
		// assign wholesale.
		if len(g1)+len(remaining) == minEntries {
			g1 = append(g1, remaining...)
			return g1, g2
		}
		if len(g2)+len(remaining) == minEntries {
			g2 = append(g2, remaining...)
			return g1, g2
		}
		// PickNext: maximal difference of enlargement costs.
		bestIdx, bestDiff := 0, -1.0
		var bestD1, bestD2 float64
		for i, e := range remaining {
			d1 := unionArea(r1, e.rect) - r1.Area()
			d2 := unionArea(r2, e.rect) - r2.Area()
			diff := math.Abs(d1 - d2)
			if diff > bestDiff {
				bestIdx, bestDiff, bestD1, bestD2 = i, diff, d1, d2
			}
		}
		e := remaining[bestIdx]
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		// Resolve ties by smaller area, then fewer entries.
		toFirst := bestD1 < bestD2
		if bestD1 == bestD2 {
			a1, a2 := r1.Area(), r2.Area()
			if a1 != a2 {
				toFirst = a1 < a2
			} else {
				toFirst = len(g1) <= len(g2)
			}
		}
		if toFirst {
			g1 = append(g1, e)
			r1.Extend(e.rect)
		} else {
			g2 = append(g2, e)
			r2.Extend(e.rect)
		}
	}
	return g1, g2
}

// splitLinear is Guttman's linear split [22]: seed with the pair of
// entries with the greatest normalized separation along any dimension,
// then assign the rest by least enlargement in arbitrary order.
func splitLinear(entries []*entry, minEntries int) (g1, g2 []*entry) {
	dim := entries[0].rect.Dim()
	bestSep := math.Inf(-1)
	s1, s2 := 0, 1
	for d := 0; d < dim; d++ {
		// Entry with the highest low side and the one with the lowest
		// high side; width of the whole set normalizes.
		hiLow, loHigh := 0, 0
		minL, maxH := math.Inf(1), math.Inf(-1)
		for i, e := range entries {
			if e.rect.L[d] > entries[hiLow].rect.L[d] {
				hiLow = i
			}
			if e.rect.H[d] < entries[loHigh].rect.H[d] {
				loHigh = i
			}
			minL = math.Min(minL, e.rect.L[d])
			maxH = math.Max(maxH, e.rect.H[d])
		}
		width := maxH - minL
		if width <= 0 {
			continue
		}
		sep := (entries[hiLow].rect.L[d] - entries[loHigh].rect.H[d]) / width
		if sep > bestSep && hiLow != loHigh {
			bestSep, s1, s2 = sep, hiLow, loHigh
		}
	}
	if s1 == s2 { // fully degenerate set; force distinct seeds
		s2 = (s1 + 1) % len(entries)
	}
	g1 = []*entry{entries[s1]}
	g2 = []*entry{entries[s2]}
	r1 := geom.Rect{L: entries[s1].rect.L.Clone(), H: entries[s1].rect.H.Clone()}
	r2 := geom.Rect{L: entries[s2].rect.L.Clone(), H: entries[s2].rect.H.Clone()}

	for i, e := range entries {
		if i == s1 || i == s2 {
			continue
		}
		// Guarantee minimum fill: once a group can only reach m by taking
		// every remaining entry, it must take them.
		remainingAfter := 0
		for j := i + 1; j < len(entries); j++ {
			if j != s1 && j != s2 {
				remainingAfter++
			}
		}
		if len(g1)+remainingAfter+1 == minEntries {
			g1 = append(g1, e)
			r1.Extend(e.rect)
			continue
		}
		if len(g2)+remainingAfter+1 == minEntries {
			g2 = append(g2, e)
			r2.Extend(e.rect)
			continue
		}
		d1 := unionArea(r1, e.rect) - r1.Area()
		d2 := unionArea(r2, e.rect) - r2.Area()
		if d1 < d2 || (d1 == d2 && len(g1) <= len(g2)) {
			g1 = append(g1, e)
			r1.Extend(e.rect)
		} else {
			g2 = append(g2, e)
			r2.Extend(e.rect)
		}
	}
	return g1, g2
}
