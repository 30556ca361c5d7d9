package rtree

import (
	"math"

	"scaleshift/internal/geom"
	"scaleshift/internal/vec"
)

// The references the arena's searches are tested against.  None of it
// ships: the batched, allocation-free FlatTree descent is checked
// against the textbook recursion over a pointer tree with the scalar
// geometry (geom.PenetratesEnlarged[Segment], vec.PLDFast,
// vec.PSegDFast), and the k-NN seeds' greedy descent against the same
// descent over the pointer tree.
//
// An arena stores rounded coordinates in its own units, so the
// recursion runs over storedView's copy of the arena's nodes — every
// value as stored, widened to float64 and left in arena units — with the
// query scaled into those units: the same float64 expressions on the
// same values, which is what makes the comparison exact.

// node and entry are the pointer tree the references recurse over.
type node struct {
	level, pages int
	entries      []*entry
}

type entry struct {
	rect  geom.Rect
	child *node // nil at leaf level
	item  Item  // meaningful only at leaf level
}

func (n *node) isLeaf() bool { return n.level == 0 }

// storedView copies the nodes of the MBR-directory arena f into a
// pointer tree, every coordinate widened to float64 and left in arena
// units.  Leaf entries keep their point as the lower corner of their
// rect.
func storedView(f *FlatTree) *node {
	var cp func(i int) *node
	cp = func(i int) *node {
		out := &node{level: f.nodeLevel(i), pages: f.nodePages(i)}
		s, e := f.nodeEntries(i)
		pl := f.nodePlanes(i)
		for k := 0; k < e-s; k++ {
			r := geom.Rect{L: make(vec.Vector, pl.Dim), H: make(vec.Vector, pl.Dim)}
			for j := range r.L {
				r.L[j] = float64(pl.LRow(j)[k])
				r.H[j] = r.L[j]
				if !out.isLeaf() {
					r.H[j] = float64(pl.HRow(j)[k])
				}
			}
			ce := &entry{rect: r}
			if out.isLeaf() {
				ce.item = Item{Point: r.L, ID: int64(f.refs[s+k])}
			} else {
				ce.child = cp(f.child(i, s+k))
			}
			out.entries = append(out.entries, ce)
		}
		return out
	}
	return cp(0)
}

// arenaUnits returns q as f's searches run it.
func arenaUnits(f *FlatTree, q lineQuery) lineQuery {
	return f.arenaQuery(q, f.getScratch())
}

// refDescend visits n and, depth first in slot order, every child whose
// MBR passes prune, collecting the leaf entries that pass accept, and
// accounts the visit as the paper does: a node is its pages, a leaf
// entry tested is one check.
func refDescend(n *node, stats *SearchStats, prune func(geom.Rect) bool, accept func(*entry) bool, hits *[]*entry) {
	stats.NodeAccesses += n.pages
	for _, e := range n.entries {
		if !n.isLeaf() {
			if prune(e.rect) {
				refDescend(e.child, stats, prune, accept, hits)
			}
			continue
		}
		stats.LeafEntriesChecked++
		if accept(e) {
			*hits = append(*hits, e)
		}
	}
}

// refLine answers q over the nodes under root: Theorem 3 prunes the
// directory, and the leaves are decided by the exact point-to-line
// distance of Lemma 1.
func refLine(root *node, q lineQuery) ([]*entry, SearchStats) {
	var stats SearchStats
	var hits []*entry
	penetrates := func(r geom.Rect) bool {
		if q.segment {
			return geom.PenetratesEnlargedSegment(q.strategy, r, q.eps, q.l, q.tMin, q.tMax, &stats.Penetration)
		}
		return geom.PenetratesEnlarged(q.strategy, r, q.eps, q.l, &stats.Penetration)
	}
	accept := func(e *entry) bool {
		if q.segment {
			return vec.PSegDFast(e.item.Point, q.l, q.tMin, q.tMax) <= q.eps
		}
		return vec.PLDFast(e.item.Point, q.l) <= q.eps
	}
	refDescend(root, &stats, penetrates, accept, &hits)
	return hits, stats
}

// refRange answers a rectangle range query over the nodes under root.
func refRange(root *node, r geom.Rect) ([]*entry, SearchStats) {
	var stats SearchStats
	var hits []*entry
	refDescend(root, &stats, r.Intersects, func(e *entry) bool { return r.Contains(e.item.Point) }, &hits)
	return hits, stats
}

func entryIDs(es []*entry) []int64 {
	var ids []int64
	for _, e := range es {
		ids = append(ids, e.item.ID)
	}
	return ids
}

// callerUnits returns v, in f's arena units, as f's searches report it.
func callerUnits(f *FlatTree, v vec.Vector) vec.Vector {
	if v == nil {
		return nil
	}
	out := make(vec.Vector, len(v))
	for j, x := range v {
		out[j] = x * f.q.scale
	}
	return out
}

// storedItems is entryItems for entries of a storedView, in caller
// units.
func storedItems(f *FlatTree, es []*entry) []Item {
	var items []Item
	for _, e := range es {
		items = append(items, Item{Point: callerUnits(f, e.item.Point), ID: e.item.ID})
	}
	return items
}

// refSeeds is Seeds over the nodes under root: level by level the
// children at the smallest geom.LineRectDist, every one tied at it in
// order up to seedFrontier, down to the level-1 nodes; then every entry
// beneath the first of them and every entry of the leaves at the
// smallest bound beneath the others.
func refSeeds(root *node, l vec.Line) ([]*entry, SearchStats) {
	var stats SearchStats
	nearest := func(front []*node, skip *node) []*node {
		var next []*node
		bestD := math.Inf(1)
		for _, n := range front {
			if n == skip {
				continue
			}
			stats.NodeAccesses += n.pages
			for _, e := range n.entries {
				d := geom.LineRectDist(e.rect, l)
				if d != d {
					d = math.Inf(1)
				}
				switch {
				case d < bestD || len(next) == 0:
					next, bestD = []*node{e.child}, d
				case d == bestD && len(next) < seedFrontier:
					next = append(next, e.child)
				}
			}
		}
		return next
	}
	front := []*node{root}
	for front[0].level > 1 {
		front = nearest(front, nil)
	}
	var seeds []*entry
	all := func(geom.Rect) bool { return true }
	report := func(n *node) { refDescend(n, &stats, all, func(*entry) bool { return true }, &seeds) }
	report(front[0])
	if front[0].level == 1 {
		for _, n := range nearest(front, front[0]) {
			report(n)
		}
	}
	return seeds, stats
}
