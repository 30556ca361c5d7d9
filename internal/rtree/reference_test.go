package rtree

import (
	"math"
	"sort"
	"testing"

	"scaleshift/internal/geom"
	"scaleshift/internal/vec"
)

// The references the arena's searches are tested against.  None of it
// ships: the batched, allocation-free FlatTree descent is checked
// against the textbook recursion over a pointer tree with the scalar
// geometry (geom.PenetratesEnlarged[Segment], vec.PLDFast,
// vec.PSegDFast), and the best-first k-NN streams against a sort of
// every entry's distance.
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

// leafEntries returns every leaf entry under root in document order.
func leafEntries(root *node) []*entry {
	var all []*entry
	var stats SearchStats
	yes := func(geom.Rect) bool { return true }
	refDescend(root, &stats, yes, func(*entry) bool { return true }, &all)
	return all
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

// checkStream asserts a best-first stream's prefix (ids[i] at dists[i])
// against brute force: dist is the distance of every entry of tr by id,
// the emitted distances must be the smallest len(ids) of them in order,
// bit for bit, and every id must be a distinct entry emitted at its own
// distance — which pins the stream up to the order of exact ties.
func checkStream(t *testing.T, what string, ids []int64, dists []float64, dist map[int64]float64) {
	t.Helper()
	sorted := make([]float64, 0, len(dist))
	for _, d := range dist {
		sorted = append(sorted, d)
	}
	sort.Float64s(sorted)
	seen := map[int64]bool{}
	for i, id := range ids {
		d, ok := dist[id]
		if !ok || seen[id] {
			t.Fatalf("%s: rank %d emits id %d (known %v, repeated %v)", what, i, id, ok, seen[id])
		}
		seen[id] = true
		if math.Float64bits(dists[i]) != math.Float64bits(d) || math.Float64bits(d) != math.Float64bits(sorted[i]) {
			t.Fatalf("%s: rank %d emits id %d at %v; its distance is %v and the rank's is %v", what, i, id, dists[i], d, sorted[i])
		}
	}
}
