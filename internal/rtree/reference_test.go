package rtree

import (
	"math"

	"scaleshift/internal/geom"
	"scaleshift/internal/vec"
)

// The references the arena's searches are tested against.  None of it
// ships: the batched, allocation-free FlatTree descent is checked
// against the textbook recursion over a pointer tree with the scalar
// geometry (geom.Cone.LowerSq and Enters, vec.PLDFast, vec.PSegDFast),
// and the k-NN seeds' greedy descent against the same descent over the
// pointer tree.
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

// entry is a directory entry's extent — row 0 its norm range, rows 1…
// its direction box — or a leaf entry's point, in L.
type entry struct {
	rect  geom.Rect
	child *node // nil at leaf level
	id    int64 // meaningful only at leaf level
}

func (n *node) isLeaf() bool { return n.level == 0 }

// storedView copies the nodes of the arena f into a pointer tree, every
// value widened to float64 and left in arena units.  Leaf entries keep
// their point as the lower corner of their rect.
func storedView(f *FlatTree) *node {
	var cp func(i int) *node
	cp = func(i int) *node {
		out := &node{level: f.nodeLevel(i), pages: f.nodePages(i)}
		s, e := f.nodeEntries(i)
		pl := f.nodePlanes(i)
		for k := 0; k < e-s; k++ {
			r := geom.Rect{L: make(vec.Vector, pl.Dim), H: make(vec.Vector, pl.Dim)}
			for j := range r.L {
				r.L[j], r.H[j] = float64(pl.LRow(j)[k]), float64(pl.HRow(j)[k])
			}
			ce := &entry{rect: r}
			if out.isLeaf() {
				ce.id = int64(f.refs[s+k])
			} else {
				ce.child = cp(f.child(i, s+k))
			}
			out.entries = append(out.entries, ce)
		}
		return out
	}
	return cp(0)
}

// arenaUnits returns q as f's searches run it: scaled into the arena's
// units, its cone prepared.
func arenaUnits(f *FlatTree, q lineQuery) lineQuery {
	return f.arenaQuery(q, f.getScratch())
}

// bound is the cone test's lower bound on the distance from q's line to
// anything under the directory entry e.
func (q *lineQuery) bound(e *entry) float64 {
	return q.cone.Bound(q.cone.LowerSq(e.rect.L[0], e.rect.L[1:], e.rect.H[1:]))
}

// refLine answers q over the nodes under root, depth first in slot order,
// and accounts it as the paper does — a node is its pages, a leaf entry
// tested one check, a directory entry tested one box test: Theorem 3
// applied to an entry's cone prunes it, an entered entry whose r_hi is at
// most q.accept is accepted whole — its leaves emitted untested, the
// nodes between not read — and a leaf entry is decided by its exact
// distance to the line (Lemma 1) or to the segment.
func refLine(root *node, q lineQuery) ([]int64, SearchStats) {
	var stats SearchStats
	var hits []int64
	var accept func(n *node)
	accept = func(n *node) {
		if !n.isLeaf() {
			for _, e := range n.entries {
				accept(e.child)
			}
			return
		}
		stats.NodeAccesses += n.pages
		stats.LeafEntriesAccepted += len(n.entries)
		for _, e := range n.entries {
			hits = append(hits, e.id)
		}
	}
	var visit func(n *node)
	visit = func(n *node) {
		stats.NodeAccesses += n.pages
		if n.isLeaf() {
			for _, e := range n.entries {
				stats.LeafEntriesChecked++
				d := vec.PLDFast(e.rect.L, q.l)
				if q.segment {
					d = vec.PSegDFast(e.rect.L, q.l, q.tMin, q.tMax)
				}
				if d <= q.eps {
					hits = append(hits, e.id)
				}
			}
			return
		}
		stats.Penetration.SlabTests += len(n.entries)
		for _, e := range n.entries {
			switch rLo, rHi := e.rect.L[0], e.rect.H[0]; {
			case !q.cone.Enters(q.cone.LowerSq(rLo, e.rect.L[1:], e.rect.H[1:]), rLo, rHi):
			case rHi <= q.accept:
				stats.SubtreesAccepted++
				accept(e.child)
			default:
				visit(e.child)
			}
		}
	}
	visit(root)
	return hits, stats
}

// refSeeds is Seeds over the nodes under root: level by level the
// children at the smallest cone bound, every one tied at it in order up
// to seedFrontier, down to the level-1 nodes; then every entry beneath
// the first of them and every entry of the leaves at the smallest bound
// beneath the others.  q is in arena units.
func refSeeds(root *node, q lineQuery) ([]*entry, SearchStats) {
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
				d := q.bound(e)
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
	var seeds []*entry
	var report func(n *node)
	report = func(n *node) {
		stats.NodeAccesses += n.pages
		for _, e := range n.entries {
			if n.isLeaf() {
				stats.LeafEntriesChecked++
				seeds = append(seeds, e)
			} else {
				report(e.child)
			}
		}
	}
	front := []*node{root}
	for front[0].level > 1 {
		front = nearest(front, nil)
	}
	report(front[0])
	if front[0].level == 1 {
		for _, n := range nearest(front, front[0]) {
			report(n)
		}
	}
	return seeds, stats
}

// storedItems returns every stored point of f with its ID, in node order
// and in caller units: what the arena holds.
func storedItems(f *FlatTree) []Item {
	var items []Item
	for i := range f.meta {
		if f.nodeLevel(i) != 0 {
			continue
		}
		s, e := f.nodeEntries(i)
		pl := f.nodePlanes(i)
		for k := 0; k < e-s; k++ {
			p := make(vec.Vector, f.cfg.Dim)
			for j := range p {
				p[j] = f.q.wide(pl.LRow(j)[k])
			}
			items = append(items, Item{Point: p, ID: int64(f.refs[s+k])})
		}
	}
	return items
}
