package rtree

import (
	"math"
	"reflect"
	"regexp"
	"sort"
	"testing"

	"scaleshift/internal/geom"
	"scaleshift/internal/vec"
)

// The references the arena's searches are tested against.  None of it
// ships: the batched, allocation-free FlatTree descent is checked
// against the textbook recursion over the builder's nodes with the
// scalar geometry (geom.PenetratesEnlarged[Segment], vec.PLDFast,
// vec.PSegDFast), and the best-first k-NN streams against a sort of
// every entry's distance.

// frozen freezes tr: the only way to search what a builder holds.
func frozen(t testing.TB, tr *Tree) *FlatTree {
	t.Helper()
	f, err := tr.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// refDescend visits n and, depth first in slot order, every child whose
// MBR passes prune, collecting the leaf entries that pass accept, and
// accounts the visit as the paper does: a node is its pages, a leaf
// entry tested is one check.
func refDescend(n *node, stats *SearchStats, prune func(geom.Rect) bool, accept func(*entry) bool, hits *[]*entry) {
	stats.NodeAccesses += n.pages()
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

// refLine answers q over tr's nodes: Theorem 3 prunes the directory,
// and the leaves are decided by the same test (rects) or by the exact
// point-to-line distance of Lemma 1.
func refLine(tr *Tree, q lineQuery) ([]*entry, SearchStats) {
	var stats SearchStats
	var hits []*entry
	penetrates := func(r geom.Rect) bool {
		if q.segment {
			return geom.PenetratesEnlargedSegment(q.strategy, r, q.eps, q.l, q.tMin, q.tMax, &stats.Penetration)
		}
		return geom.PenetratesEnlarged(q.strategy, r, q.eps, q.l, &stats.Penetration)
	}
	accept := func(e *entry) bool {
		switch {
		case q.rects:
			return penetrates(e.rect)
		case q.segment:
			return vec.PSegDFast(e.item.Point, q.l, q.tMin, q.tMax) <= q.eps
		}
		return vec.PLDFast(e.item.Point, q.l) <= q.eps
	}
	refDescend(tr.root, &stats, penetrates, accept, &hits)
	return hits, stats
}

// refRange answers a rectangle range query over tr's nodes.
func refRange(tr *Tree, r geom.Rect) ([]*entry, SearchStats) {
	var stats SearchStats
	var hits []*entry
	refDescend(tr.root, &stats, r.Intersects, func(e *entry) bool { return r.Contains(e.item.Point) }, &hits)
	return hits, stats
}

// builderEntries returns every leaf entry of tr in document order.
func builderEntries(tr *Tree) []*entry {
	var all []*entry
	var stats SearchStats
	yes := func(geom.Rect) bool { return true }
	refDescend(tr.root, &stats, yes, func(*entry) bool { return true }, &all)
	return all
}

func entryIDs(es []*entry) []int64 {
	var ids []int64
	for _, e := range es {
		ids = append(ids, e.item.ID)
	}
	return ids
}

func entryItems(es []*entry) []Item {
	var items []Item
	for _, e := range es {
		items = append(items, e.item)
	}
	return items
}

func entryRectItems(es []*entry) []RectItem {
	var items []RectItem
	for _, e := range es {
		items = append(items, RectItem{Rect: e.rect, ID: e.item.ID})
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

// TestBuilderExportsNoSearch keeps one tree on the query path: the
// builder is mutated and frozen, and only the arena is searched.
func TestBuilderExportsNoSearch(t *testing.T) {
	query := regexp.MustCompile(`Search|Nearest`)
	typ := reflect.TypeOf(&Tree{})
	for i := 0; i < typ.NumMethod(); i++ {
		if name := typ.Method(i).Name; query.MatchString(name) {
			t.Errorf("*rtree.Tree exports %s; searches belong to FlatTree", name)
		}
	}
}
