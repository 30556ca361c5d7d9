package rtree

import (
	"container/heap"
	"context"

	"scaleshift/internal/geom"
	"scaleshift/internal/vec"
)

// SearchStats records the cost of one query in the paper's model:
// every node visited is one index page access.
type SearchStats struct {
	// NodeAccesses counts tree nodes read (index pages, §7).
	NodeAccesses int
	// LeafEntriesChecked counts leaf items whose distance was evaluated.
	LeafEntriesChecked int
	// Penetration counts the geometric primitives used while pruning.
	Penetration geom.CheckStats
}

// Add accumulates o into s.
func (s *SearchStats) Add(o SearchStats) {
	s.NodeAccesses += o.NodeAccesses
	s.LeafEntriesChecked += o.LeafEntriesChecked
	s.Penetration.Add(o.Penetration)
}

// RangeSearch appends to out every item whose point lies inside r and
// returns the result.  stats may be nil.
func (t *Tree) RangeSearch(r geom.Rect, stats *SearchStats) []Item {
	var out []Item
	t.rangeSearch(t.root, r, &out, stats)
	return out
}

func (t *Tree) rangeSearch(n *node, r geom.Rect, out *[]Item, stats *SearchStats) {
	if stats != nil {
		stats.NodeAccesses += n.pages()
	}
	if n.isLeaf() {
		for _, e := range n.entries {
			if stats != nil {
				stats.LeafEntriesChecked++
			}
			if r.Contains(e.item.Point) {
				*out = append(*out, e.item)
			}
		}
		return
	}
	for _, e := range n.entries {
		if r.Intersects(e.rect) {
			t.rangeSearch(e.child, r, out, stats)
		}
	}
}

// lineQuery is one line or segment probe: what a descent prunes
// subtrees and tests leaf entries against.  Both tree representations
// descend on it, so the line and segment searches — over point or
// rectangle leaf entries, returning items or IDs — share one loop per
// representation.
type lineQuery struct {
	l vec.Line
	// segment restricts the line to the parameter range [tMin, tMax].
	segment    bool
	tMin, tMax float64
	eps        float64
	strategy   geom.Strategy
	// rects applies the Theorem 3 box test all the way to the leaf
	// slots (rectangle entries); otherwise leaves hold points and the
	// exact point-to-line distance (Lemma 1) decides.
	rects bool
}

// descend visits every node under n whose ε-enlarged MBR q penetrates
// (Theorem 3), entries in slot order, depth first, polling ctx at every
// node visit — the natural cooperative-cancellation grain: a node is
// one page of work (≤ M entries of O(d) geometry), so cancellation
// latency is bounded by a single page regardless of tree size.  Every
// qualifying leaf entry is handed to hit.  On cancellation the hits so
// far stand and ctx.Err() is returned.
func (t *Tree) descend(ctx context.Context, n *node, q *lineQuery, stats *SearchStats, hit func(*entry)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var pen *geom.CheckStats
	if stats != nil {
		stats.NodeAccesses += n.pages()
		pen = &stats.Penetration
	}
	if n.isLeaf() {
		for _, e := range n.entries {
			if stats != nil {
				stats.LeafEntriesChecked++
			}
			var in bool
			switch {
			case q.rects:
				in = q.penetrates(e.rect, pen)
			case q.segment:
				in = vec.PSegDFast(e.item.Point, q.l, q.tMin, q.tMax) <= q.eps
			default:
				in = vec.PLDFast(e.item.Point, q.l) <= q.eps
			}
			if in {
				hit(e)
			}
		}
		return nil
	}
	for _, e := range n.entries {
		if q.penetrates(e.rect, pen) {
			if err := t.descend(ctx, e.child, q, stats, hit); err != nil {
				return err
			}
		}
	}
	return nil
}

// penetrates is the Theorem 3 test of one MBR.
func (q *lineQuery) penetrates(r geom.Rect, pen *geom.CheckStats) bool {
	if q.segment {
		return geom.PenetratesEnlargedSegment(q.strategy, r, q.eps, q.l, q.tMin, q.tMax, pen)
	}
	return geom.PenetratesEnlarged(q.strategy, r, q.eps, q.l, pen)
}

// searchItems runs q to completion and collects the hit items.
func (t *Tree) searchItems(q *lineQuery, stats *SearchStats) []Item {
	var out []Item
	// A background context never cancels, so the descent cannot fail.
	_ = t.descend(context.Background(), t.root, q, stats, func(e *entry) { out = append(out, e.item) })
	return out
}

// searchRects runs q and collects the hit entries with their extents.
func (t *Tree) searchRects(ctx context.Context, q *lineQuery, stats *SearchStats) ([]RectItem, error) {
	var out []RectItem
	err := t.descend(ctx, t.root, q, stats, func(e *entry) { out = append(out, RectItem{Rect: e.rect, ID: e.item.ID}) })
	return out, err
}

// LineSearch returns every item whose point lies within eps of the
// line l, in the order encountered.  Internal subtrees are pruned by
// Theorem 3: a child is visited only when its ε-enlarged MBR is
// penetrated by l under the chosen strategy.  At the leaves the exact
// point-to-line distance (Lemma 1) decides.  stats may be nil.
func (t *Tree) LineSearch(l vec.Line, eps float64, strategy geom.Strategy, stats *SearchStats) []Item {
	return t.searchItems(&lineQuery{l: l, eps: eps, strategy: strategy}, stats)
}

// RectItem is a leaf entry together with its extent, as returned by
// the rectangle-aware searches.  For point entries the rectangle is
// degenerate (L == H == the point).
type RectItem struct {
	Rect geom.Rect
	ID   int64
}

// LineSearchRects returns every leaf entry whose ε-enlarged extent is
// penetrated by the line l — the Theorem 3 test applied all the way to
// the leaf slots.  Unlike LineSearch it works for rectangle (sub-trail
// MBR) entries: any point within L2 distance ε of the line lies inside
// the ε-enlargement of every box containing it, so no qualifying entry
// is missed; the caller's exact post-check removes the extra
// candidates the L∞ box test admits.  stats may be nil.
func (t *Tree) LineSearchRects(l vec.Line, eps float64, strategy geom.Strategy, stats *SearchStats) []RectItem {
	out, _ := t.searchRects(context.Background(), &lineQuery{l: l, eps: eps, strategy: strategy, rects: true}, stats)
	return out
}

// RectItemDist pairs a leaf entry with a lower bound on the distance
// from the line to anything inside its extent.
type RectItemDist struct {
	Rect geom.Rect
	ID   int64
	Dist float64
}

// NearestRectsToLineFunc streams leaf entries in non-decreasing
// line-to-extent distance (exact LineRectDist, a valid lower bound for
// every point inside).  Works for both point and rectangle entries.
func (t *Tree) NearestRectsToLineFunc(l vec.Line, stats *SearchStats, fn func(RectItemDist) bool) {
	if t.size == 0 {
		return
	}
	nb, lb := descentBefore(stats)
	defer recordDescent(stats, nb, lb)
	h := &rectNNHeap{{dist: 0, child: t.root}}
	for h.Len() > 0 {
		top := heap.Pop(h).(rectNNEntry)
		if top.child == nil {
			if !fn(RectItemDist{Rect: top.rect, ID: top.id, Dist: top.dist}) {
				return
			}
			continue
		}
		n := top.child
		if stats != nil {
			stats.NodeAccesses += n.pages()
		}
		for _, e := range n.entries {
			d := geom.LineRectDist(e.rect, l)
			if n.isLeaf() {
				if stats != nil {
					stats.LeafEntriesChecked++
				}
				heap.Push(h, rectNNEntry{dist: d, rect: e.rect, id: e.item.ID})
			} else {
				heap.Push(h, rectNNEntry{dist: d, child: e.child})
			}
		}
	}
}

type rectNNEntry struct {
	dist  float64
	child *node
	rect  geom.Rect
	id    int64
}

type rectNNHeap []rectNNEntry

func (h rectNNHeap) Len() int            { return len(h) }
func (h rectNNHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h rectNNHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *rectNNHeap) Push(x interface{}) { *h = append(*h, x.(rectNNEntry)) }
func (h *rectNNHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// ItemDist pairs an item with its distance to the query line.
type ItemDist struct {
	Item Item
	Dist float64
}

// nnHeapEntry is either a node (child != nil) or a materialized item in
// the best-first priority queue.
type nnHeapEntry struct {
	dist  float64
	child *node
	item  Item
}

type nnHeap []nnHeapEntry

func (h nnHeap) Len() int            { return len(h) }
func (h nnHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h nnHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nnHeap) Push(x interface{}) { *h = append(*h, x.(nnHeapEntry)) }
func (h *nnHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// NearestToLine returns the k items whose points are closest to the
// line l in increasing distance order, using best-first traversal with
// the exact line-to-MBR distance as the bound (nearest-neighbour
// search per Corollary 1).  stats may be nil.
func (t *Tree) NearestToLine(l vec.Line, k int, stats *SearchStats) []ItemDist {
	if k <= 0 {
		return nil
	}
	var out []ItemDist
	t.NearestToLineFunc(l, stats, func(id ItemDist) bool {
		out = append(out, id)
		return len(out) < k
	})
	return out
}

// NearestToLineFunc streams items in strictly non-decreasing distance
// to the line l until fn returns false or the tree is exhausted.  The
// caller can use the monotone distances as lower bounds for early
// termination (e.g. GEMINI-style exact refinement over reduced
// features).  stats may be nil.
func (t *Tree) NearestToLineFunc(l vec.Line, stats *SearchStats, fn func(ItemDist) bool) {
	if t.size == 0 {
		return
	}
	nb, lb := descentBefore(stats)
	defer recordDescent(stats, nb, lb)
	h := &nnHeap{{dist: 0, child: t.root}}
	for h.Len() > 0 {
		top := heap.Pop(h).(nnHeapEntry)
		if top.child == nil {
			if !fn(ItemDist{Item: top.item, Dist: top.dist}) {
				return
			}
			continue
		}
		n := top.child
		if stats != nil {
			stats.NodeAccesses += n.pages()
		}
		if n.isLeaf() {
			for _, e := range n.entries {
				if stats != nil {
					stats.LeafEntriesChecked++
				}
				heap.Push(h, nnHeapEntry{dist: vec.PLDFast(e.item.Point, l), item: e.item})
			}
			continue
		}
		for _, e := range n.entries {
			heap.Push(h, nnHeapEntry{dist: geom.LineRectDist(e.rect, l), child: e.child})
		}
	}
}

// All returns every stored item (document order).  Intended for tests
// and diagnostics.
func (t *Tree) All() []Item {
	var out []Item
	var walk func(*node)
	walk = func(n *node) {
		if n.isLeaf() {
			for _, e := range n.entries {
				out = append(out, e.item)
			}
			return
		}
		for _, e := range n.entries {
			walk(e.child)
		}
	}
	walk(t.root)
	return out
}

// SegmentSearch is LineSearch restricted to the parameter range
// [tMin, tMax] of the line: returned items lie within eps of the
// SEGMENT {l.P + t·l.D : tMin <= t <= tMax}.  Point entries only.
func (t *Tree) SegmentSearch(l vec.Line, tMin, tMax, eps float64, strategy geom.Strategy, stats *SearchStats) []Item {
	return t.searchItems(&lineQuery{l: l, segment: true, tMin: tMin, tMax: tMax, eps: eps, strategy: strategy}, stats)
}

// SegmentSearchRects is SegmentSearch for trees with rectangle
// (sub-trail MBR) leaf entries: the ε-enlarged extent must be
// penetrated by the segment.
func (t *Tree) SegmentSearchRects(l vec.Line, tMin, tMax, eps float64, strategy geom.Strategy, stats *SearchStats) []RectItem {
	out, _ := t.searchRects(context.Background(), &lineQuery{l: l, segment: true, tMin: tMin, tMax: tMax, eps: eps, strategy: strategy, rects: true}, stats)
	return out
}
