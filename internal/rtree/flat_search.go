package rtree

import (
	"context"
	"fmt"
	"io"
	"math"

	"scaleshift/internal/geom"
	"scaleshift/internal/vec"
)

// The searches.  The arena is the only representation searched: a node's
// entries are tested in one sweep of the batched kernels of
// geom/batch.go and vec/batch.go — which evaluate the scalar
// expressions of Theorem 3 and Lemma 1 per entry — before any descent,
// entries are visited in slot order (depth first for the range probes,
// best first for k-NN), and returned Items are materialized
// fresh (the arena has no per-entry objects to share).
//
// Which directory kernel runs is read off the arena (dirKind): the slab
// or sphere test of the caller's Strategy over MBRs, or the cone test
// over norm ranges and direction boxes, which has no strategies — the
// argument is ignored there.  The leaves are tested the same way under
// both, so the same stored points come back.
//
// The planes are in the arena's units (see quant), so every search first
// scales its query into them — a line's point, ε and a segment's
// parameter range by 2^-exp, exactly; the direction is a direction in
// either — and converts what it returns, coordinates and distances, back.
// What comes back is the stored, rounded geometry: a caller after the
// exact answer widens ε by the arena's rounding bound and post-checks.

// SearchStats records the cost of one query in the paper's model:
// every node visited is one index page access.
type SearchStats struct {
	// NodeAccesses counts tree nodes read (index pages, §7).
	NodeAccesses int
	// LeafEntriesChecked counts leaf items whose distance was evaluated.
	LeafEntriesChecked int
	// SubtreesAccepted counts directory entries accepted whole (the a ≈ 0
	// shell: every point beneath within ε of the line), and
	// LeafEntriesAccepted the leaf items they emitted untested.  A leaf
	// emitted that way is one node access; the directory nodes between it
	// and the accepted entry are not read, and not counted.
	SubtreesAccepted, LeafEntriesAccepted int
	// Penetration counts the geometric primitives used while pruning.
	Penetration geom.CheckStats
}

// Add accumulates o into s.
func (s *SearchStats) Add(o SearchStats) {
	s.NodeAccesses += o.NodeAccesses
	s.LeafEntriesChecked += o.LeafEntriesChecked
	s.SubtreesAccepted += o.SubtreesAccepted
	s.LeafEntriesAccepted += o.LeafEntriesAccepted
	s.Penetration.Add(o.Penetration)
}

// ItemDist pairs an item with its distance to the query line.
type ItemDist struct {
	Item Item
	Dist float64
}

// lineQuery is one line or segment probe: what a descent prunes
// subtrees and tests leaf entries against.  The line and segment
// searches — returning items or IDs — share the one descend loop on it.
type lineQuery struct {
	l vec.Line
	// segment restricts the line to the parameter range [tMin, tMax].
	segment    bool
	tMin, tMax float64
	eps        float64
	strategy   geom.Strategy
	// cone is the probe as a direction-box directory tests it, prepared
	// by arenaQuery when the arena has one.
	cone geom.Cone
	// accept is the greatest r_hi of a direction-box entry the descent
	// accepts whole (geom.Cone.Accept), −Inf under any other directory:
	// set once per probe by arenaQuery.
	accept float64
}

// flatScratch holds the per-search reusable buffers.  Verdicts of
// internal nodes must survive the recursive descent below them, so
// they live in per-level buffers (depth-first search keeps at most
// one active node per level); the remaining accumulators are consumed
// before any recursion and are shared.
type flatScratch struct {
	bs     geom.BatchScratch
	levels [][]bool // per-level verdict buffers, each maxNode long
	qpD    []float64
	qpQp   []float64
	dist   []float64
	rL, rH vec.Vector // entryRect gather destination; RangeSearch's query rect
	lineP  vec.Vector // the query line's point in arena units
	dir    []float64  // the query's unit direction (direction-box arenas)
	nn     flatNNHeap // best-first queue of the k-NN streams
}

func (f *FlatTree) getScratch() *flatScratch {
	if v := f.pool.Get(); v != nil {
		return v.(*flatScratch)
	}
	sc := &flatScratch{
		levels: make([][]bool, f.height),
		qpD:    make([]float64, f.maxNode),
		qpQp:   make([]float64, f.maxNode),
		dist:   make([]float64, f.maxNode),
		rL:     make(vec.Vector, f.cfg.Dim),
		rH:     make(vec.Vector, f.cfg.Dim),
		lineP:  make(vec.Vector, f.cfg.Dim),
		dir:    make([]float64, 0, f.cfg.Dim),
	}
	for i := range sc.levels {
		sc.levels[i] = make([]bool, f.maxNode)
	}
	return sc
}

func (f *FlatTree) putScratch(sc *flatScratch) { f.pool.Put(sc) }

// leafItem materializes the Item of leaf entry ei, slot k of the node
// whose planes are pl, in caller units: the point is gathered from the
// leaf's rows.
func (f *FlatTree) leafItem(ei int, pl geom.Planes[float32], k int) Item {
	p := make(vec.Vector, f.cfg.Dim)
	for j := range p {
		p[j] = f.q.wide(pl.LRow(j)[k])
	}
	return Item{Point: p, ID: int64(f.refs[ei])}
}

// entryRect gathers entry k of pl into the scratch rect (no
// allocation), still in arena units, for kernels that take a Rect by
// value and do not retain it, like geom.LineRectDist.
func (sc *flatScratch) entryRect(pl geom.Planes[float32], k int) geom.Rect {
	for j := range sc.rL {
		sc.rL[j] = float64(pl.LRow(j)[k])
		sc.rH[j] = float64(pl.HRow(j)[k])
	}
	return geom.Rect{L: sc.rL, H: sc.rH}
}

// arenaLine returns l in arena units, its point in sc's buffer.
func (f *FlatTree) arenaLine(l vec.Line, sc *flatScratch) vec.Line {
	for j, p := range l.P {
		sc.lineP[j] = p * f.q.inv
	}
	return vec.Line{P: sc.lineP[:len(l.P)], D: l.D}
}

// arenaQuery returns q in arena units: with the direction kept, the
// point P + t·D becomes P·2^-exp + (t·2^-exp)·D.
func (f *FlatTree) arenaQuery(q lineQuery, sc *flatScratch) lineQuery {
	q.l = f.arenaLine(q.l, sc)
	q.eps *= f.q.inv
	q.tMin *= f.q.inv
	q.tMax *= f.q.inv
	q.accept = math.Inf(-1)
	if f.dir == dirCone {
		q.cone.Dir = sc.dir
		geom.PrepareCone(&q.cone, q.l, q.eps, q.tMin, q.tMax, q.segment)
		q.accept = q.cone.Accept
	}
	return q
}

// RangeSearch returns every item whose point lies inside r.  stats may
// be nil.
func (f *FlatTree) RangeSearch(r geom.Rect, stats *SearchStats) []Item {
	if f.dir != dirMBR && f.height > 1 {
		// Only a bug gets here: rectangle queries run over a tree frozen
		// from nodes (internal/euclid's), never over a bulk-loaded one.
		panic(fmt.Sprintf("rtree: RangeSearch over a %s directory; a rectangle query needs MBRs (FlatFromNodes)", f.dir))
	}
	sc := f.getScratch()
	defer f.putScratch(sc)
	for j := range r.L {
		sc.rL[j], sc.rH[j] = r.L[j]*f.q.inv, r.H[j]*f.q.inv
	}
	r = geom.Rect{L: sc.rL, H: sc.rH} // in arena units
	var out []Item
	f.rangeSearch(0, r, &out, stats, sc)
	return out
}

func (f *FlatTree) rangeSearch(ni int, r geom.Rect, out *[]Item, stats *SearchStats, sc *flatScratch) {
	if stats != nil {
		stats.NodeAccesses += f.nodePages(ni)
	}
	s, e := f.nodeEntries(ni)
	c := e - s
	lvl := f.nodeLevel(ni)
	if lvl == 0 {
		if stats != nil {
			stats.LeafEntriesChecked += c
		}
		if c == 0 {
			return
		}
		pl := f.nodePlanes(ni)
		verdict := sc.levels[0][:c]
		geom.ContainsBatch(pl.Data, c, r, verdict)
		for k := 0; k < c; k++ {
			if verdict[k] {
				*out = append(*out, f.leafItem(s+k, pl, k))
			}
		}
		return
	}
	verdict := sc.levels[lvl][:c]
	geom.IntersectsBatch(f.nodePlanes(ni), r, &sc.bs, verdict)
	for k := 0; k < c; k++ {
		if verdict[k] {
			f.rangeSearch(f.child(ni, s+k), r, out, stats, sc)
		}
	}
}

// penetrated is the batched Theorem 3 test of the directory node viewed
// by pl: of its entries' ε-enlarged MBRs under the probe's strategy, or —
// cone set, for a direction-box node — of their cones.  The returned
// verdicts alias sc and are valid until its next use.
func (q *lineQuery) penetrated(pl geom.Planes[float32], cone bool, sc *geom.BatchScratch, pen *geom.CheckStats) []bool {
	if cone {
		return geom.ConeBatch(pl, &q.cone, sc, pen)
	}
	if q.segment {
		return geom.PenetratesEnlargedSegmentBatch(q.strategy, pl, q.eps, q.l, q.tMin, q.tMax, sc, pen)
	}
	return geom.PenetratesEnlargedBatch(q.strategy, pl, q.eps, q.l, sc, pen)
}

// descend visits every node under ni whose ε-enlarged MBR q penetrates,
// entries in slot order, depth first, polling ctx at every node visit —
// the natural cancellation grain: a node is one page of work.  The
// qualifying entries of a leaf are handed to hit as runs: hit(pl, s,
// from, to) passes slots [from, to) of the leaf whose planes are pl and
// whose entries start at entry offset s.  q is in arena units.  On
// cancellation the hits so far stand and ctx.Err() is returned.
//
// Nodes are laid out pre-order (emitFlat; Validate holds a direction-box
// arena to it), so the subtree under ni is the node range [ni, end), and
// the subtree under entry k the range from its child to the next entry's
// child, or to end for the last entry.  An entered entry whose r_hi is at
// most q.accept is accepted whole: acceptSubtree hands every leaf of that
// range to hit, in the order the descent would, without testing anything
// below it.
func (f *FlatTree) descend(ctx context.Context, ni, end int, q *lineQuery, stats *SearchStats, sc *flatScratch, hit func(pl geom.Planes[float32], s, from, to int)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var pen *geom.CheckStats
	if stats != nil {
		stats.NodeAccesses += f.nodePages(ni)
		pen = &stats.Penetration
	}
	s, e := f.nodeEntries(ni)
	c := e - s
	lvl := f.nodeLevel(ni)
	pl := f.nodePlanes(ni)
	if lvl == 0 {
		if stats != nil {
			stats.LeafEntriesChecked += c
		}
		if c == 0 {
			return nil
		}
		if q.segment {
			vec.PSegDFastBatch(pl.Data, c, c, q.l, q.tMin, q.tMax, sc.qpD, sc.qpQp, sc.dist)
		} else {
			vec.PLDFastBatch(pl.Data, c, c, q.l, sc.qpD, sc.qpQp, sc.dist)
		}
		for k, d := range sc.dist[:c] {
			if d <= q.eps {
				hit(pl, s, k, k+1)
			}
		}
		return nil
	}
	// The verdicts must survive the recursion below, which reuses sc.bs.
	verdict := sc.levels[lvl][:c]
	copy(verdict, q.penetrated(pl, f.dir == dirCone, &sc.bs, pen))
	rHi := pl.HRow(0) // r_hi under a direction-box directory
	for k, in := range verdict {
		if !in {
			continue
		}
		child, next := f.child(ni, s+k), end
		if k+1 < c {
			next = int(f.refs[s+k+1])
		}
		var err error
		if float64(rHi[k]) <= q.accept {
			err = f.acceptSubtree(ctx, child, next, stats, hit)
		} else {
			err = f.descend(ctx, child, next, q, stats, sc, hit)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// acceptSubtree hands the leaves among nodes [from, to) — one accepted
// subtree — to hit whole, polling ctx once.  Only the node levels and the
// entry ranges are read, never a plane.
func (f *FlatTree) acceptSubtree(ctx context.Context, from, to int, stats *SearchStats, hit func(pl geom.Planes[float32], s, from, to int)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if to <= from || to > len(f.meta) {
		panic(fmt.Sprintf("rtree: corrupt flat arena: subtree of node %d ends at node %d of %d; verify the artifact before serving", from, to, len(f.meta)))
	}
	if stats != nil {
		stats.SubtreesAccepted++
	}
	for i := from; i < to; i++ {
		if f.nodeLevel(i) != 0 {
			continue
		}
		s, e := f.nodeEntries(i)
		if stats != nil {
			stats.NodeAccesses += f.nodePages(i)
			stats.LeafEntriesAccepted += e - s
		}
		hit(f.nodePlanes(i), s, 0, e-s)
	}
	return nil
}

// searchItems runs q to completion and materializes the hits as Items.
func (f *FlatTree) searchItems(q lineQuery, stats *SearchStats) []Item {
	sc := f.getScratch()
	defer f.putScratch(sc)
	q = f.arenaQuery(q, sc)
	var out []Item
	// A background context never cancels, so the descent cannot fail.
	_ = f.descend(context.Background(), 0, len(f.meta), &q, stats, sc, func(pl geom.Planes[float32], s, from, to int) {
		for k := from; k < to; k++ {
			out = append(out, f.leafItem(s+k, pl, k))
		}
	})
	return out
}

// searchIDs runs q, appending the ID of every hit to ids and reporting
// the descent to the obs registry.  Nothing is materialized per hit:
// the ID is read straight out of the arena's ref column.
func (f *FlatTree) searchIDs(ctx context.Context, q lineQuery, stats *SearchStats, ids []int64) ([]int64, error) {
	nb, lb := descentBefore(stats)
	sc := f.getScratch()
	q = f.arenaQuery(q, sc)
	err := f.descend(ctx, 0, len(f.meta), &q, stats, sc, func(_ geom.Planes[float32], s, from, to int) {
		for _, ref := range f.refs[s+from : s+to] {
			ids = append(ids, int64(ref))
		}
	})
	f.putScratch(sc)
	recordDescent(stats, nb, lb)
	return ids, err
}

// LineSearch returns every item whose point lies within eps of the
// line l, in the order encountered.  Internal subtrees are pruned by
// Theorem 3: a child is visited only when its ε-enlarged MBR is
// penetrated by l under the chosen strategy.  At the leaves the exact
// point-to-line distance (Lemma 1) decides.  stats may be nil.
func (f *FlatTree) LineSearch(l vec.Line, eps float64, strategy geom.Strategy, stats *SearchStats) []Item {
	return f.searchItems(lineQuery{l: l, eps: eps, strategy: strategy}, stats)
}

// SegmentSearch is LineSearch restricted to the parameter range
// [tMin, tMax] of the line: returned items lie within eps of the
// SEGMENT {l.P + t·l.D : tMin <= t <= tMax}.
func (f *FlatTree) SegmentSearch(l vec.Line, tMin, tMax, eps float64, strategy geom.Strategy, stats *SearchStats) []Item {
	return f.searchItems(lineQuery{l: l, segment: true, tMin: tMin, tMax: tMax, eps: eps, strategy: strategy}, stats)
}

// LineSearchIDs appends to ids the ID of every item whose point lies
// within eps of the line l, with cooperative cancellation — the query
// engine's probe.
func (f *FlatTree) LineSearchIDs(ctx context.Context, l vec.Line, eps float64, strategy geom.Strategy, stats *SearchStats, ids []int64) ([]int64, error) {
	return f.searchIDs(ctx, lineQuery{l: l, eps: eps, strategy: strategy}, stats, ids)
}

// SegmentSearchIDs is LineSearchIDs restricted to the parameter range
// [tMin, tMax].
func (f *FlatTree) SegmentSearchIDs(ctx context.Context, l vec.Line, tMin, tMax, eps float64, strategy geom.Strategy, stats *SearchStats, ids []int64) ([]int64, error) {
	return f.searchIDs(ctx, lineQuery{l: l, segment: true, tMin: tMin, tMax: tMax, eps: eps, strategy: strategy}, stats, ids)
}

// flatNNEntry is one best-first queue element: a node to expand
// (k == -1) or a leaf entry k of node, materialized only when popped
// so pushes stay allocation-free.
type flatNNEntry struct {
	dist float64
	node int
	k    int
}

// flatNNHeap is the best-first queue: a binary min-heap on dist in a
// typed slice, so a push boxes nothing.  push and pop sift exactly as
// the standard library's heap does over the same Less — up from the new
// last slot; root swapped with the last slot, then down — because the
// order in which entries at equal distance leave the queue, and with it
// the emitted stream, depends on the sift order.
type flatNNHeap []flatNNEntry

func (h *flatNNHeap) push(e flatNNEntry) {
	*h = append(*h, e)
	s := *h
	for j := len(s) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(s[j].dist < s[i].dist) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *flatNNHeap) pop() flatNNEntry {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && s[r].dist < s[j].dist {
			j = r
		}
		if !(s[j].dist < s[i].dist) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	*h = s[:n]
	return s[n]
}

// NearestToLine returns the k items whose points are closest to the
// line l in increasing distance order, using best-first traversal with
// the exact line-to-MBR distance as the bound (nearest-neighbour
// search per Corollary 1).  stats may be nil.
func (f *FlatTree) NearestToLine(l vec.Line, k int, stats *SearchStats) []ItemDist {
	if k <= 0 {
		return nil
	}
	var out []ItemDist
	f.NearestToLineFunc(l, stats, func(id ItemDist) bool {
		out = append(out, id)
		return len(out) < k
	})
	return out
}

// NearestToLineFunc streams items in non-decreasing distance to the
// line l until fn returns false or the tree is exhausted.  The caller
// can use the monotone distances as lower bounds for early termination
// (e.g. GEMINI-style exact refinement over reduced features).  A
// directory entry is queued at the line's distance to its MBR, or, in a
// direction-box arena, at the cone bound r_lo·sin θ_min.  stats may be
// nil.
func (f *FlatTree) NearestToLineFunc(l vec.Line, stats *SearchStats, fn func(ItemDist) bool) {
	if f.size == 0 {
		return
	}
	nb, lb := descentBefore(stats)
	defer recordDescent(stats, nb, lb)
	sc := f.getScratch()
	defer f.putScratch(sc)
	q := f.arenaQuery(lineQuery{l: l}, sc)
	l = q.l
	h := &sc.nn
	*h = append((*h)[:0], flatNNEntry{dist: 0, node: 0, k: -1})
	for len(*h) > 0 {
		top := h.pop()
		// Under a direction-box directory nothing is queued below the bound
		// its node was popped at, whatever the roundings of the cone bound
		// and of a leaf's one-pass distance say: the stream stays monotone.
		floor := 0.0
		if f.dir == dirCone {
			floor = top.dist
		}
		if top.k >= 0 {
			s, _ := f.nodeEntries(top.node)
			if !fn(ItemDist{Item: f.leafItem(s+top.k, f.nodePlanes(top.node), top.k), Dist: top.dist * f.q.scale}) {
				return
			}
			continue
		}
		ni := top.node
		if stats != nil {
			stats.NodeAccesses += f.nodePages(ni)
		}
		s, e := f.nodeEntries(ni)
		c := e - s
		if f.nodeLevel(ni) == 0 {
			if stats != nil {
				stats.LeafEntriesChecked += c
			}
			if c == 0 {
				continue
			}
			vec.PLDFastBatch(f.nodePlanes(ni).Data, c, c, l, sc.qpD, sc.qpQp, sc.dist)
			for k, d := range sc.dist[:c] {
				if d < floor {
					d = floor
				}
				h.push(flatNNEntry{dist: d, node: ni, k: k})
			}
			continue
		}
		pl := f.nodePlanes(ni)
		if f.dir == dirCone {
			for k, lowerSq := range geom.ConeLowerSqBatch(pl, &q.cone, &sc.bs) {
				d := q.cone.Bound(lowerSq)
				if d < floor {
					d = floor
				}
				h.push(flatNNEntry{dist: d, node: f.child(ni, s+k), k: -1})
			}
			continue
		}
		for k := 0; k < c; k++ {
			d := geom.LineRectDist(sc.entryRect(pl, k), l)
			h.push(flatNNEntry{dist: d, node: f.child(ni, s+k), k: -1})
		}
	}
}

// All returns every stored item in document order.  Intended for tests
// and diagnostics.
func (f *FlatTree) All() []Item {
	var out []Item
	var walk func(ni int)
	walk = func(ni int) {
		s, e := f.nodeEntries(ni)
		if f.nodeLevel(ni) == 0 {
			pl := f.nodePlanes(ni)
			for k := 0; k < e-s; k++ {
				out = append(out, f.leafItem(s+k, pl, k))
			}
			return
		}
		for ei := s; ei < e; ei++ {
			walk(f.child(ni, ei))
		}
	}
	walk(0)
	return out
}

// WriteStats renders Stats as an aligned table.
func (f *FlatTree) WriteStats(w io.Writer) error {
	return writeLevelStats(w, f.Stats())
}
