package rtree

import (
	"context"
	"fmt"
	"math"

	"scaleshift/internal/geom"
	"scaleshift/internal/vec"
)

// The searches.  A node's entries are tested in one sweep of the batched
// kernels of geom/batch.go and vec/batch.go — the cone test over the
// directory's norm ranges and direction boxes, and Lemma 1's distance at
// the leaves — before any descent, and entries are visited in slot order
// (depth first for the range probes, level by level along the smallest
// bounds for the k-NN seeds).  What comes back is IDs, read straight out
// of the arena's ref column.
//
// The planes are in the arena's units (see quant), so every search first
// scales its query into them — a line's point, ε and a segment's
// parameter range by 2^-exp, exactly; the direction is a direction in
// either — and converts the distances it returns back.
// The leaves decide on the stored, rounded geometry: a caller after the
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

// lineQuery is one line or segment probe: what a descent prunes
// subtrees and tests leaf entries against.  The line and segment
// searches share the one descend loop on it.
type lineQuery struct {
	l vec.Line
	// segment restricts the line to the parameter range [tMin, tMax].
	segment    bool
	tMin, tMax float64
	eps        float64
	// cone is the probe as the directory tests it, prepared by arenaQuery.
	cone geom.Cone
	// accept is the greatest r_hi of a directory entry the descent accepts
	// whole (geom.Cone.Accept): set once per probe by arenaQuery.
	accept float64
	// tasks, when set, makes the descent a frontier (Probe.Frontier): an
	// entered level-1 node or an entry accepted whole is appended to it
	// as a Subtree instead of being descended.
	tasks *[]Subtree
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
	lineP  vec.Vector // the query line's point in arena units
	dir    []float64  // the query's unit direction
	// front and next are the nodes Seeds holds at one level and gathers
	// for the next.
	front, next []int
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
		lineP:  make(vec.Vector, f.cfg.Dim),
		dir:    make([]float64, 0, f.cfg.Dim),
	}
	for i := range sc.levels {
		sc.levels[i] = make([]bool, f.maxNode)
	}
	return sc
}

func (f *FlatTree) putScratch(sc *flatScratch) { f.pool.Put(sc) }

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
	q.cone.Dir = sc.dir
	geom.PrepareCone(&q.cone, q.l, q.eps, q.tMin, q.tMax, q.segment)
	q.accept = q.cone.Accept
	return q
}

// descend visits every node under ni whose cone q's ε-band enters,
// entries in slot order, depth first, polling ctx at every node visit —
// the natural cancellation grain: a node is one page of work.  The
// qualifying entries of a leaf are handed to hit as runs: hit(pl, s,
// from, to) passes slots [from, to) of the leaf whose planes are pl and
// whose entries start at entry offset s.  q is in arena units.  On
// cancellation the hits so far stand and ctx.Err() is returned.
//
// Nodes are laid out pre-order (emitFlat; Validate holds an arena to it),
// so the subtree under ni is the node range [ni, end), and
// the subtree under entry k the range from its child to the next entry's
// child, or to end for the last entry.  An entered entry whose r_hi is at
// most q.accept is accepted whole: acceptSubtree hands every leaf of that
// range to hit, in the order the descent would, without testing anything
// below it.  With q.tasks set the descent stops above level 1: an
// accepted entry, and an entered entry of a level-2 node, is appended to
// *q.tasks as a Subtree instead, and hit is never called.
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
	copy(verdict, geom.ConeBatch(pl, &q.cone, &sc.bs, pen))
	rHi := pl.HRow(0)
	for k, in := range verdict {
		if !in {
			continue
		}
		child, next := f.child(ni, s+k), end
		if k+1 < c {
			next = int(f.refs[s+k+1])
		}
		accept := float64(rHi[k]) <= q.accept
		var err error
		switch {
		case q.tasks != nil && (accept || lvl == 2):
			*q.tasks = append(*q.tasks, Subtree{from: child, to: next, accept: accept})
		case accept:
			err = f.acceptSubtree(ctx, child, next, stats, hit)
		default:
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

// searchIDs runs q over the whole tree as one Subtree, appending the ID
// of every hit to ids and reporting the descent to the obs registry.
func (f *FlatTree) searchIDs(ctx context.Context, q lineQuery, stats *SearchStats, ids []int64) ([]int64, error) {
	p := f.newProbe(q, stats)
	ids, err := p.Descend(ctx, Subtree{from: 0, to: len(f.meta)}, stats, ids)
	p.Release()
	return ids, err
}

// Subtree is one unit of a split descent: the node range [from, to) of
// an entered subtree in the arena's pre-order, and whether its entry was
// accepted whole (then no node of it is tested).
type Subtree struct {
	from, to int
	accept   bool
}

// Probe is one line or segment search split into steps, for a caller
// that runs the subtrees of a wide descent on several goroutines:
// Frontier tests the top of the tree and returns what it entered below,
// and Descend runs one of those subtrees.  Running every Subtree of the
// frontier, in its order, through one probe is the serial descent: the
// same hits in the same order, and the same SearchStats summed.  A probe
// holds its query in the arena's units and a scratch from the tree's
// pool; Release returns it.
type Probe struct {
	f     *FlatTree
	q     lineQuery
	sc    *flatScratch
	stats *SearchStats
	// nb and lb are stats' node and leaf counts when the probe began
	// (descentBefore); a fork reports nothing and has forked set.
	nb, lb int
	forked bool
}

// LineProbe prepares the search LineSearchIDs runs, the ε-band around
// the line l.  stats, which may be nil, is the ledger Release reports
// the descent from: the caller sums every Subtree's counts into it first.
func (f *FlatTree) LineProbe(l vec.Line, eps float64, stats *SearchStats) Probe {
	return f.newProbe(lineQuery{l: l, eps: eps}, stats)
}

// SegmentProbe is LineProbe restricted to the parameter range
// [tMin, tMax]: the search SegmentSearchIDs runs.
func (f *FlatTree) SegmentProbe(l vec.Line, tMin, tMax, eps float64, stats *SearchStats) Probe {
	return f.newProbe(lineQuery{l: l, segment: true, tMin: tMin, tMax: tMax, eps: eps}, stats)
}

func (f *FlatTree) newProbe(q lineQuery, stats *SearchStats) Probe {
	sc := f.getScratch()
	nb, lb := descentBefore(stats)
	return Probe{f: f, q: f.arenaQuery(q, sc), sc: sc, stats: stats, nb: nb, lb: lb}
}

// Frontier runs the descent over every directory level above level 1 —
// the same tests, in the same order, counted into stats, polling ctx per
// node — and appends to tasks, in that order, each subtree it enters
// below them: every entered level-1 node, and every entry accepted
// whole.  A tree of height two or less is one Subtree, the whole tree,
// and costs nothing here.
func (p *Probe) Frontier(ctx context.Context, stats *SearchStats, tasks []Subtree) ([]Subtree, error) {
	f := p.f
	if f.nodeLevel(0) < 2 {
		return append(tasks, Subtree{from: 0, to: len(f.meta)}), nil
	}
	q := p.q
	q.tasks = &tasks
	err := f.descend(ctx, 0, len(f.meta), &q, stats, p.sc, nil)
	return tasks, err
}

// Descend runs the descent of t, appending the ID of every hit to ids
// in the order the whole descent emits them, counting into stats and
// polling ctx per node.  Nothing is materialized per hit: the ID is read
// straight out of the arena's ref column.  A probe runs one Descend at a
// time; concurrent ones each need their own Fork.
func (p *Probe) Descend(ctx context.Context, t Subtree, stats *SearchStats, ids []int64) ([]int64, error) {
	f := p.f
	hit := func(_ geom.Planes[float32], s, from, to int) {
		for _, ref := range f.refs[s+from : s+to] {
			ids = append(ids, int64(ref))
		}
	}
	var err error
	if t.accept {
		err = f.acceptSubtree(ctx, t.from, t.to, stats, hit)
	} else {
		err = f.descend(ctx, t.from, t.to, &p.q, stats, p.sc, hit)
	}
	return ids, err
}

// Fork returns a probe of the same query with a scratch of its own, for
// Descend on another goroutine.  It reads p's query, so it must be
// released before p is; its Release reports nothing.
func (p *Probe) Fork() Probe {
	return Probe{f: p.f, q: p.q, sc: p.f.getScratch(), forked: true}
}

// Release returns the probe's scratch to the tree's pool and, unless it
// is a fork, reports one descent to the obs registry with the node reads
// and leaf checks its stats gained since the probe began.
func (p *Probe) Release() {
	if !p.forked {
		recordDescent(p.stats, p.nb, p.lb)
	}
	p.f.putScratch(p.sc)
	p.sc = nil
}

// LineSearchIDs appends to ids, in the order encountered, the ID of every
// stored point within eps of the line l — the query engine's probe.
// Subtrees are pruned by Theorem 3 applied to the cone a directory entry
// spans; at the leaves the point-to-line distance (Lemma 1) decides.
// ctx is polled at every node; stats may be nil.
func (f *FlatTree) LineSearchIDs(ctx context.Context, l vec.Line, eps float64, stats *SearchStats, ids []int64) ([]int64, error) {
	return f.searchIDs(ctx, lineQuery{l: l, eps: eps}, stats, ids)
}

// SegmentSearchIDs is LineSearchIDs restricted to the parameter range
// [tMin, tMax]: the points within eps of the SEGMENT
// {l.P + t·l.D : tMin <= t <= tMax}.
func (f *FlatTree) SegmentSearchIDs(ctx context.Context, l vec.Line, tMin, tMax, eps float64, stats *SearchStats, ids []int64) ([]int64, error) {
	return f.searchIDs(ctx, lineQuery{l: l, segment: true, tMin: tMin, tMax: tMax, eps: eps}, stats, ids)
}

// seedFrontier caps the nodes Seeds keeps at one level, twice the most
// level-1 nodes tied at 0 for a disguised query at paper scale.
const seedFrontier = 64

// Seeds reports leaf entries near the line l to seed, with their IDs
// and their distances to l, the leaf kernel's, in caller units.  Level
// by level it keeps the children of the nodes in hand at the smallest
// cone bound, every one tied at it up to seedFrontier, down to the
// level-1 nodes; it reports every entry beneath the first of those, and
// every entry of
// the leaves at the smallest bound beneath the others — where a query
// that is an exact scale/shift of a stored window finds its source when
// many bounds tie at 0 (DESIGN §5 item 9).  A tree of height one reports
// its root.  Node reads are counted into stats, which may be nil.
func (f *FlatTree) Seeds(l vec.Line, stats *SearchStats, seed func(id int64, dist float64)) {
	nb, lb := descentBefore(stats)
	defer recordDescent(stats, nb, lb)
	sc := f.getScratch()
	defer f.putScratch(sc)
	q := f.arenaQuery(lineQuery{l: l}, sc)
	read := func(ni int) (s, e int) {
		if stats != nil {
			stats.NodeAccesses += f.nodePages(ni)
		}
		return f.nodeEntries(ni)
	}
	leaf := func(ni int) {
		s, e := read(ni)
		c := e - s
		if stats != nil {
			stats.LeafEntriesChecked += c
		}
		vec.PLDFastBatch(f.nodePlanes(ni).Data, c, c, q.l, sc.qpD, sc.qpQp, sc.dist)
		for k, d := range sc.dist[:c] {
			seed(int64(f.refs[s+k]), d*f.q.scale)
		}
	}
	// nearest appends to next the children of the nodes in front at the
	// smallest bound, but skip's (-1 for none).
	nearest := func(front []int, skip int, next []int) []int {
		bestD := math.Inf(1)
		for _, ni := range front {
			if ni == skip {
				continue
			}
			s, e := read(ni)
			lowerSq := geom.ConeLowerSqBatch(f.nodePlanes(ni), &q.cone, &sc.bs)
			for k := 0; k < e-s; k++ {
				d := q.cone.Bound(lowerSq[k])
				if d != d { // NaN: the entry may hold anything
					d = math.Inf(1)
				}
				switch {
				case d < bestD || len(next) == 0:
					next, bestD = append(next[:0], f.child(ni, s+k)), d
				case d == bestD && len(next) < seedFrontier:
					next = append(next, f.child(ni, s+k))
				}
			}
		}
		return next
	}
	if f.nodeLevel(0) == 0 {
		leaf(0)
		return
	}
	front, spare := append(sc.front[:0], 0), sc.next[:0]
	for f.nodeLevel(front[0]) > 1 {
		front, spare = nearest(front, -1, spare[:0]), front
	}
	first := front[0]
	s, e := read(first)
	for ei := s; ei < e; ei++ {
		leaf(f.child(first, ei))
	}
	spare = nearest(front, first, spare[:0])
	for _, ni := range spare {
		leaf(ni)
	}
	sc.front, sc.next = front, spare
}
