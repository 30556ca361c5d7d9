package rstar

import (
	"fmt"
	"io"
	"math"
	"strings"
	"sync"

	"scaleshift/internal/geom"
	"scaleshift/internal/rtree"
	"scaleshift/internal/vec"
)

// Slab is a Tree frozen for search: its nodes in pre-order, every entry's
// MBR in one contiguous float64 array of structure-of-arrays planes, and
// the child or identifier references beside them.  It lives in memory
// only — nothing writes it — and is immutable, so concurrent searches
// may share it.
//
// Node i's entries are [nodes[i].entries, nodes[i+1].entries) of refs and
// its plane values [nodes[i].planes, nodes[i+1].planes) of planes (the
// last node is a sentinel).  A directory node stores its entries'
// rectangles dimension-major — all L rows, then all H rows: the layout
// geom.Planes describes — and a leaf stores each point once, as its L
// rows alone.  refs holds the child's node index under a directory entry
// and the item identifier in a leaf.
//
// Every plane value is the tree's value as the serving arena would store
// it (see rounding): the counts of Figures 4–5, recorded while this tree
// was frozen into such an arena, reproduce exactly, and the ε a caller
// widens by for the arena (core.Features) covers the slab too.
type Slab struct {
	cfg                          Config
	size, height, pages, maxNode int
	round                        rounding

	nodes  []slabNode
	refs   []int64
	planes []float64

	pool sync.Pool // *slabScratch
}

// slabNode is one node of a Slab: its level (0 for a leaf), the pages it
// spans (an X-tree supernode spans several) and where its entries and
// plane values start.
type slabNode struct {
	level, pages    int
	entries, planes int
}

// rounding is the serving arena's number format (rtree's quant) applied
// in place: a value x becomes float32(x·2^-e) widened back by 2^e, with
// one exponent e per tree, chosen so that its largest magnitude m has
// m·2^-e in [½, 1).  Scaling by a power of two is exact, so searching
// these values in the caller's units decides everything as the arena
// decided it in its own.
type rounding struct{ scale, inv float64 }

func roundingFor(maxAbs float64) rounding {
	_, e := math.Frexp(maxAbs)
	e = min(max(e, -1021), 1023)
	return rounding{scale: math.Ldexp(1, e), inv: math.Ldexp(1, -e)}
}

// of returns x as stored.  Adding zero turns −0 into +0.
func (r rounding) of(x float64) float64 { return float64(float32(x*r.inv)+0) * r.scale }

// Freeze returns the tree as the slab that is searched; the two share
// nothing mutable.
func (t *Tree) Freeze() *Slab {
	s := &Slab{cfg: t.cfg, size: t.size, height: t.Height(), pages: t.nodes, round: rounding{scale: 1, inv: 1}}
	if len(t.root.entries) > 0 {
		var m float64
		bounds := t.root.mbr()
		for j := range bounds.L {
			m = max(m, math.Abs(bounds.L[j]), math.Abs(bounds.H[j]))
		}
		s.round = roundingFor(m)
	}
	s.emit(t.root)
	s.nodes = append(s.nodes, slabNode{entries: len(s.refs), planes: len(s.planes)})
	return s
}

// emit appends n and the subtree beneath it, pre-order, every value
// rounded, and returns n's index.
func (s *Slab) emit(n *node) int {
	idx := len(s.nodes)
	s.nodes = append(s.nodes, slabNode{level: n.level, pages: n.pages(), entries: len(s.refs), planes: len(s.planes)})
	s.maxNode = max(s.maxNode, len(n.entries))
	for j := 0; j < s.cfg.Dim; j++ {
		for _, e := range n.entries {
			s.planes = append(s.planes, s.round.of(e.rect.L[j]))
		}
	}
	if n.isLeaf() {
		for _, e := range n.entries {
			s.refs = append(s.refs, e.id)
		}
		return idx
	}
	for j := 0; j < s.cfg.Dim; j++ {
		for _, e := range n.entries {
			s.planes = append(s.planes, s.round.of(e.rect.H[j]))
		}
	}
	// A directory entry's reference is its child's index, known once the
	// walk below has placed the child.
	base := len(s.refs)
	s.refs = append(s.refs, make([]int64, len(n.entries))...)
	for k, e := range n.entries {
		s.refs[base+k] = int64(s.emit(e.child))
	}
	return idx
}

// Len returns the number of stored points.
func (s *Slab) Len() int { return s.size }

// Height returns the number of levels (1 for a lone leaf root).
func (s *Slab) Height() int { return s.height }

// NodeCount returns the number of pages the tree occupies.
func (s *Slab) NodeCount() int { return s.pages }

// Bytes returns what the slab occupies in memory: its node, reference
// and plane arrays.
func (s *Slab) Bytes() int {
	return 32*len(s.nodes) + 8*len(s.refs) + 8*len(s.planes)
}

// nodePlanes returns the SoA view of node i's entries: what every kernel
// and every statistic reads.
func (s *Slab) nodePlanes(i int) geom.NodePlanes {
	return geom.NodePlanes{Data: s.planes[s.nodes[i].planes:s.nodes[i+1].planes], Count: s.nodes[i+1].entries - s.nodes[i].entries, Dim: s.cfg.Dim}
}

// slabScratch holds one search's reusable buffers.  Verdicts of a
// directory node must survive the descent below it, so they live in
// per-level buffers (depth first keeps one node per level active); the
// leaf kernel's accumulators are consumed before any recursion.
type slabScratch struct {
	bs              geom.BatchScratch
	levels          [][]bool
	qpD, qpQp, dist []float64
}

func (s *Slab) getScratch() *slabScratch {
	if v := s.pool.Get(); v != nil {
		return v.(*slabScratch)
	}
	sc := &slabScratch{
		levels: make([][]bool, s.height),
		qpD:    make([]float64, s.maxNode),
		qpQp:   make([]float64, s.maxNode),
		dist:   make([]float64, s.maxNode),
	}
	for i := range sc.levels {
		sc.levels[i] = make([]bool, s.maxNode)
	}
	return sc
}

// lineSearch is one line probe of a slab in progress.
type lineSearch struct {
	s        *Slab
	l        vec.Line
	eps      float64
	strategy geom.Strategy
	stats    *rtree.SearchStats
	sc       *slabScratch
	ids      []int64
}

// LineSearchIDs appends to ids the identifier of every stored point
// within eps of the line l, in pre-order, and returns the result.  A
// child is visited only when its ε-enlarged MBR is penetrated by l
// (Theorem 3) under strategy — the Entering/Exiting-Points slab test or
// the Bounding-Spheres pre-check before it (§7) — and a leaf point is
// kept when its distance to l (Lemma 1) is at most eps.  Every node read
// is its pages in stats, which may be nil, and every test a penetration
// primitive.
func (s *Slab) LineSearchIDs(l vec.Line, eps float64, strategy geom.Strategy, stats *rtree.SearchStats, ids []int64) []int64 {
	q := lineSearch{s: s, l: l, eps: eps, strategy: strategy, stats: stats, sc: s.getScratch(), ids: ids}
	q.descend(0)
	s.pool.Put(q.sc)
	return q.ids
}

func (q *lineSearch) descend(ni int) {
	s, sc := q.s, q.sc
	var pen *geom.CheckStats
	if q.stats != nil {
		q.stats.NodeAccesses += s.nodes[ni].pages
		pen = &q.stats.Penetration
	}
	pl := s.nodePlanes(ni)
	first, c := s.nodes[ni].entries, pl.Count
	if lvl := s.nodes[ni].level; lvl > 0 {
		// The verdicts must survive the recursion below, which reuses sc.bs.
		verdict := sc.levels[lvl][:c]
		copy(verdict, geom.PenetratesEnlargedBatch(q.strategy, pl, q.eps, q.l, &sc.bs, pen))
		for k, in := range verdict {
			if in {
				q.descend(int(s.refs[first+k]))
			}
		}
		return
	}
	if q.stats != nil {
		q.stats.LeafEntriesChecked += c
	}
	vec.PLDFastBatch(pl.Data, c, c, q.l, sc.qpD, sc.qpQp, sc.dist)
	for k, d := range sc.dist[:c] {
		if d <= q.eps {
			q.ids = append(q.ids, s.refs[first+k])
		}
	}
}

// RangeSearch returns the identifier of every stored point inside r, in
// pre-order: a child is visited when its MBR intersects r.  Node reads
// and leaf checks are counted into stats, which may be nil.
func (s *Slab) RangeSearch(r geom.Rect, stats *rtree.SearchStats) []int64 {
	sc := s.getScratch()
	defer s.pool.Put(sc)
	var ids []int64
	var walk func(ni int)
	walk = func(ni int) {
		pl := s.nodePlanes(ni)
		first, c, lvl := s.nodes[ni].entries, pl.Count, s.nodes[ni].level
		verdict := sc.levels[lvl][:c]
		if stats != nil {
			stats.NodeAccesses += s.nodes[ni].pages
		}
		if lvl == 0 {
			if stats != nil {
				stats.LeafEntriesChecked += c
			}
			geom.ContainsBatch(pl.Data, c, r, verdict)
			for k, in := range verdict {
				if in {
					ids = append(ids, s.refs[first+k])
				}
			}
			return
		}
		geom.IntersectsBatch(pl, r, verdict)
		for k, in := range verdict {
			if in {
				walk(int(s.refs[first+k]))
			}
		}
	}
	walk(0)
	return ids
}

// LevelStats summarizes the geometry of one tree level — the numbers
// behind the paper's §7 discussion (after [26]) of why the
// bounding-spheres heuristic fails: R*-tree MBRs have long diagonals
// but small volume, so the circumscribed sphere is hugely larger than
// the box and the inscribed sphere hugely smaller.
type LevelStats struct {
	// Level is the tree level (0 = leaves).
	Level int
	// Nodes and Pages count nodes and their disk pages (supernodes
	// span several pages).
	Nodes, Pages int
	// Entries is the total number of entries across the level.
	Entries int
	// Bytes is what the level occupies in the slab: 32 per node and, per
	// entry, an 8-byte reference and its float64 planes — one per
	// dimension for a point, two for an MBR.
	Bytes int
	// AvgOccupancy is Entries divided by the level's capacity.
	AvgOccupancy float64
	// AvgElongation is the mean ratio of a node's MBR's longest side to
	// its shortest side (1 = hypercube; large = long and thin).
	AvgElongation float64
	// AvgSphereGap is the mean ratio of a node's MBR's outer
	// (circumscribed) sphere radius to its inner (inscribed) sphere
	// radius.  For a hypercube in d dims this is √d; values far above
	// that mean the sphere pre-checks of §7 are almost always
	// inconclusive.
	AvgSphereGap float64
}

// Stats returns per-level geometry statistics, leaves first.
func (s *Slab) Stats() []LevelStats {
	byLevel := make([]*LevelStats, s.height)
	for i := range s.nodes[:len(s.nodes)-1] {
		n := s.nodes[i]
		ls := byLevel[n.level]
		if ls == nil {
			ls = &LevelStats{Level: n.level}
			byLevel[n.level] = ls
		}
		pl := s.nodePlanes(i)
		ls.Nodes++
		ls.Pages += n.pages
		ls.Entries += pl.Count
		ls.Bytes += 32 + 8*pl.Count + 8*len(pl.Data)
		if pl.Count == 0 {
			continue
		}
		minSide, maxSide := math.Inf(1), 0.0
		var outerSq float64
		innerHalf := math.Inf(1)
		for j := 0; j < pl.Dim; j++ {
			lr, hr := pl.LRow(j), pl.HRow(j)
			lo, hi := lr[0], hr[0]
			for k := 1; k < len(lr); k++ {
				lo, hi = min(lo, lr[k]), max(hi, hr[k])
			}
			side := hi - lo
			minSide = math.Min(minSide, side)
			maxSide = math.Max(maxSide, side)
			outerSq += (side / 2) * (side / 2)
			innerHalf = math.Min(innerHalf, side/2)
		}
		switch {
		case minSide > 0:
			ls.AvgElongation += maxSide / minSide
		case maxSide > 0:
			ls.AvgElongation += math.Inf(1)
		default:
			ls.AvgElongation++
		}
		outer := math.Sqrt(outerSq)
		switch {
		case innerHalf > 0:
			ls.AvgSphereGap += outer / innerHalf
		case outer > 0:
			ls.AvgSphereGap += math.Inf(1)
		default:
			ls.AvgSphereGap++
		}
	}
	out := make([]LevelStats, 0, s.height)
	for _, ls := range byLevel {
		if ls == nil {
			continue
		}
		n := float64(ls.Nodes)
		ls.AvgElongation /= n
		ls.AvgSphereGap /= n
		ls.AvgOccupancy = float64(ls.Entries) / float64(ls.Pages*s.cfg.MaxEntries)
		out = append(out, *ls)
	}
	return out
}

// WriteStats renders Stats as an aligned table.
func (s *Slab) WriteStats(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %8s %8s %8s %10s %10s %12s %12s\n",
		"level", "nodes", "pages", "entries", "bytes", "occupancy", "elongation", "sphere-gap")
	b.WriteString(strings.Repeat("-", 81))
	b.WriteByte('\n')
	for _, ls := range s.Stats() {
		fmt.Fprintf(&b, "%-6d %8d %8d %8d %10d %9.1f%% %12.1f %12.1f\n",
			ls.Level, ls.Nodes, ls.Pages, ls.Entries, ls.Bytes,
			100*ls.AvgOccupancy, ls.AvgElongation, ls.AvgSphereGap)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
