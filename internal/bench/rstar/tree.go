// Package rstar is the index the paper grows one entry at a time (§6): a
// dynamic R*-tree (Beckmann et al. [16]) storing feature points, with
// the classic Guttman R-tree splits and the X-tree's supernodes
// (Berchtold et al. [23]) available for ablation.  It is kept for the
// paper's experiments — Figures 4–5's insert-built sets, the split,
// index and build ablations, the directory-shape table — and for the
// Euclidean prior art of internal/euclid; nothing that serves queries
// imports it.  A Tree is grown by Insert and never searched: Freeze
// hands its nodes to rtree.FlatFromNodes, and the resulting arena — an
// MBR directory — is searched like any other.  Load is the whole trip
// in the shape of rtree.BulkLoadFlat.
package rstar

import (
	"fmt"
	"sort"

	"scaleshift/internal/geom"
	"scaleshift/internal/rtree"
	"scaleshift/internal/vec"
)

// Load builds an arena over n points by inserting them one at a time, in
// the order given, and freezing the result: point i has identifier
// ids[i] and coordinate j at cols[j·n+i], the columnar layout
// rtree.BulkLoadFlat takes.
func Load(cfg rtree.Config, ids []int64, cols []float64) (*rtree.FlatTree, error) {
	t, err := New(cfg)
	if err != nil {
		return nil, err
	}
	n := len(ids)
	if len(cols) != n*cfg.Dim {
		return nil, fmt.Errorf("rstar: %d points in %d dimensions need %d coordinates, got %d", n, cfg.Dim, n*cfg.Dim, len(cols))
	}
	p := make(vec.Vector, cfg.Dim)
	for i, id := range ids {
		for j := range p {
			p[j] = cols[j*n+i]
		}
		t.Insert(p, id)
	}
	return t.Freeze(), nil
}

// entry is one slot of a node: an MBR plus either a child node
// (internal levels) or an Item (leaves).
type entry struct {
	rect  geom.Rect
	child *node      // nil at leaf level
	item  rtree.Item // meaningful only at leaf level
}

// node is one page of the tree — or, when super > 1, an X-tree
// supernode spanning super contiguous pages.
type node struct {
	parent  *node
	level   int // 0 = leaf
	super   int // capacity multiplier; 0 and 1 both mean a normal node
	entries []*entry
}

// pages returns how many disk pages the node occupies.
func (n *node) pages() int {
	if n.super > 1 {
		return n.super
	}
	return 1
}

func (n *node) isLeaf() bool { return n.level == 0 }

// mbr returns the exact union of the node's entry rectangles as a
// fresh rectangle.
func (n *node) mbr() geom.Rect {
	var r geom.Rect
	n.mbrInto(&r)
	return r
}

// mbrInto writes the exact union of the node's entry rectangles into
// dst, reusing dst's backing slices when they have the capacity — the
// allocation-free form used on the insert path, where the destination
// is an existing parent-entry rectangle that is recomputed on every
// adjust step.
func (n *node) mbrInto(dst *geom.Rect) {
	first := n.entries[0].rect
	d := len(first.L)
	if cap(dst.L) >= d {
		dst.L = dst.L[:d]
	} else {
		dst.L = make(vec.Vector, d)
	}
	if cap(dst.H) >= d {
		dst.H = dst.H[:d]
	} else {
		dst.H = make(vec.Vector, d)
	}
	copy(dst.L, first.L)
	copy(dst.H, first.H)
	for _, e := range n.entries[1:] {
		dst.Extend(e.rect)
	}
}

// parentEntry returns the slot in n.parent that points at n, or nil
// for the root.
func (n *node) parentEntry() *entry {
	if n.parent == nil {
		return nil
	}
	for _, e := range n.parent.entries {
		if e.child == n {
			return e
		}
	}
	panic("rstar: node not referenced by its parent")
}

// Tree is a dynamic R-tree variant under construction: it is grown,
// never searched — Freeze it to search.  It is not safe for concurrent
// use.
type Tree struct {
	cfg  rtree.Config
	root *node
	size int
	// nodes counts live pages for the page-access cost model.
	nodes int
	// reinsertDone marks levels already force-reinserted during the
	// current insertion (R* "first overflow of the level" rule).
	reinsertDone map[int]bool
	// sample holds every sampleStride-th inserted feature point, the
	// planner's data-distribution statistic; see sampleAdd.
	sample       []vec.Vector
	sampleStride int
	sampleTick   int
	// pathScratch is reused by insertEntry to record the chooseSubtree
	// descent, so the MBR-adjust ascent never scans a parent's entries.
	pathScratch []*entry
}

// New returns an empty tree with the given configuration, or the error
// its arena would be refused with.
func New(cfg rtree.Config) (*Tree, error) {
	t := &Tree{cfg: cfg, root: &node{level: 0}, nodes: 1}
	if _, err := rtree.FlatFromNodes(cfg, t.root, nil, openNode); err != nil {
		return nil, err
	}
	return t, nil
}

// Freeze returns the tree as the arena that is searched, its directory
// the tree's MBRs; the two share nothing mutable.
func (t *Tree) Freeze() *rtree.FlatTree {
	f, err := rtree.FlatFromNodes(t.cfg, t.root, t.sample, openNode)
	if err != nil {
		panic(err) // New accepted the configuration
	}
	return f
}

// openNode describes n to rtree.FlatFromNodes.
func openNode(n *node) (level, pages int, rects []geom.Rect, ids []int64, children []*node) {
	rects = make([]geom.Rect, len(n.entries))
	for k, e := range n.entries {
		rects[k] = e.rect
		if n.isLeaf() {
			ids = append(ids, e.item.ID)
		} else {
			children = append(children, e.child)
		}
	}
	return n.level, n.pages(), rects, ids, children
}

// sampleCap bounds the planner's feature sample.  The sample holds
// every sampleStride-th inserted entry; when it outgrows 2·sampleCap,
// every other element is dropped and the stride doubles, which keeps
// the kept ticks ≡ 0 (mod stride) — a stratified sample of the whole
// insertion history, deterministic, with O(1) amortized maintenance.
const sampleCap = 256

// sampleAdd records an inserted feature point (already owned by the
// tree — the caller must not pass a slice it will reuse).
func (t *Tree) sampleAdd(p vec.Vector) {
	if t.sampleStride == 0 {
		t.sampleStride = 1
	}
	if t.sampleTick%t.sampleStride == 0 {
		t.sample = append(t.sample, p)
		if len(t.sample) > 2*sampleCap {
			kept := t.sample[:0]
			for i := 0; i < len(t.sample); i += 2 {
				kept = append(kept, t.sample[i])
			}
			t.sample = kept
			t.sampleStride *= 2
		}
	}
	t.sampleTick++
}

// Len returns the number of stored items.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels (1 for a lone leaf root).
func (t *Tree) Height() int { return t.root.level + 1 }

// NodeCount returns the number of pages (nodes) the tree occupies.
func (t *Tree) NodeCount() int { return t.nodes }

// Insert adds a point with its identifier.  The point is copied; the
// caller may reuse the slice.  Insert panics if the point's dimension
// differs from Config.Dim.
func (t *Tree) Insert(point vec.Vector, id int64) {
	if len(point) != t.cfg.Dim {
		panic(fmt.Sprintf("rstar: inserting %d-dimensional point into %d-dimensional tree",
			len(point), t.cfg.Dim))
	}
	p := point.Clone()
	e := &entry{rect: geom.RectFromPoint(p), item: rtree.Item{Point: p, ID: id}}
	t.reinsertDone = make(map[int]bool)
	t.insertEntry(e, 0)
	t.size++
	t.sampleAdd(p)
}

// insertEntry places e into a node at the given level, handling
// overflow with forced reinsertion or splits.
func (t *Tree) insertEntry(e *entry, level int) {
	n, path := t.chooseSubtree(e.rect, level, t.pathScratch[:0])
	t.pathScratch = path
	n.entries = append(n.entries, e)
	if e.child != nil {
		e.child.parent = n
	}
	// Pure insertion only grows MBRs, so extending the ancestors'
	// rectangles in place is exact and avoids recomputing unions.  The
	// descent already holds the chosen slot at every level, so no
	// parent-entry scan is needed on the way back up.
	for _, pe := range path {
		pe.rect.Extend(e.rect)
	}
	// Resolve overflows with a worklist: splitting a supernode can
	// leave either half still over normal capacity, and a split always
	// adds an entry to the parent.  Nested insertEntry calls (forced
	// reinsertion) reuse pathScratch; by then path is no longer read.
	work := []*node{n}
	for len(work) > 0 {
		cur := work[len(work)-1]
		work = work[:len(work)-1]
		if len(cur.entries) <= t.capacity(cur) {
			continue
		}
		work = append(work, t.overflowTreatment(cur)...)
	}
}

// chooseSubtree descends from the root to the node at the target level
// that should receive a rectangle r (R* ChooseSubtree; Guttman's
// least-enlargement rule for the classic splits).  The entry chosen at
// each step is appended to path, giving the caller the root-to-target
// slot chain without any parentEntry scans.
func (t *Tree) chooseSubtree(r geom.Rect, level int, path []*entry) (*node, []*entry) {
	n := t.root
	for n.level > level {
		var best *entry
		if t.cfg.Split == rtree.SplitRStar && n.level == 1 {
			best = chooseMinOverlap(n.entries, r)
		} else {
			best = chooseMinEnlargement(n.entries, r)
		}
		path = append(path, best)
		n = best.child
	}
	return n, path
}

// unionArea returns Area(a ∪ b) without materializing the union.
func unionArea(a, b geom.Rect) float64 {
	area := 1.0
	for i := range a.L {
		lo, hi := a.L[i], a.H[i]
		if b.L[i] < lo {
			lo = b.L[i]
		}
		if b.H[i] > hi {
			hi = b.H[i]
		}
		area *= hi - lo
	}
	return area
}

// grownIntersectionArea returns Area((base ∪ add) ∩ other) without
// materializing the grown rectangle.
func grownIntersectionArea(base, add, other geom.Rect) float64 {
	area := 1.0
	for i := range base.L {
		lo, hi := base.L[i], base.H[i]
		if add.L[i] < lo {
			lo = add.L[i]
		}
		if add.H[i] > hi {
			hi = add.H[i]
		}
		if other.L[i] > lo {
			lo = other.L[i]
		}
		if other.H[i] < hi {
			hi = other.H[i]
		}
		if hi <= lo {
			return 0
		}
		area *= hi - lo
	}
	return area
}

// chooseMinEnlargement picks the entry whose rectangle needs the least
// area enlargement to include r; ties by smallest area.
func chooseMinEnlargement(entries []*entry, r geom.Rect) *entry {
	var best *entry
	bestEnl, bestArea := 0.0, 0.0
	for _, e := range entries {
		area := e.rect.Area()
		enl := unionArea(e.rect, r) - area
		if best == nil || enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = e, enl, area
		}
	}
	return best
}

// chooseMinOverlap picks the entry whose enlargement to include r
// increases the total overlap with its siblings the least (R* rule for
// nodes whose children are leaves); ties by least area enlargement,
// then by smallest area.
func chooseMinOverlap(entries []*entry, r geom.Rect) *entry {
	var best *entry
	bestOv, bestEnl, bestArea := 0.0, 0.0, 0.0
	for _, e := range entries {
		var ov float64
		for _, o := range entries {
			if o == e {
				continue
			}
			ov += grownIntersectionArea(e.rect, r, o.rect) - e.rect.IntersectionArea(o.rect)
		}
		area := e.rect.Area()
		enl := unionArea(e.rect, r) - area
		if best == nil || ov < bestOv ||
			(ov == bestOv && (enl < bestEnl || (enl == bestEnl && area < bestArea))) {
			best, bestOv, bestEnl, bestArea = e, ov, enl, area
		}
	}
	return best
}

// capacity returns the maximum entry count of n (supernodes hold a
// multiple of M).
func (t *Tree) capacity(n *node) int {
	return n.pages() * t.cfg.MaxEntries
}

// overflowTreatment resolves one overflowing node and returns any
// nodes that may now be over capacity themselves (the split halves and
// the parent that absorbed a new entry).
func (t *Tree) overflowTreatment(n *node) []*node {
	if n.parent != nil && t.cfg.ReinsertCount > 0 && !t.reinsertDone[n.level] && n.super <= 1 {
		t.reinsertDone[n.level] = true
		t.forcedReinsert(n)
		return nil
	}
	g1, g2, supernode := t.chooseSplitGroups(n)
	if supernode {
		t.growSupernode(n)
		return nil
	}
	sibling := t.splitNode(n, g1, g2)
	out := []*node{n, sibling}
	if n.parent != nil {
		out = append(out, n.parent)
	}
	return out
}

// forcedReinsert removes the p entries of n whose centers lie farthest
// from the center of n's MBR and re-inserts them at the same level,
// closest first ("close reinsert", the variant [16] found best).
func (t *Tree) forcedReinsert(n *node) {
	center := n.mbr().Center()
	type scored struct {
		e *entry
		d float64
	}
	sc := make([]scored, len(n.entries))
	for i, e := range n.entries {
		sc[i] = scored{e, vec.Dist(e.rect.Center(), center)}
	}
	sort.Slice(sc, func(i, j int) bool { return sc[i].d < sc[j].d })

	p := t.cfg.ReinsertCount
	keep := sc[:len(sc)-p]
	evict := sc[len(sc)-p:]
	n.entries = n.entries[:0]
	for _, s := range keep {
		n.entries = append(n.entries, s.e)
	}
	t.refreshUpward(n)
	level := n.level
	for _, s := range evict {
		t.insertEntry(s.e, level)
	}
}

// refreshUpward recomputes the parent-entry rectangles on the path
// from n to the root so every entry rect is the exact MBR of its
// child.
func (t *Tree) refreshUpward(n *node) {
	for m := n; m.parent != nil; m = m.parent {
		pe := m.parentEntry()
		m.mbrInto(&pe.rect)
	}
}
