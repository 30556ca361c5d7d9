// Package rtree implements the dynamic height-balanced spatial index
// the paper builds its search on (§6): an R*-tree (Beckmann et al.
// [16]) storing feature points, with the classic Guttman R-tree split
// algorithms available for ablation.
//
// The index is built, then only searched, and the package has one type
// for each half.  Tree is the builder: nodes, choose-subtree, split,
// forced reinsertion, deletion — and Freeze, which emits the FlatTree,
// a pointer-free arena that is the only thing searched (BulkLoadFlat
// emits one directly; Thaw turns one back into a builder).  Beyond
// standard rectangle range search, the FlatTree supports the paper's
// two query primitives:
//
//   - LineSearch — all points within ε of an arbitrary line, descending
//     only into children whose ε-enlarged MBR is penetrated by the line
//     (Theorem 3), with either Entering/Exiting-Points or
//     Bounding-Spheres penetration checking (§7);
//   - NearestToLine — best-first k-nearest-neighbour search by
//     point-to-line distance (Corollary 1).
//
// An arena frozen from a builder carries the builder's MBRs and is
// pruned exactly so.  A bulk-loaded arena is tiled and summarised for
// the lines the index is actually asked about — all of them through the
// origin: its directory entries hold the range of the norms and a box of
// the unit directions beneath them, and Theorem 3 is applied to the cone
// they span (geom/cone.go).  The arena says which it is; the searches
// read it off.
//
// Every node corresponds to one disk page in the paper's cost model;
// SearchStats.NodeAccesses therefore equals the number of index page
// accesses of a query.
package rtree

import (
	"fmt"
	"sort"

	"scaleshift/internal/geom"
	"scaleshift/internal/vec"
)

// SplitAlgorithm selects how overflowing nodes are split.
type SplitAlgorithm int

const (
	// SplitRStar is the topological split of the R*-tree [16]:
	// choose the axis minimizing total margin, then the distribution
	// minimizing overlap.
	SplitRStar SplitAlgorithm = iota
	// SplitQuadratic is Guttman's quadratic-cost split [22].
	SplitQuadratic
	// SplitLinear is Guttman's linear-cost split [22].
	SplitLinear
)

// String returns the conventional name of the algorithm.
func (s SplitAlgorithm) String() string {
	switch s {
	case SplitRStar:
		return "rstar"
	case SplitQuadratic:
		return "quadratic"
	case SplitLinear:
		return "linear"
	default:
		return "unknown"
	}
}

// Config holds the structural parameters of a tree.  The zero value is
// not usable; start from DefaultConfig.
type Config struct {
	// Dim is the dimensionality of indexed points.
	Dim int
	// MaxEntries is M, the page capacity (§6: 20 for a 4 KB page).
	MaxEntries int
	// MinEntries is m, the fill guarantee (§7: 40 % of M).
	MinEntries int
	// ReinsertCount is p, how many entries the R* forced-reinsert
	// removes on the first overflow of a level (§7: 30 % of M).
	// 0 disables forced reinsertion (as in the classic R-tree).
	ReinsertCount int
	// Split selects the node-split algorithm.
	Split SplitAlgorithm
	// SupernodeMaxOverlap, when positive, enables X-tree behaviour
	// (Berchtold et al. [23], cited by the paper for high-dimensional
	// indexing): if splitting an internal node would leave its two
	// halves overlapping by more than this fraction of their combined
	// area, and no low-overlap split exists, the node becomes a
	// *supernode* of multiplied capacity instead of splitting.  0
	// disables supernodes (plain R-tree/R*-tree).
	SupernodeMaxOverlap float64
}

// DefaultConfig returns the paper's experimental configuration (§7)
// for the given dimensionality: M = 20, m = 8 (40 % of M), p = 6
// (30 % of M), R* split.
func DefaultConfig(dim int) Config {
	return Config{
		Dim:           dim,
		MaxEntries:    20,
		MinEntries:    8,
		ReinsertCount: 6,
		Split:         SplitRStar,
	}
}

// validate reports whether the configuration is structurally sound.
func (c Config) validate() error {
	if c.Dim < 1 {
		return fmt.Errorf("rtree: dimension %d < 1", c.Dim)
	}
	if c.MaxEntries < 2 {
		return fmt.Errorf("rtree: MaxEntries %d < 2", c.MaxEntries)
	}
	if c.MinEntries < 1 || 2*c.MinEntries > c.MaxEntries+1 {
		return fmt.Errorf("rtree: MinEntries %d out of range for MaxEntries %d (need 1 <= m <= (M+1)/2)",
			c.MinEntries, c.MaxEntries)
	}
	if c.ReinsertCount < 0 || c.ReinsertCount > c.MaxEntries-c.MinEntries {
		return fmt.Errorf("rtree: ReinsertCount %d out of range (need 0 <= p <= M-m = %d)",
			c.ReinsertCount, c.MaxEntries-c.MinEntries)
	}
	switch c.Split {
	case SplitRStar, SplitQuadratic, SplitLinear:
	default:
		return fmt.Errorf("rtree: unknown split algorithm %d", int(c.Split))
	}
	if c.SupernodeMaxOverlap < 0 || c.SupernodeMaxOverlap >= 1 {
		return fmt.Errorf("rtree: SupernodeMaxOverlap %v out of range [0, 1)", c.SupernodeMaxOverlap)
	}
	return nil
}

// Item is a stored point with its caller-assigned identifier (the
// <ID, S'> leaf entry of §6 with the feature point standing in for the
// subsequence).
type Item struct {
	Point vec.Vector
	ID    int64
}

// entry is one slot of a node: an MBR plus either a child node
// (internal levels) or an Item (leaves).
type entry struct {
	rect  geom.Rect
	child *node // nil at leaf level
	item  Item  // meaningful only at leaf level
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
	panic("rtree: node not referenced by its parent")
}

// Tree is a dynamic R-tree variant under construction: it is mutated,
// never searched — Freeze it to search.  It is not safe for concurrent
// use.
type Tree struct {
	cfg  Config
	root *node
	size int
	// nodes counts live pages for the page-access cost model.
	nodes int
	// reinsertDone marks levels already force-reinserted during the
	// current insertion (R* "first overflow of the level" rule).
	reinsertDone map[int]bool
	// sample holds every sampleStride-th inserted feature point, the
	// planner's data-distribution statistic; see sampleAdd in stats.go.
	sample       []vec.Vector
	sampleStride int
	sampleTick   int
	// pathScratch is reused by insertEntry to record the chooseSubtree
	// descent, so the MBR-adjust ascent never scans a parent's entries.
	pathScratch []*entry
	// tol is how far a stored coordinate may sit from the one its caller
	// inserted: zero for a tree only ever inserted into, a few float32
	// ulps of the arena's scale for one thawed from an arena (see
	// FlatTree.Thaw), whose entries were rounded when it was frozen.
	// Delete matches within it.
	tol float64
}

// New returns an empty tree with the given configuration.
func New(cfg Config) (*Tree, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Tree{
		cfg:   cfg,
		root:  &node{level: 0},
		nodes: 1,
	}, nil
}

// Config returns the tree's configuration.
func (t *Tree) Config() Config { return t.cfg }

// Len returns the number of stored items.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels (1 for a lone leaf root).
func (t *Tree) Height() int { return t.root.level + 1 }

// NodeCount returns the number of pages (nodes) the tree occupies.
func (t *Tree) NodeCount() int { return t.nodes }

// Bounds returns the MBR of the whole tree and true, or a zero Rect
// and false when the tree is empty.
func (t *Tree) Bounds() (geom.Rect, bool) {
	if t.size == 0 {
		return geom.Rect{}, false
	}
	return t.root.mbr(), true
}

// Insert adds a point with its identifier.  The point is copied; the
// caller may reuse the slice.  Insert panics if the point's dimension
// differs from Config.Dim.
func (t *Tree) Insert(point vec.Vector, id int64) {
	if len(point) != t.cfg.Dim {
		panic(fmt.Sprintf("rtree: inserting %d-dimensional point into %d-dimensional tree",
			len(point), t.cfg.Dim))
	}
	p := point.Clone()
	e := &entry{rect: geom.RectFromPoint(p), item: Item{Point: p, ID: id}}
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
		if t.cfg.Split == SplitRStar && n.level == 1 {
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
