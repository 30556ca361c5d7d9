package rtree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"time"
	"unsafe"

	"scaleshift/internal/binio"
	"scaleshift/internal/geom"
	"scaleshift/internal/vec"
)

// FlatTree is the frozen, pointer-free, array-backed tree, the only form
// that is searched: one contiguous node arena with
// offset-indexed children and structure-of-arrays MBR planes,
// traversed with batched (4-wide unrolled) pruning kernels, that
// (de)serializes as a single verbatim byte blob which can be
// memory-mapped and served zero-copy.
//
// A FlatTree is immutable and safe for concurrent searches: an index
// changes by building another.
//
// Node 0 is the root.  For node i, entries occupy the half-open range
// [starts[i], starts[i+1]) of refs and the values [poff[i], poff[i+1])
// of planes.  refs holds the child node index for internal entries and
// the item ID (as uint64 bits) for leaf entries.  planes holds, per
// node, the entries' extents dimension-major — all L planes (dimension 0
// of every entry, then dimension 1, ...), then all H planes: the layout
// geom.Planes describes — except that a leaf stores each point once, as
// its L rows alone.  What a directory entry's extent is depends on who
// built the arena (dirKind): the MBR of the subtree in an arena frozen
// from somebody's nodes (FlatFromNodes), and in a bulk-loaded one the range of the norms and the
// box of the unit directions beneath it — one row more than the feature
// dimension, the norm's first.
//
// The tree is a filter (the caller's exact check decides), so a plane
// value is a float32: coordinate x is stored as float32(x·2^-e) with one
// exponent e per arena (see quant).  Every value — point coordinate or
// MBR bound — rounds to nearest.  The rounding is monotone, so min and
// max commute with it: an MBR rounded on its own is exactly the MBR of
// the stored points beneath it.
// Searches scale the query into the arena's units instead of widening
// the planes, and return coordinates and distances in the caller's.
type FlatTree struct {
	cfg     Config
	dir     dirKind
	size    int
	height  int
	pages   int // total pages (a supernode spans several)
	maxNode int // largest single-node entry count, for scratch sizing
	q       quant

	meta   []uint64  // per node: level<<32 | pages
	starts []uint64  // len numNodes+1: entry range offsets
	poff   []uint64  // len numNodes+1: plane value offsets
	refs   []uint64  // per entry: child index or item ID bits
	planes []float32 // per node: SoA MBR planes, in arena units

	bounds geom.Rect    // root MBR as stored, in caller units; valid when size > 0
	sample []vec.Vector // planner sample (see CostHints)
	arena  []byte       // backing arena when loaded zero-copy, else nil
	pool   sync.Pool    // *flatScratch, per-search reusable buffers

	buildTile, buildEmit time.Duration // see BuildStages
}

// dirKind is what the directory entries of an arena store, recorded in
// header word 9.  The descent picks its pruning kernel from it; nothing
// else does.  (1 was the rectangle-leaf arena retired in PR 22 and stays
// refused.)
type dirKind uint64

const (
	// dirMBR: an entry is the Cartesian MBR of its subtree, pruned by
	// Theorem 3's slab (or sphere) test.  What FlatFromNodes writes.
	dirMBR dirKind = 0
	// dirCone: an entry is the norm range and the unit-direction box of
	// its subtree, pruned by the cone test.  What BulkLoadFlat writes.
	dirCone dirKind = 2
)

// The values of FlatTree.Directory.
const (
	DirectoryMBR = "MBR"
	DirectoryBox = "direction-box"
)

func (k dirKind) String() string {
	switch k {
	case dirMBR:
		return DirectoryMBR
	case dirCone:
		return DirectoryBox
	}
	return fmt.Sprintf("unknown(%d)", uint64(k))
}

// Directory names what the arena's directory entries store: DirectoryMBR
// for an arena frozen from nodes (or written before bulk loads
// changed shape), DirectoryBox for a bulk-loaded one.
func (f *FlatTree) Directory() string { return f.dir.String() }

// BuildStages returns how long BulkLoadFlat spent tiling (polar columns,
// sorts, extents) and emitting the arena; zero for a tree that was
// frozen or opened.
func (f *FlatTree) BuildStages() (tile, emit time.Duration) { return f.buildTile, f.buildEmit }

// quant is an arena's number format: the coordinate x is stored as
// float32(x·2^-exp).  exp is chosen from the largest coordinate
// magnitude m the arena holds so that m·2^-exp lies in [½, 1): feature
// magnitudes far outside float32's range (1e75, 1e-150) fit, and
// scaling by a power of two is exact.  A stored point p̃ then differs
// from p by at most 2⁻²⁴·|p̃ⱼ| per coordinate where the scaled value is
// a normal float32 and by 2⁻¹⁵⁰·2^exp ≤ 2⁻¹⁴⁹·m where it is subnormal:
// ‖p − p̃‖ ≤ (2⁻²⁴ + 2⁻¹⁴⁹)·m·√dim, the term callers add to the ε they
// search with (point-to-line distance is 1-Lipschitz in the point).
type quant struct {
	exp        int
	scale, inv float64 // 2^exp and 2^-exp
}

// Exponents an arena may carry: both 2^exp and 2^-exp are then exact
// float64s.  Magnitudes beyond them (subnormal, or above 2¹⁰²³) keep the
// nearest one.
const minQuantExp, maxQuantExp = -1021, 1023

func quantExp(e int) quant {
	return quant{exp: e, scale: math.Ldexp(1, e), inv: math.Ldexp(1, -e)}
}

// quantFor returns the format for coordinates of magnitude up to maxAbs.
func quantFor(maxAbs float64) quant {
	_, e := math.Frexp(maxAbs)
	return quantExp(min(max(e, minQuantExp), maxQuantExp))
}

// quantForRect returns the format for coordinates inside r.
func quantForRect(r geom.Rect) quant {
	var m float64
	for j := range r.L {
		m = max(m, math.Abs(r.L[j]), math.Abs(r.H[j]))
	}
	return quantFor(m)
}

// near stores a coordinate rounded to nearest.  Adding zero turns −0
// into +0: stored values that compare equal are equal bit for bit,
// whichever of them a min or max kept.
func (q quant) near(x float64) float32 { return float32(x*q.inv) + 0 }

// wide returns the coordinate a stored value stands for.
func (q quant) wide(v float32) float64 { return float64(v) * q.scale }

// FlatFromNodes freezes a tree somebody else grew into an arena whose
// directory keeps the tree's MBRs (dirMBR): the way a tree built by
// insertion (internal/bench/rstar) becomes searchable.  open describes
// node n — its level (0 for a leaf), the pages it spans (an X-tree
// supernode spans several), the rectangle of every entry (a leaf entry's
// is its point, as a degenerate rectangle) and, per entry, the item
// identifier in a leaf or the child node above one — and the nodes are
// laid out pre-order from root, entries in the order open lists them.
// Every value is rounded on its own (see FlatTree); nothing of the
// caller's is retained but the sample vectors, the planner's statistic
// (CostHints), which neither side mutates.
func FlatFromNodes[N any](cfg Config, root N, sample []vec.Vector, open func(n N) (level, pages int, rects []geom.Rect, ids []int64, children []N)) (*FlatTree, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	f := &FlatTree{cfg: cfg, q: quantExp(0), sample: slices.Clone(sample)}
	level, _, rects, _, _ := open(root)
	f.height = level + 1
	var bounds geom.Rect
	if len(rects) > 0 {
		bounds = geom.Rect{L: rects[0].L.Clone(), H: rects[0].H.Clone()}
		for _, r := range rects[1:] {
			bounds.Extend(r)
		}
		f.q = quantForRect(bounds)
	}
	dim := cfg.Dim

	var walk func(n N) int
	walk = func(n N) int {
		level, pages, rects, ids, children := open(n)
		idx := len(f.meta)
		f.meta = append(f.meta, packMeta(level, pages))
		f.pages += pages
		f.maxNode = max(f.maxNode, len(rects))
		f.starts = append(f.starts, uint64(len(f.refs)))
		f.poff = append(f.poff, uint64(len(f.planes)))
		for j := 0; j < dim; j++ {
			for _, r := range rects {
				f.planes = append(f.planes, f.q.near(r.L[j]))
			}
		}
		if level == 0 {
			f.size += len(ids)
			for _, id := range ids {
				f.refs = append(f.refs, uint64(id))
			}
			return idx
		}
		for j := 0; j < dim; j++ {
			for _, r := range rects {
				f.planes = append(f.planes, f.q.near(r.H[j]))
			}
		}
		// A directory entry's reference is its child's index, known once
		// the walk below has placed the child.
		refBase := len(f.refs)
		f.refs = append(f.refs, make([]uint64, len(children))...)
		for k, c := range children {
			f.refs[refBase+k] = uint64(walk(c))
		}
		return idx
	}
	walk(root)
	f.starts = append(f.starts, uint64(len(f.refs)))
	f.poff = append(f.poff, uint64(len(f.planes)))
	if f.size > 0 {
		f.bounds = f.storedRect(bounds)
	}
	return f, nil
}

// storedRect returns the MBR r as the arena stores it, in caller units.
func (f *FlatTree) storedRect(r geom.Rect) geom.Rect {
	out := geom.Rect{L: make(vec.Vector, len(r.L)), H: make(vec.Vector, len(r.H))}
	for j := range r.L {
		out.L[j], out.H[j] = f.q.wide(f.q.near(r.L[j])), f.q.wide(f.q.near(r.H[j]))
	}
	return out
}

func packMeta(level, pages int) uint64 {
	return uint64(level)<<32 | uint64(pages)&0xffffffff
}

// Config returns the structural configuration the tree was built with.
func (f *FlatTree) Config() Config { return f.cfg }

// Len returns the number of stored items.
func (f *FlatTree) Len() int { return f.size }

// Height returns the number of levels (1 for a lone leaf root).
func (f *FlatTree) Height() int { return f.height }

// NodeCount returns the number of pages the tree occupies.
func (f *FlatTree) NodeCount() int { return f.pages }

// Bounds returns the MBR of the whole tree and true, or a zero Rect
// and false when the tree is empty.  The rectangle is a copy.
func (f *FlatTree) Bounds() (geom.Rect, bool) {
	if f.size == 0 {
		return geom.Rect{}, false
	}
	return geom.Rect{L: f.bounds.L.Clone(), H: f.bounds.H.Clone()}, true
}

// CostHints returns the planner's view of the tree.
func (f *FlatTree) CostHints() CostHints {
	h := CostHints{
		Entries: f.size,
		Nodes:   f.pages,
		Height:  f.height,
		Dim:     f.cfg.Dim,
		Sample:  f.sample,
	}
	if f.size == 0 {
		return h
	}
	var diagSq float64
	volume := 1.0
	for i := range f.bounds.L {
		side := f.bounds.H[i] - f.bounds.L[i]
		diagSq += side * side
		volume *= side
	}
	h.Diameter = math.Sqrt(diagSq)
	h.Volume = volume
	return h
}

// nodeLevel returns the level of node i (0 = leaf).
func (f *FlatTree) nodeLevel(i int) int { return int(f.meta[i] >> 32) }

// nodePages returns the page span of node i.
func (f *FlatTree) nodePages(i int) int { return int(f.meta[i] & 0xffffffff) }

// nodeEntries returns the entry range [s, e) of node i.
func (f *FlatTree) nodeEntries(i int) (s, e int) {
	return int(f.starts[i]), int(f.starts[i+1])
}

// nodePlanes returns the SoA view of node i's entries, in arena units:
// what every kernel and every statistic reads.
func (f *FlatTree) nodePlanes(i int) geom.Planes[float32] {
	s, e := f.nodeEntries(i)
	return geom.Planes[float32]{Data: f.planes[f.poff[i]:f.poff[i+1]], Count: e - s, Dim: f.planeDim(f.nodeLevel(i))}
}

// planeDim returns how many rows an extent of a node at level lvl has: a
// direction-box directory entry carries the norm beside the direction.
func (f *FlatTree) planeDim(lvl int) int {
	if lvl > 0 && f.dir == dirCone {
		return f.cfg.Dim + 1
	}
	return f.cfg.Dim
}

// planeWidth returns how many plane values an entry of a node at level
// lvl occupies: a leaf's point is stored once, a directory extent as two
// bounds.
func (f *FlatTree) planeWidth(lvl int) int {
	if lvl == 0 {
		return f.cfg.Dim
	}
	return 2 * f.planeDim(lvl)
}

// child resolves the entry at index ei of node n to its child node
// index.  The level check makes cycles from a corrupt (unverified)
// arena impossible; together with Go's slice bounds checks it bounds
// the damage of serving an unverified artifact to a panic rather than
// memory corruption or livelock.  Verified artifacts (CRC intact, or
// Validate passed) never trip it.
func (f *FlatTree) child(n, ei int) int {
	ci := int(f.refs[ei])
	if ci <= 0 || ci >= len(f.meta) || f.nodeLevel(ci) != f.nodeLevel(n)-1 {
		panic(fmt.Sprintf("rtree: corrupt flat arena: entry %d of node %d references node %d; verify the artifact before serving", ei, n, ci))
	}
	return ci
}

// Validate runs the full check of the arena — the O(n) counterpart of
// the O(1) checks done at load.  After Validate returns nil, every
// traversal is guaranteed panic-free, and the tree has the one property
// Theorem 3's pruning rests on: every plane value is finite and every
// internal entry's rectangle contains the entries of the child it
// references, so a subtree is never skipped while holding a qualifying
// entry.  It is meant to run with artifact checksum verification, off
// the serving path.
func (f *FlatTree) Validate() error {
	if f.dir != dirMBR && f.dir != dirCone {
		return fmt.Errorf("rtree: flat arena: unknown directory kind %d", uint64(f.dir))
	}
	numNodes := len(f.meta)
	numEntries := len(f.refs)
	if len(f.starts) != numNodes+1 || len(f.poff) != numNodes+1 {
		return fmt.Errorf("rtree: flat arena: %d nodes but %d entry and %d plane offsets", numNodes, len(f.starts), len(f.poff))
	}
	if f.starts[0] != 0 || f.starts[numNodes] != uint64(numEntries) {
		return fmt.Errorf("rtree: flat arena: entry offsets do not span [0, %d]", numEntries)
	}
	if f.poff[0] != 0 || f.poff[numNodes] != uint64(len(f.planes)) {
		return fmt.Errorf("rtree: flat arena: plane offsets do not span [0, %d]", len(f.planes))
	}
	if f.q.exp < minQuantExp || f.q.exp > maxQuantExp {
		return fmt.Errorf("rtree: flat arena: plane exponent %d outside [%d, %d]", f.q.exp, minQuantExp, maxQuantExp)
	}
	if f.nodeLevel(0) != f.height-1 {
		return fmt.Errorf("rtree: flat arena: root level %d but height %d", f.nodeLevel(0), f.height)
	}
	refd := make([]bool, numNodes)
	leafEntries, internalEntries, pages, maxNode := 0, 0, 0, 0
	for i := 0; i < numNodes; i++ {
		if f.starts[i] > f.starts[i+1] || f.starts[i+1] > uint64(numEntries) {
			return fmt.Errorf("rtree: flat arena: node %d entry range [%d, %d) out of order", i, f.starts[i], f.starts[i+1])
		}
		s, e := f.nodeEntries(i)
		c := e - s
		if c > maxNode {
			maxNode = c
		}
		lvl, pg := f.nodeLevel(i), f.nodePages(i)
		if lvl < 0 || lvl >= f.height {
			return fmt.Errorf("rtree: flat arena: node %d level %d outside height %d", i, lvl, f.height)
		}
		if pg < 1 || pg > 1<<16 || c > pg*f.cfg.MaxEntries {
			return fmt.Errorf("rtree: flat arena: implausible node %d (pages=%d, entries=%d)", i, pg, c)
		}
		if f.poff[i+1]-f.poff[i] != uint64(c*f.planeWidth(lvl)) || f.poff[i+1] > uint64(len(f.planes)) {
			return fmt.Errorf("rtree: flat arena: node %d holds %d entries in plane range [%d, %d)", i, c, f.poff[i], f.poff[i+1])
		}
		pages += pg
		if lvl == 0 {
			leafEntries += c
			continue
		}
		if c == 0 {
			return fmt.Errorf("rtree: flat arena: empty internal node %d at level %d", i, lvl)
		}
		internalEntries += c
		for ei := s; ei < e; ei++ {
			ci := int(f.refs[ei])
			if ci <= 0 || ci >= numNodes {
				return fmt.Errorf("rtree: flat arena: node %d references node %d of %d", i, ci, numNodes)
			}
			if f.nodeLevel(ci) != lvl-1 {
				return fmt.Errorf("rtree: flat arena: child %d at level %d under node %d at level %d",
					ci, f.nodeLevel(ci), i, lvl)
			}
			if refd[ci] {
				return fmt.Errorf("rtree: flat arena: node %d referenced twice", ci)
			}
			refd[ci] = true
		}
	}
	if internalEntries != numNodes-1 {
		return fmt.Errorf("rtree: flat arena: %d internal entries for %d nodes", internalEntries, numNodes)
	}
	if leafEntries != f.size {
		return fmt.Errorf("rtree: flat arena: %d leaf entries but size %d", leafEntries, f.size)
	}
	if pages != f.pages {
		return fmt.Errorf("rtree: flat arena: page count %d but %d pages reachable", f.pages, pages)
	}
	if maxNode != f.maxNode {
		return fmt.Errorf("rtree: flat arena: max node size %d but %d recorded", maxNode, f.maxNode)
	}
	// A direction-box descent accepts a subtree as the node range from its
	// child to the next entry's (descend), so such an arena is laid out
	// pre-order, as emitFlat writes it: a node's first child follows it,
	// and every further child starts where its predecessor's subtree ends.
	if f.dir == dirCone {
		end := make([]int, numNodes)
		for i := numNodes - 1; i >= 0; i-- {
			s, e := f.nodeEntries(i)
			end[i] = i + 1
			for ei := s; ei < e && f.nodeLevel(i) > 0; ei++ {
				if ci := int(f.refs[ei]); ci != end[i] {
					return fmt.Errorf("rtree: flat arena: entry %d of node %d references node %d, but the direction-box layout is pre-order and puts that child at node %d", ei, i, ci, end[i])
				}
				end[i] = end[end[i]]
			}
		}
		if end[0] != numNodes {
			return fmt.Errorf("rtree: flat arena: the root's subtree ends at node %d of %d", end[0], numNodes)
		}
	}
	// Every plane value is finite, every extent well-formed (L <= H per
	// row), and every child sits inside the entry referencing it.  The
	// root's entries are checked on their own; every other node's are
	// ordered and inside the extent of the one entry that references the
	// node (the structural pass above found exactly one), which by
	// induction from the root makes them finite too — a NaN fails every
	// comparison.  Under a direction-box directory "inside" means, for a
	// leaf, that the norm and the folded unit direction of every stored
	// point — computed as the bulk loader computes them — lie in the entry's
	// range and box.
	inside := func(pl geom.Planes[float32], j int, lo, hi float32) bool {
		lr, hr := pl.LRow(j), pl.HRow(j)
		ok := true
		for k, l := range lr {
			ok = ok && l >= lo && hr[k] <= hi && l <= hr[k]
		}
		return ok
	}
	sumSq, sinv := make([]float64, maxNode), make([]float64, maxNode)
	root := f.nodePlanes(0)
	for j := 0; j < root.Dim; j++ {
		lo := float32(-math.MaxFloat32)
		if j == 0 && f.dir == dirCone && f.height > 1 {
			lo = 0 // a norm
		}
		if !inside(root, j, lo, math.MaxFloat32) {
			return fmt.Errorf("rtree: flat arena: inverted or non-finite extent in the root (row %d)", j)
		}
	}
	for i := 0; i < numNodes; i++ {
		lvl := f.nodeLevel(i)
		if lvl == 0 {
			continue
		}
		s, _ := f.nodeEntries(i)
		pl := f.nodePlanes(i)
		for k := 0; k < pl.Count; k++ {
			ci := int(f.refs[s+k])
			child := f.nodePlanes(ci)
			if lvl == 1 && f.dir == dirCone {
				if j, ok := polarInside(child, pl, k, sumSq, sinv); !ok {
					return fmt.Errorf("rtree: flat arena: leaf %d holds a point outside the norm range or direction box of entry %d of node %d, which references it (row %d: [%v, %v])",
						ci, s+k, i, j, pl.LRow(j)[k], pl.HRow(j)[k])
				}
				continue
			}
			for j := 0; j < pl.Dim; j++ {
				if lo, hi := pl.LRow(j)[k], pl.HRow(j)[k]; !inside(child, j, lo, hi) {
					return fmt.Errorf("rtree: flat arena: node %d holds an inverted extent or reaches outside entry %d of node %d, which references it (row %d: [%v, %v])",
						ci, s+k, i, j, lo, hi)
				}
			}
		}
	}
	return nil
}

// polarInside reports whether every point of the leaf viewed by pts has
// its norm and folded unit direction inside entry k of the direction-box
// node viewed by pl, and the first row that fails.  sumSq and sinv are
// scratch of at least pts.Count values; the leaf is swept a row at a
// time, as it is stored.
func polarInside(pts, pl geom.Planes[float32], k int, sumSq, sinv []float64) (row int, ok bool) {
	sumSq, sinv = sumSq[:pts.Count], sinv[:pts.Count]
	clear(sumSq)
	for j := 0; j < pts.Dim; j++ {
		for i, v := range pts.LRow(j) {
			sumSq[i] += float64(v) * float64(v)
		}
	}
	rLo, rHi := pl.LRow(0)[k], pl.HRow(0)[k]
	for i, v0 := range pts.LRow(0) {
		var r float32
		if r, sinv[i] = polarOf(sumSq[i], v0); !(r >= rLo && r <= rHi) {
			return 0, false
		}
	}
	for j := 0; j < pts.Dim; j++ {
		lo, hi := pl.LRow(1 + j)[k], pl.HRow(1 + j)[k]
		for i, v := range pts.LRow(j) {
			if u := polarDir(v, sinv[i]); !(u >= lo && u <= hi) {
				return 1 + j, false
			}
		}
	}
	return 0, true
}

// Stats returns per-level geometry statistics, leaves first: of the
// extents the arena stores, so the directory levels of a direction-box
// arena are measured in its (norm, direction) rows.
func (f *FlatTree) Stats() []LevelStats {
	byLevel := make([]*LevelStats, f.height)
	for i := range f.meta {
		lvl := f.nodeLevel(i)
		ls := byLevel[lvl]
		if ls == nil {
			ls = &LevelStats{Level: lvl}
			byLevel[lvl] = ls
		}
		s, e := f.nodeEntries(i)
		ls.Nodes++
		ls.Pages += f.nodePages(i)
		ls.Entries += e - s
		ls.Bytes += 24 + (e-s)*(8+4*f.planeWidth(lvl))
		if e == s {
			continue
		}
		// Ratios of side lengths: the arena's units cancel.
		pl := f.nodePlanes(i)
		minSide, maxSide := math.Inf(1), 0.0
		var outerSq float64
		innerHalf := math.Inf(1)
		for j := 0; j < pl.Dim; j++ {
			lr, hr := pl.LRow(j), pl.HRow(j)
			lo, hi := lr[0], hr[0]
			for k := 1; k < len(lr); k++ {
				if lr[k] < lo {
					lo = lr[k]
				}
				if hr[k] > hi {
					hi = hr[k]
				}
			}
			side := float64(hi) - float64(lo)
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
	out := make([]LevelStats, 0, f.height)
	for lvl := 0; lvl < f.height; lvl++ {
		ls := byLevel[lvl]
		if ls == nil {
			continue
		}
		n := float64(ls.Nodes)
		ls.AvgElongation /= n
		ls.AvgSphereGap /= n
		ls.AvgOccupancy = float64(ls.Entries) / float64(ls.Pages*f.cfg.MaxEntries)
		out = append(out, *ls)
	}
	return out
}

// arenaVersion identifies the arena encoding; bump on layout changes.
// Version 1 — every entry a float64 rectangle, points included, no
// exponent and no plane-offset column — is refused with binio.ErrVersion:
// an arena is derived state, rebuilt from the store.
const arenaVersion = 2

// arenaHeaderWords is the fixed u64 header of an arena blob.
const arenaHeaderWords = 15

// arena sanity bounds: far above any real index, far below anything
// that could drive pathological allocation from a corrupt header.
const (
	maxArenaNodes   = 1 << 32
	maxArenaEntries = 1 << 32
	maxArenaSample  = 1 << 12
)

// arenaHead returns the words of the arena that precede the arrays: the
// 15-word header, the root bounds, and the planner sample behind its
// count.
func (f *FlatTree) arenaHead() []uint64 {
	d := f.cfg.Dim
	head := make([]uint64, 0, arenaHeaderWords+2*d+1+len(f.sample)*d)
	head = append(head,
		arenaVersion,
		uint64(d), uint64(f.cfg.MaxEntries), uint64(f.cfg.MinEntries),
		uint64(f.cfg.ReinsertCount), uint64(f.cfg.Split),
		math.Float64bits(f.cfg.SupernodeMaxOverlap),
		uint64(f.size), uint64(f.height), uint64(f.dir),
		uint64(f.pages), uint64(f.maxNode),
		uint64(len(f.meta)), uint64(len(f.refs)),
		uint64(int64(f.q.exp)),
	)
	for _, side := range []vec.Vector{f.bounds.L, f.bounds.H} {
		for j := 0; j < d; j++ {
			if f.size > 0 {
				head = append(head, math.Float64bits(side[j]))
			} else {
				head = append(head, 0)
			}
		}
	}
	head = append(head, uint64(len(f.sample)))
	for _, p := range f.sample {
		for j := 0; j < d; j++ {
			head = append(head, math.Float64bits(p[j]))
		}
	}
	return head
}

// arenaChunk is how many words WriteArena encodes at a time on a host
// whose memory is not already in arena byte order.
const arenaChunk = 1 << 13

// WriteArena writes the little-endian arena encoding of f to w.  The
// layout is a 15-word header (the last word the plane exponent), the
// root bounds, the planner sample, the meta/starts/poff/refs arrays of
// 8-byte words verbatim, then the planes as 4-byte float32s, zero-padded
// to a whole word: the blob is a multiple of 8 bytes long, and one
// starting at an 8-byte-aligned offset has every array aligned for
// zero-copy reads.  A tree that is a view of an arena — bulk-loaded, or
// opened from one — writes the bytes it holds; one frozen from nodes
// writes its arrays as the byte ranges they are on a little-endian host,
// and encodes them chunk by chunk elsewhere.
func (f *FlatTree) WriteArena(w io.Writer) error {
	if f.arena != nil {
		_, err := w.Write(f.arena)
		return err
	}
	var pad [4]byte
	if hostLittleEndian {
		// A run of words or float32s is its own encoding.
		for _, words := range [][]uint64{f.arenaHead(), f.meta, f.starts, f.poff, f.refs} {
			if _, err := w.Write(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), 8*len(words))); err != nil {
				return err
			}
		}
		if _, err := w.Write(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(f.planes))), 4*len(f.planes))); err != nil {
			return err
		}
	} else {
		buf := make([]byte, 0, 8*arenaChunk)
		for _, words := range [][]uint64{f.arenaHead(), f.meta, f.starts, f.poff, f.refs} {
			for len(words) > 0 {
				c := min(len(words), arenaChunk)
				buf = buf[:0]
				for _, v := range words[:c] {
					buf = binary.LittleEndian.AppendUint64(buf, v)
				}
				if _, err := w.Write(buf); err != nil {
					return err
				}
				words = words[c:]
			}
		}
		for planes := f.planes; len(planes) > 0; {
			c := min(len(planes), 2*arenaChunk)
			buf = buf[:0]
			for _, v := range planes[:c] {
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
			}
			if _, err := w.Write(buf); err != nil {
				return err
			}
			planes = planes[c:]
		}
	}
	_, err := w.Write(pad[:4*(len(f.planes)%2)])
	return err
}

// AppendArena appends the arena encoding of f (see WriteArena) to dst
// and returns the result.
func (f *FlatTree) AppendArena(dst []byte) []byte {
	buf := bytes.NewBuffer(slices.Grow(dst, f.ArenaSize()))
	f.WriteArena(buf) // a bytes.Buffer does not fail
	return buf.Bytes()
}

// ArenaSize returns the exact encoded size of the arena in bytes.
func (f *FlatTree) ArenaSize() int {
	d := f.cfg.Dim
	return 8 * (arenaHeaderWords + 2*d + 1 + len(f.sample)*d +
		len(f.meta) + len(f.starts) + len(f.poff) + len(f.refs) + (len(f.planes)+1)/2)
}

// FlatFromArena decodes an arena blob in O(1): only the header and
// the small bounds/sample blocks are parsed; the big arrays are
// reinterpreted in place when the blob is 8-byte aligned on a
// little-endian host (the zero-copy path) and copied otherwise.  The
// returned tree keeps b alive; callers memory-mapping the blob must
// not unmap it while the tree is in use.
//
// Any other arena version is refused with binio.ErrVersion.
//
// Only length- and range-consistency is checked here.  A blob whose
// checksum has not been verified can still describe a structurally
// corrupt tree; run Validate (or verify the enclosing artifact's CRC)
// before serving queries — see the child accessor for the failure
// mode when neither has run.
func FlatFromArena(b []byte) (*FlatTree, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("rtree: flat arena length %d is not a multiple of 8", len(b))
	}
	if len(b) < 8*arenaHeaderWords {
		return nil, fmt.Errorf("rtree: flat arena header truncated (%d bytes)", len(b))
	}
	word := func(i int) uint64 { return binary.LittleEndian.Uint64(b[8*i:]) }
	if version := word(0); version != arenaVersion {
		return nil, fmt.Errorf("rtree: unsupported flat arena version %d (version %d is read; rebuild the index): %w", version, arenaVersion, binio.ErrVersion)
	}
	f := &FlatTree{
		cfg: Config{
			Dim:                 int(word(1)),
			MaxEntries:          int(word(2)),
			MinEntries:          int(word(3)),
			ReinsertCount:       int(word(4)),
			Split:               SplitAlgorithm(word(5)),
			SupernodeMaxOverlap: math.Float64frombits(word(6)),
		},
		size:    int(word(7)),
		height:  int(word(8)),
		pages:   int(word(10)),
		maxNode: int(word(11)),
		q:       quantExp(0),
	}
	// Word 9 is the directory kind.  It said what a leaf entry was while
	// rectangle (sub-trail MBR) leaves existed — 0 for points, 1 for
	// rectangles — which is why the direction-box directory is 2: an arena
	// of the retired kind, or of a kind a later build writes, is one this
	// code cannot read, and says so before any plane is touched.
	switch f.dir = dirKind(word(9)); {
	case f.dir == 1:
		return nil, fmt.Errorf("rtree: unsupported leaf kind 1 in flat arena header word 9 (a rectangle-leaf arena; only point leaves are read; rebuild the index): %w", binio.ErrVersion)
	case f.dir != dirMBR && f.dir != dirCone:
		return nil, fmt.Errorf("rtree: unsupported directory kind %d in flat arena header word 9 (0, MBRs, and 2, direction boxes, are read; rebuild the index): %w", uint64(f.dir), binio.ErrVersion)
	}
	if word(1) > 1<<16 || word(2) > 1<<20 {
		return nil, fmt.Errorf("rtree: implausible flat config (dim=%d, M=%d)", word(1), word(2))
	}
	if err := f.cfg.validate(); err != nil {
		return nil, err
	}
	numNodes, numEntries := word(12), word(13)
	if numNodes < 1 || numNodes > maxArenaNodes || numEntries > maxArenaEntries {
		return nil, fmt.Errorf("rtree: implausible flat arena (%d nodes, %d entries)", numNodes, numEntries)
	}
	if f.size < 0 || uint64(f.size) > numEntries {
		return nil, fmt.Errorf("rtree: flat arena size %d exceeds %d entries", f.size, numEntries)
	}
	if f.height < 1 || uint64(f.height) > numNodes {
		return nil, fmt.Errorf("rtree: implausible flat height %d for %d nodes", f.height, numNodes)
	}
	if f.maxNode < 0 || uint64(f.maxNode) > numEntries || f.pages < int(numNodes) {
		return nil, fmt.Errorf("rtree: implausible flat arena counters (maxNode=%d, pages=%d)", f.maxNode, f.pages)
	}
	d := uint64(f.cfg.Dim)
	off := uint64(arenaHeaderWords)
	e := int64(word(arenaHeaderWords - 1))
	if e < minQuantExp || e > maxQuantExp {
		return nil, fmt.Errorf("rtree: flat arena plane exponent %d outside [%d, %d]", e, minQuantExp, maxQuantExp)
	}
	f.q = quantExp(int(e))

	// Bounds block.
	if uint64(len(b))/8 < off+2*d+1 {
		return nil, fmt.Errorf("rtree: flat arena bounds truncated")
	}
	if f.size > 0 {
		lo := make(vec.Vector, d)
		hi := make(vec.Vector, d)
		for j := uint64(0); j < d; j++ {
			lo[j] = math.Float64frombits(word(int(off + j)))
			hi[j] = math.Float64frombits(word(int(off + d + j)))
		}
		f.bounds = geom.Rect{L: lo, H: hi}
	}
	off += 2 * d

	// Sample block.
	sampleCount := word(int(off))
	off++
	if sampleCount > maxArenaSample {
		return nil, fmt.Errorf("rtree: implausible flat sample count %d", sampleCount)
	}
	// A leaf entry is d plane values wide and every other entry an extent
	// of two bounds per row (planeWidth).
	numPlanes := d*uint64(f.size) + uint64(f.planeWidth(1))*(numEntries-uint64(f.size))
	planeWords := (numPlanes+1)/2 + numNodes + 1 // with the poff column
	need := off + sampleCount*d + numNodes + (numNodes + 1) + numEntries + planeWords
	if uint64(len(b)) != 8*need {
		return nil, fmt.Errorf("rtree: flat arena is %d bytes, layout requires %d", len(b), 8*need)
	}
	if sampleCount > 0 {
		f.sample = make([]vec.Vector, sampleCount)
		for i := range f.sample {
			p := make(vec.Vector, d)
			for j := uint64(0); j < d; j++ {
				p[j] = math.Float64frombits(word(int(off + uint64(i)*d + j)))
			}
			f.sample[i] = p
		}
	}
	off += sampleCount * d

	f.meta = u64View(b[8*off:], int(numNodes))
	off += numNodes
	f.starts = u64View(b[8*off:], int(numNodes+1))
	off += numNodes + 1
	f.poff = u64View(b[8*off:], int(numNodes+1))
	off += numNodes + 1
	f.refs = u64View(b[8*off:], int(numEntries))
	off += numEntries
	f.planes = f32View(b[8*off:], int(numPlanes))
	f.arena = b
	return f, nil
}

// hostLittleEndian reports whether uint64 loads read little-endian
// bytes on this machine — the precondition for the zero-copy views.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// u64View reinterprets the first 8*n bytes of b as a []uint64,
// zero-copy when aligned on a little-endian host, copying otherwise.
func u64View(b []byte, n int) []uint64 {
	if n == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(unsafe.SliceData(b)))%8 == 0 {
		return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(b))), n)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return out
}

// f32View reinterprets the first 4*n bytes of b as a []float32,
// zero-copy when aligned on a little-endian host, copying otherwise.
func f32View(b []byte, n int) []float32 {
	if n == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(unsafe.SliceData(b)))%4 == 0 {
		return unsafe.Slice((*float32)(unsafe.Pointer(unsafe.SliceData(b))), n)
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}
