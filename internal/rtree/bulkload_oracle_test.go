package rtree

import (
	"math"
	"sort"

	"scaleshift/internal/geom"
	"scaleshift/internal/vec"
)

// The reference BulkLoadFlat is tested against: the same tiling and the
// same directory written the obvious way — one heap entry per point and
// per node, every sort a sort.SliceStable on the float32 key, the
// extents folded bottom-up, the arena appended node by node, pre-order.
// Nothing is shared with the loader but the arena's number format
// (quant) and its writer.

// refEntry is a point (child nil) or a node, with its polar extent: row
// 0 the norm range, rows 1… the direction box.
type refEntry struct {
	id     int64
	point  vec.Vector // exact
	child  *refNode
	lo, hi []float32
}

type refNode struct {
	level   int
	entries []*refEntry
}

// refKey is the tiling key of e along row k: the centre of its extent (a
// point's extent, before the outward step, is its key).
func (e *refEntry) refKey(k int) float32 {
	return float32((float64(e.lo[k])+float64(e.hi[k]))/2) + 0
}

// refPoint is the leaf entry of p: its stored coordinates' norm and
// folded unit direction, each rounded to nearest.
func refPoint(q quant, p vec.Vector, id int64) *refEntry {
	var sumSq float64
	for _, x := range p {
		sumSq += float64(q.near(x)) * float64(q.near(x))
	}
	norm := math.Sqrt(sumSq)
	inv := 0.0
	if norm != 0 {
		inv = math.Copysign(1/norm, float64(q.near(p[0])))
	}
	e := &refEntry{id: id, point: p, lo: []float32{float32(norm)}}
	for _, x := range p {
		e.lo = append(e.lo, float32(float64(q.near(x))*inv)+0)
	}
	e.hi = e.lo
	return e
}

// refTile cuts es into groups of at most c and, where it can, at least m:
// stable sort on key depth mod keys, slabs doubling from c along the norm
// and ⌈√groups⌉ equal ones along a direction, recursion on the next key,
// and the trailing-group rebalance.
func refTile(es []*refEntry, c, m, depth int) [][]*refEntry {
	if len(es) <= c {
		return [][]*refEntry{es}
	}
	key := depth % len(es[0].lo)
	sort.SliceStable(es, func(i, j int) bool { return es[i].refKey(key) < es[j].refKey(key) })
	var out [][]*refEntry
	if key == 0 {
		for size := c; len(es) > 0; size *= 2 {
			k := min(size, len(es))
			out = append(out, refTile(es[:k], c, m, depth+1)...)
			es = es[k:]
		}
	} else {
		groups := (len(es) + c - 1) / c
		slabs := int(math.Ceil(math.Sqrt(float64(groups))))
		perSlab := (len(es) + slabs - 1) / slabs
		if r := perSlab % c; r != 0 && perSlab > c {
			perSlab += c - r
		}
		for len(es) > 0 {
			k := min(perSlab, len(es))
			out = append(out, refTile(es[:k], c, m, depth+1)...)
			es = es[k:]
		}
	}
	for i := 1; i < len(out); i++ {
		if len(out[i]) >= m {
			continue
		}
		merged := append(append([]*refEntry(nil), out[i-1]...), out[i]...)
		if half := len(merged) / 2; half >= m {
			out[i-1], out[i] = merged[:half], merged[half:]
			continue
		}
		out[i-1] = merged
		out = append(out[:i], out[i+1:]...)
		i--
	}
	return out
}

// refBulkLoad builds the reference tree's arena.
func refBulkLoad(cfg Config, items []Item) *FlatTree {
	f := &FlatTree{cfg: cfg, size: len(items), q: quantExp(0)}
	bounds := geom.Rect{L: make(vec.Vector, cfg.Dim), H: make(vec.Vector, cfg.Dim)}
	for j := 0; j < cfg.Dim && len(items) > 0; j++ {
		bounds.L[j], bounds.H[j] = items[0].Point[j], items[0].Point[j]
		for _, it := range items {
			bounds.L[j], bounds.H[j] = min(bounds.L[j], it.Point[j]), max(bounds.H[j], it.Point[j])
		}
	}
	if len(items) > 0 {
		f.q = quantForRect(bounds)
		f.bounds = f.storedRect(bounds)
	}
	c := max(int(bulkFill*float64(cfg.MaxEntries)), cfg.MinEntries)
	es := make([]*refEntry, len(items))
	for i, it := range items {
		es[i] = refPoint(f.q, it.Point, it.ID)
	}
	level := 0
	for ; len(es) > cfg.MaxEntries; level++ {
		var parents []*refEntry
		for _, g := range refTile(es, c, cfg.MinEntries, 0) {
			p := &refEntry{child: &refNode{level: level, entries: append([]*refEntry(nil), g...)}}
			for k := range g[0].lo {
				lo, hi := g[0].lo[k], g[0].hi[k]
				for _, e := range g {
					lo, hi = min(lo, e.lo[k]), max(hi, e.hi[k])
				}
				if level == 0 { // the keys of points, stepped outward
					lo, hi = below32(lo), above32(hi)
					if k == 0 {
						lo = max(lo, 0)
					}
				}
				p.lo, p.hi = append(p.lo, lo), append(p.hi, hi)
			}
			parents = append(parents, p)
		}
		es = parents
	}
	f.height = level + 1

	var walk func(n *refNode) int
	walk = func(n *refNode) int {
		idx := len(f.meta)
		f.meta = append(f.meta, packMeta(n.level, 1))
		f.pages++
		f.maxNode = max(f.maxNode, len(n.entries))
		f.starts = append(f.starts, uint64(len(f.refs)))
		f.poff = append(f.poff, uint64(len(f.planes)))
		base := len(f.refs)
		for _, e := range n.entries {
			f.refs = append(f.refs, uint64(e.id))
		}
		if n.level == 0 {
			for j := 0; j < cfg.Dim; j++ {
				for _, e := range n.entries {
					f.planes = append(f.planes, f.q.near(e.point[j]))
				}
			}
			return idx
		}
		for _, side := range []func(*refEntry) []float32{func(e *refEntry) []float32 { return e.lo }, func(e *refEntry) []float32 { return e.hi }} {
			for k := 0; k <= cfg.Dim; k++ {
				for _, e := range n.entries {
					f.planes = append(f.planes, side(e)[k])
				}
			}
		}
		for k, e := range n.entries {
			f.refs[base+k] = uint64(walk(e.child))
		}
		return idx
	}
	walk(&refNode{level: level, entries: es})
	f.starts = append(f.starts, uint64(len(f.refs)))
	f.poff = append(f.poff, uint64(len(f.planes)))
	return f
}
