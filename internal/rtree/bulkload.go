package rtree

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"scaleshift/internal/geom"
	"scaleshift/internal/vec"
)

// bulkFill is the target node occupancy of a bulk-loaded tree: packing
// nodes completely would make the very next insert split every node on
// the path, so a standard ~85 % fill leaves headroom.
const bulkFill = 0.85

// parallelSortCutoff is the range length below which a tiling pass runs
// on the calling goroutine: handing out slabs costs more than tiling
// them.
const parallelSortCutoff = 1 << 12

// radixCutoff is the range length from which a tiling pass sorts its
// packed keys by byte radix instead of by comparison.
const radixCutoff = 1 << 10

// BulkLoadFlat builds a frozen tree over n points, tiled and summarised
// the way a query reads it.  Every query line passes through the origin,
// so what decides whether a subtree can hold a match is how far from the
// origin its points lie and in which directions: the loader packs the
// points by Sort-Tile-Recursive (Leutenegger et al.) on the polar keys
// of a point — its norm ‖p‖, then the coordinates of its unit
// direction û = ±p/‖p‖, the sign folded so that û₀ ≥ 0 (a line does not
// tell p from −p) — and records for every directory entry the range of
// the norms and the box of the directions beneath it, which the descent
// prunes with the cone test of geom.ConeBatch.  Point i has identifier
// ids[i] and coordinate j at cols[j·n+i] — the columnar layout feature
// extraction fills; neither slice is retained.
//
// The norm key is cut into slabs that double in size from the low-norm
// end — one node's fill, then two, four, … and the remainder — because
// the points near the origin are the ones every line comes close to: the
// angle a subtree can be refused at is asin(ε/r_lo), so the low shells
// must be thin where equal-count slabs would put one tiny-norm point
// into every leaf of the first slab.  The direction keys are cut into
// ⌈√groups⌉ slabs each, and the levels above tile the same way on the
// centres of their entries' ranges and boxes.  A side effect the
// planner's later steps rest on: the windows nearest the origin are a
// prefix of leaf order.
//
// Nothing is built per point: the polar keys are a norm and a signed
// reciprocal per point (polarColumns), a direction coordinate is one
// multiply when a pass needs it, every sort is over packed 8-byte keys,
// each level's extents are two columnar arrays, and the nodes are
// written pre-order into one exactly sized buffer in the arena layout of
// AppendArena, of which the returned tree is a view.  A built tree and a
// tree mapped from an artifact are therefore the same thing, and writing
// the artifact is a copy of bytes already held.
//
// The keys, ranges and boxes are those of the STORED points — each
// coordinate rounded to the arena's float32 (see FlatTree) — so what the
// directory promises is true of what the leaves hold; a range or box
// bound is the extreme key beneath it stepped one float32 outward, which
// covers the float64 rounding of the norm and the division with room to
// spare (DESIGN §5).
//
// The tree does not depend on workers (values < 2 mean sequential):
// every sort orders on the key and then on the position before the sort,
// a total order, so any sorting method and any division of the work
// produce the same permutation — the one a stable sort by key gives.
// Keys compare as float32s (−0 is +0); NaN keys sort first.
func BulkLoadFlat(cfg Config, ids []int64, cols []float64, workers int) (*FlatTree, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n, dim := len(ids), cfg.Dim
	if len(cols) != n*dim {
		return nil, fmt.Errorf("rtree: bulk load of %d points in %d dimensions needs %d coordinates, got %d", n, dim, n*dim, len(cols))
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("rtree: bulk load of %d points exceeds the %d a tree addresses", n, math.MaxInt32)
	}
	if workers < 1 {
		workers = 1
	}
	capacity := int(bulkFill * float64(cfg.MaxEntries))
	if capacity < cfg.MinEntries {
		capacity = cfg.MinEntries
	}
	start := time.Now()

	bounds := columnBounds(cols, n, dim, workers)
	q := quantExp(0)
	if n > 0 {
		q = quantForRect(bounds)
	}
	pts := polarColumns(q, cols, n, dim, workers)

	// The cascade, leaves first: levels[l] groups the entries of level l
	// (the points for l = 0, the nodes of level l−1 above) into nodes.
	// The last level is the root: one group over whatever is left, in
	// the order the level below produced it.
	var levels []bulkLevel
	t := tiler{c: capacity, m: cfg.MinEntries, keys: dim + 1, workers: workers, pts: pts}
	entries := n
	for entries > cfg.MaxEntries {
		lv := t.tile(entries)
		lv.extents(&t)
		levels = append(levels, lv)
		entries = lv.nodes()
		t.pts, t.lo, t.hi = nil, lv.lo, lv.hi
	}
	levels = append(levels, bulkLevel{perm: identity(entries), starts: []int32{0, int32(entries)}})
	tiled := time.Now()

	f := emitFlat(cfg, q, bounds, ids, cols, levels)
	f.buildTile, f.buildEmit = tiled.Sub(start), time.Since(tiled)
	return f, nil
}

// columnBounds returns the exact minimum and maximum of every column,
// folding in order with strict comparisons: the root MBR.
func columnBounds(cols []float64, n, dim, workers int) geom.Rect {
	r := geom.Rect{L: make(vec.Vector, dim), H: make(vec.Vector, dim)}
	if n == 0 {
		return r
	}
	var wg sync.WaitGroup
	for g := 0; g < min(workers, dim); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := g; j < dim; j += workers {
				col := cols[j*n : (j+1)*n]
				mn, mx := col[0], col[0]
				for _, x := range col[1:] {
					if x < mn {
						mn = x
					}
					if x > mx {
						mx = x
					}
				}
				r.L[j], r.H[j] = mn, mx
			}
		}(g)
	}
	wg.Wait()
	return r
}

// polar holds the polar form of the stored points: what the leaf level
// tiles on and summarises.  Point e has norm r[e] (rounded to nearest)
// and direction coordinate j equal to its stored coordinate times
// sinv[e], the reciprocal of the norm carrying the sign of the fold
// (û₀ ≥ 0; zero for the zero point, whose direction is then zero).
type polar struct {
	q    quant
	cols []float64
	n    int
	r    []float32
	sinv []float64
}

// dir returns û_j of point e, its coordinate j read from col.
func (p *polar) dir(col []float64, e int32) float32 {
	return polarDir(p.q.near(col[e]), p.sinv[e])
}

// polarOf returns the norm of a stored point, rounded to nearest, and
// the signed reciprocal that turns its coordinates into the folded unit
// direction, from the sum of its squared coordinates and its coordinate
// 0.  The loader and Validate share it, so they agree to the bit.
func polarOf(sumSq float64, v0 float32) (r float32, sinv float64) {
	norm := math.Sqrt(sumSq)
	switch {
	case norm == 0:
	case v0 < 0:
		sinv = -1 / norm
	default:
		sinv = 1 / norm
	}
	return float32(norm), sinv
}

// polarDir returns one coordinate of the folded unit direction as the
// float32 every pass sees (−0 as +0).
func polarDir(v float32, sinv float64) float32 { return float32(float64(v)*sinv) + 0 }

func polarColumns(q quant, cols []float64, n, dim, workers int) *polar {
	p := &polar{q: q, cols: cols, n: n, r: make([]float32, n), sinv: make([]float64, n)}
	fill := func(from, to int) {
		for i := from; i < to; i++ {
			var s float64
			for j := 0; j < dim; j++ {
				v := float64(q.near(cols[j*n+i]))
				s += v * v
			}
			p.r[i], p.sinv[i] = polarOf(s, q.near(cols[i]))
		}
	}
	inRanges(n, n, workers, fill)
	return p
}

// inRanges runs do over [0, k) — as one range, or, when the level has
// enough entries to be worth it, cut into one range per worker.
func inRanges(k, entries, workers int, do func(from, to int)) {
	if workers < 2 || entries < parallelSortCutoff {
		do(0, k)
		return
	}
	var wg sync.WaitGroup
	per := (k + workers - 1) / workers
	for from := 0; from < k; from += per {
		wg.Add(1)
		go func(from, to int) {
			defer wg.Done()
			do(from, to)
		}(from, min(from+per, k))
	}
	wg.Wait()
}

// bulkLevel is one level of the cascade: a permutation of the level's
// entries and the offsets cutting it into consecutive runs, one per
// node, plus — once extents has run — what the directory stores about
// each node, as columns of stride nodes(): row 0 the norm range, rows
// 1…dim the direction box, already stepped outward.
type bulkLevel struct {
	perm   []int32
	starts []int32 // len nodes()+1
	lo, hi []float32
}

func (lv *bulkLevel) nodes() int { return len(lv.starts) - 1 }

func identity(n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	return p
}

// below32 and above32 step a bound one float32 outward.
func below32(x float32) float32 { return math.Nextafter32(x, float32(math.Inf(-1))) }
func above32(x float32) float32 { return math.Nextafter32(x, float32(math.Inf(1))) }

// extents computes every node's norm range and direction box from the
// entries t tiled: the leaf level folds the keys of its points and steps
// the result outward, the levels above fold the stored extents of their
// children.  Folds run in entry order with strict comparisons.
func (lv *bulkLevel) extents(t *tiler) {
	k, keys := lv.nodes(), t.keys
	lv.lo, lv.hi = make([]float32, k*keys), make([]float32, k*keys)
	inRanges(k, t.entries, t.workers, func(from, to int) {
		for g := from; g < to; g++ {
			run := lv.perm[lv.starts[g]:lv.starts[g+1]]
			for j := 0; j < keys; j++ {
				var mn, mx float32
				switch {
				case t.pts == nil:
					l, h := t.lo[j*t.entries:(j+1)*t.entries], t.hi[j*t.entries:(j+1)*t.entries]
					mn, mx = l[run[0]], h[run[0]]
					for _, e := range run[1:] {
						if l[e] < mn {
							mn = l[e]
						}
						if h[e] > mx {
							mx = h[e]
						}
					}
				case j == 0:
					mn, mx = t.pts.r[run[0]], t.pts.r[run[0]]
					for _, e := range run[1:] {
						if x := t.pts.r[e]; x < mn {
							mn = x
						} else if x > mx {
							mx = x
						}
					}
					mn, mx = max(below32(mn), 0), above32(mx)
				default:
					col := t.pts.cols[(j-1)*t.pts.n : j*t.pts.n]
					mn = t.pts.dir(col, run[0])
					mx = mn
					for _, e := range run[1:] {
						if x := t.pts.dir(col, e); x < mn {
							mn = x
						} else if x > mx {
							mx = x
						}
					}
					mn, mx = below32(mn), above32(mx)
				}
				lv.lo[j*k+g], lv.hi[j*k+g] = mn, mx
			}
		}
	})
}

// tiler runs the sort-tile recursion of one level.  Every range of the
// permutation owns the same range of the scratch arrays, so disjoint
// ranges tile concurrently without sharing anything.
type tiler struct {
	c, m, keys int
	workers    int

	// The level's entries: the points (pts) for the leaf level, the
	// extents of the level below (columns of stride entries) above it.
	pts     *polar
	lo, hi  []float32
	entries int

	perm       []int32
	pairs, buf []uint64 // sort elements and their scratch
	sizes      []int32  // group sizes: a range's groups start at its offset
}

// tile partitions the entries into groups of at most c (and, past the
// first, at least m) by recursive sort-tile, cycling through the keys
// from the norm.
func (t *tiler) tile(entries int) bulkLevel {
	t.entries = entries
	t.perm = identity(entries)
	if cap(t.pairs) < entries { // the leaf level sizes them for the rest
		t.pairs, t.buf = make([]uint64, entries), make([]uint64, entries)
		t.sizes = make([]int32, entries)
	}
	k := t.strTile(0, entries, 0, t.workers)
	starts := make([]int32, k+1)
	for g, s := range t.sizes[:k] {
		starts[g+1] = starts[g] + s
	}
	return bulkLevel{perm: t.perm, starts: starts}
}

// slab returns the bounds of slab i of perm[from:to]: perSlab entries
// each, or — perSlab 0, the norm key — c·2^i of them, the slabs doubling
// from the low end and the last taking what is left.
func (t *tiler) slab(from, to, perSlab, i int) (start, end int) {
	if perSlab == 0 {
		return from + t.c*(1<<i-1), min(from+t.c*(1<<(i+1)-1), to)
	}
	return from + i*perSlab, min(from+(i+1)*perSlab, to)
}

// strTile tiles perm[from:to], writes the group sizes to
// sizes[from:from+k] and returns k.  Groups are consecutive runs of the
// permuted range.  With workers > 1 the slabs of a direction key are
// shared out, the recursion below each sequential; the few, unequal
// slabs of the norm key are tiled one after the other, each with all the
// workers.
func (t *tiler) strTile(from, to, depth, workers int) int {
	n := to - from
	if n <= t.c {
		t.sizes[from] = int32(n)
		return 1
	}
	if n < parallelSortCutoff {
		workers = 1
	}
	key := depth % t.keys
	t.sortRange(from, to, key)
	groups := (n + t.c - 1) / t.c
	perSlab, nSlabs := 0, 1
	if key == 0 {
		for t.c*(1<<nSlabs-1) < n {
			nSlabs++
		}
	} else {
		slabs := 1
		for slabs*slabs < groups { // ceil(sqrt) is enough when cycling keys
			slabs++
		}
		perSlab = (n + slabs - 1) / slabs
		// Keep each slab a multiple-ish of c so downstream groups fill.
		if r := perSlab % t.c; r != 0 && perSlab > t.c {
			perSlab += t.c - r
		}
		nSlabs = (n + perSlab - 1) / perSlab
	}

	// Each slab leaves its sizes at its own offset; gathering them to
	// the front of the range in slab order only ever moves them left.
	var counts []int32
	below := workers
	if workers > 1 && key != 0 {
		counts = t.tileSlabs(from, to, perSlab, nSlabs, depth+1, workers)
		below = 1
	}
	k := 0
	for si := 0; si < nSlabs; si++ {
		start, end := t.slab(from, to, perSlab, si)
		var count int
		if counts != nil {
			count = int(counts[si])
		} else {
			count = t.strTile(start, end, depth+1, below)
		}
		copy(t.sizes[from+k:], t.sizes[start:start+count])
		k += count
	}

	// Rebalance any underfull group against its predecessor: the two
	// runs are adjacent, so merging or re-cutting them moves a boundary.
	out := t.sizes[from : from+k]
	w := 0
	for _, s := range out[1:] {
		if int(s) >= t.m {
			w++
			out[w] = s
			continue
		}
		merged := out[w] + s
		half := merged / 2
		if int(half) < t.m {
			// Merge outright: half < m means merged < 2m <= M+1, so the
			// combined group still fits in one node.
			out[w] = merged
			continue
		}
		out[w] = half
		w++
		out[w] = merged - half
	}
	return w + 1
}

// tileSlabs tiles the nSlabs slabs of perm[from:to] on workers
// goroutines, each taking the next untiled slab, and returns the slabs'
// group counts.
func (t *tiler) tileSlabs(from, to, perSlab, nSlabs, depth, workers int) []int32 {
	counts := make([]int32, nSlabs)
	var next atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < min(workers, nSlabs); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for si := int(next.Add(1)) - 1; si < nSlabs; si = int(next.Add(1)) - 1 {
				start, end := t.slab(from, to, perSlab, si)
				counts[si] = int32(t.strTile(start, end, depth, 1))
			}
		}()
	}
	wg.Wait()
	return counts
}

// packKey is one sort element: the order-preserving image of a float32
// key above the entry's position in the range before the sort, so that
// comparing two elements as integers compares (key, position).
func packKey(key float32, pos int) uint64 {
	b := math.Float32bits(key + 0) // −0 sorts as +0
	switch {
	case key != key:
		b = 0
	case b>>31 != 0:
		b = ^b
	default:
		b |= 1 << 31
	}
	return uint64(b)<<32 | uint64(pos)
}

// sortRange orders perm[from:to] by the entries' key, ties by current
// position.
func (t *tiler) sortRange(from, to, key int) {
	perm, pairs := t.perm[from:to], t.pairs[from:to]
	switch {
	case t.pts == nil:
		lo, hi := t.lo[key*t.entries:(key+1)*t.entries], t.hi[key*t.entries:(key+1)*t.entries]
		for i, e := range perm {
			pairs[i] = packKey(float32((float64(lo[e])+float64(hi[e]))/2), i)
		}
	case key == 0:
		for i, e := range perm {
			pairs[i] = packKey(t.pts.r[e], i)
		}
	default:
		col := t.pts.cols[(key-1)*t.pts.n : key*t.pts.n]
		for i, e := range perm {
			pairs[i] = packKey(t.pts.dir(col, e), i)
		}
	}
	buf := t.buf[from:to]
	if len(pairs) < radixCutoff {
		slices.Sort(pairs)
	} else {
		radixSortKeys(pairs, buf)
	}
	for i, p := range pairs {
		buf[i] = uint64(perm[uint32(p)])
	}
	for i, e := range buf {
		perm[i] = int32(e)
	}
}

// radixSortKeys sorts a by its upper 32 bits, one byte a pass from the
// lowest, through the scratch b.  Each pass is stable and a's lower
// halves arrive ascending, so equal keys stay in position order.
func radixSortKeys(a, b []uint64) {
	var hist [4][256]int
	for _, v := range a {
		hist[0][byte(v>>32)]++
		hist[1][byte(v>>40)]++
		hist[2][byte(v>>48)]++
		hist[3][byte(v>>56)]++
	}
	src, dst := a, b
	for p := range hist {
		h, shift := &hist[p], 32+8*p
		if h[byte(src[0]>>shift)] == len(a) {
			continue // every key shares this byte
		}
		sum := 0
		for i, c := range h {
			h[i], sum = sum, sum+c
		}
		for _, v := range src {
			d := byte(v >> shift)
			dst[h[d]] = v
			h[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}

// emitFlat lays the cascade out as a frozen tree: nodes pre-order from
// the root, each node's entries in its group's order — a leaf's points
// as rows of stored coordinates, a directory node's entries as the norm
// ranges and direction boxes extents computed — in one buffer in arena
// layout.  On a little-endian host that buffer is the arena verbatim.
// The planner sample keeps the exact points.
func emitFlat(cfg Config, q quant, bounds geom.Rect, ids []int64, cols []float64, levels []bulkLevel) *FlatTree {
	n, dim := len(ids), cfg.Dim
	numNodes, numEntries := 0, n
	for _, lv := range levels {
		numNodes += lv.nodes()
	}
	numEntries += numNodes - 1
	f := &FlatTree{
		cfg:    cfg,
		dir:    dirCone,
		size:   n,
		height: len(levels),
		pages:  numNodes,
		q:      q,
	}
	numPlanes := dim*n + f.planeWidth(1)*(numNodes-1)
	stride, sampleCount := 1+n/sampleCap, 0
	if n > 0 {
		sampleCount = (n + stride - 1) / stride
	}

	head := arenaHeaderWords + 2*dim + 1 + sampleCount*dim
	words := make([]uint64, head+numNodes+2*(numNodes+1)+numEntries+(numPlanes+1)/2)
	off := head
	f.meta, off = words[off:off+numNodes], off+numNodes
	f.starts, off = words[off:off+numNodes+1], off+numNodes+1
	f.poff, off = words[off:off+numNodes+1], off+numNodes+1
	f.refs, off = words[off:off+numEntries], off+numEntries
	if numPlanes > 0 {
		f.planes = unsafe.Slice((*float32)(unsafe.Pointer(&words[off])), numPlanes)
	}
	sample := unsafe.Slice((*float64)(unsafe.Pointer(&words[head-sampleCount*dim])), sampleCount*dim)
	f.sample = make([]vec.Vector, sampleCount)
	for i := range f.sample {
		f.sample[i] = sample[i*dim : (i+1)*dim : (i+1)*dim]
	}

	nextNode, nextEntry, nextPlane, tick := 0, 0, 0, 0
	var emit func(l int, g int32) int
	emit = func(l int, g int32) int {
		lv := &levels[l]
		run := lv.perm[lv.starts[g]:lv.starts[g+1]]
		idx, s, c := nextNode, nextEntry, len(run)
		planes := f.planes[nextPlane : nextPlane+c*f.planeWidth(l)]
		nextNode++
		nextEntry += c
		nextPlane += len(planes)
		f.meta[idx] = packMeta(l, 1)
		f.starts[idx] = uint64(s)
		f.poff[idx+1] = uint64(nextPlane)
		f.maxNode = max(f.maxNode, c)
		if l == 0 {
			for j := 0; j < dim; j++ {
				col, row := cols[j*n:(j+1)*n], planes[j*c:(j+1)*c]
				for k, e := range run {
					row[k] = q.near(col[e])
				}
			}
			for k, e := range run {
				f.refs[s+k] = uint64(ids[e])
				if tick%stride == 0 {
					for j, p := 0, f.sample[tick/stride]; j < dim; j++ {
						p[j] = cols[j*n+int(e)]
					}
				}
				tick++
			}
			return idx
		}
		below := &levels[l-1]
		kb, keys := below.nodes(), dim+1
		for j := 0; j < keys; j++ {
			lcol, hcol := below.lo[j*kb:(j+1)*kb], below.hi[j*kb:(j+1)*kb]
			lrow, hrow := planes[j*c:(j+1)*c], planes[(keys+j)*c:(keys+j+1)*c]
			for k, e := range run {
				lrow[k], hrow[k] = lcol[e], hcol[e]
			}
		}
		for k, e := range run {
			f.refs[s+k] = uint64(emit(l-1, e))
		}
		return idx
	}
	emit(len(levels)-1, 0)
	f.starts[numNodes] = uint64(numEntries)

	if n > 0 {
		f.bounds = f.storedRect(bounds)
	}
	copy(words, f.arenaHead())
	if hostLittleEndian {
		f.arena = unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), 8*len(words))
	}
	return f
}
