package rtree

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"scaleshift/internal/geom"
	"scaleshift/internal/vec"
)

// bulkFill is the target node occupancy of a bulk-loaded tree: packing
// nodes completely would make the very next insert split every node on
// the path, so a standard ~85 % fill leaves headroom.
const bulkFill = 0.85

// parallelSortCutoff is the range length below which a tiling pass runs
// on the calling goroutine: handing out chunks and merging them costs
// more than sorting.
const parallelSortCutoff = 1 << 12

// maxSortChunks bounds how many sorted runs one parallel sort merges;
// the merge scans every run head per output element.
const maxSortChunks = 8

// BulkLoadFlat builds a frozen tree over n points with Sort-Tile-
// Recursive packing (Leutenegger et al.): the points are recursively
// sorted and tiled one dimension at a time into groups of about
// bulkFill·M, then the node level is packed the same way on MBR
// centers, up to the root.  Point i has identifier ids[i] and
// coordinate j at cols[j·n+i] — the columnar layout feature extraction
// fills; neither slice is retained.
//
// Nothing is built per point: the cascade sorts a permutation of the
// point indices by (key, position) pairs, keeps each level's node
// extents in two columnar arrays, and then writes the nodes pre-order
// into one exactly sized buffer in the arena layout of AppendArena, of
// which the returned tree is a view.  A built tree and a tree mapped
// from an artifact are therefore the same thing, and writing the
// artifact is a copy of bytes already held.
//
// The cascade runs on the exact coordinates; the arena stores every
// value rounded to nearest (see FlatTree), which makes each node's MBR
// the exact minimum and maximum of the stored points beneath it.
//
// The tree does not depend on workers (values < 2 mean sequential):
// every sort orders on the key and then on the position before the
// sort, a total order, so any sorting method and any division of the
// work produce the same permutation — the one a stable sort by key
// gives.  Keys compare as floats (−0 ties with +0); NaN keys order as
// −Inf, first and among themselves by position.
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

	// The cascade, leaves first: levels[l] groups the entries of level l
	// (the points for l = 0, the nodes of level l−1 above) into nodes.
	// The last level is the root: one group over whatever is left, in
	// the order the level below produced it.
	var levels []bulkLevel
	t := tiler{c: capacity, m: cfg.MinEntries, dims: dim, workers: workers}
	entries, lo, hi := n, cols, cols
	for entries > cfg.MaxEntries {
		lv := t.tile(entries, lo, hi)
		lv.extents(entries, dim, lo, hi, workers)
		levels = append(levels, lv)
		entries, lo, hi = lv.nodes(), lv.lo, lv.hi
	}
	root := bulkLevel{perm: identity(entries), starts: []int32{0, int32(entries)}}
	root.extents(entries, dim, lo, hi, 1)
	levels = append(levels, root)

	return emitFlat(cfg, ids, cols, levels), nil
}

// bulkLevel is one level of the cascade: a permutation of the level's
// entries and the offsets cutting it into consecutive runs, one per
// node, plus — once extents has run — the nodes' MBRs as columns of
// stride nodes().
type bulkLevel struct {
	perm   []int32
	starts []int32 // len nodes()+1
	lo, hi []float64
}

func (lv *bulkLevel) nodes() int { return len(lv.starts) - 1 }

func identity(n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	return p
}

// extents computes every node's MBR from its entries' extents (columns
// lo and hi of stride entries), folding in entry order with strict
// comparisons as geom.Rect.Extend does, so that ties between −0 and +0
// resolve as they do in a pointer tree.
func (lv *bulkLevel) extents(entries, dim int, lo, hi []float64, workers int) {
	k := lv.nodes()
	lv.lo, lv.hi = make([]float64, k*dim), make([]float64, k*dim)
	fold := func(from, to int) {
		for g := from; g < to; g++ {
			run := lv.perm[lv.starts[g]:lv.starts[g+1]]
			if len(run) == 0 {
				continue // the root of an empty tree
			}
			for j := 0; j < dim; j++ {
				l, h := lo[j*entries:(j+1)*entries], hi[j*entries:(j+1)*entries]
				mn, mx := l[run[0]], h[run[0]]
				for _, e := range run[1:] {
					if l[e] < mn {
						mn = l[e]
					}
					if h[e] > mx {
						mx = h[e]
					}
				}
				lv.lo[j*k+g], lv.hi[j*k+g] = mn, mx
			}
		}
	}
	if workers < 2 || entries < parallelSortCutoff {
		fold(0, k)
		return
	}
	var wg sync.WaitGroup
	per := (k + workers - 1) / workers
	for from := 0; from < k; from += per {
		wg.Add(1)
		go func(from, to int) {
			defer wg.Done()
			fold(from, to)
		}(from, min(from+per, k))
	}
	wg.Wait()
}

// keyPos is one sort element: the entry's center key along the sort
// dimension, its position in the range before the sort, and the entry.
type keyPos struct {
	key float64
	pos int32
	ent int32
}

func compareKeyPos(a, b keyPos) int {
	switch {
	case a.key < b.key:
		return -1
	case a.key > b.key:
		return 1
	}
	return int(a.pos) - int(b.pos)
}

// tiler runs the sort-tile recursion of one level.  Every range of the
// permutation owns the same range of the scratch arrays, so disjoint
// ranges tile concurrently without sharing anything.
type tiler struct {
	c, m, dims int
	workers    int

	entries int
	lo, hi  []float64 // entry extents, columns of stride entries
	perm    []int32
	pairs   []keyPos
	sizes   []int32 // group sizes: a range's groups start at its offset
}

// tile partitions the entries into groups of at most c (and, past the
// first, at least m) by recursive sort-tile on the extent centers,
// cycling through the dimensions from 0.
func (t *tiler) tile(entries int, lo, hi []float64) bulkLevel {
	t.entries, t.lo, t.hi = entries, lo, hi
	t.perm = identity(entries)
	if cap(t.pairs) < entries { // the leaf level sizes them for the rest
		t.pairs = make([]keyPos, entries)
		t.sizes = make([]int32, entries)
	}
	k := t.strTile(0, entries, 0, t.workers)
	starts := make([]int32, k+1)
	for g, s := range t.sizes[:k] {
		starts[g+1] = starts[g] + s
	}
	return bulkLevel{perm: t.perm, starts: starts}
}

// strTile tiles perm[from:to], writes the group sizes to
// sizes[from:from+k] and returns k.  Groups are consecutive runs of the
// permuted range.  With workers > 1 the sort and the slabs of this call
// are shared out; the recursion below a slab is sequential.
func (t *tiler) strTile(from, to, dim, workers int) int {
	n := to - from
	if n <= t.c {
		t.sizes[from] = int32(n)
		return 1
	}
	if n < parallelSortCutoff {
		workers = 1
	}
	// Number of groups needed and slab count along this dimension.
	groups := (n + t.c - 1) / t.c
	slabs := 1
	for slabs*slabs < groups { // ceil(sqrt) is enough when cycling dims
		slabs++
	}
	t.sortRange(from, to, dim%t.dims, workers)
	perSlab := (n + slabs - 1) / slabs
	// Keep each slab a multiple-ish of c so downstream groups fill.
	if r := perSlab % t.c; r != 0 && perSlab > t.c {
		perSlab += t.c - r
	}
	nSlabs := (n + perSlab - 1) / perSlab

	// Each slab leaves its sizes at its own offset; gathering them to
	// the front of the range in slab order only ever moves them left.
	var counts []int32
	if workers > 1 {
		counts = t.tileSlabs(from, to, perSlab, nSlabs, dim+1, workers)
	}
	k := 0
	for si := 0; si < nSlabs; si++ {
		start := from + si*perSlab
		var count int
		if counts != nil {
			count = int(counts[si])
		} else {
			count = t.strTile(start, min(start+perSlab, to), dim+1, 1)
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
func (t *tiler) tileSlabs(from, to, perSlab, nSlabs, dim, workers int) []int32 {
	counts := make([]int32, nSlabs)
	var next atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < min(workers, nSlabs); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for si := int(next.Add(1)) - 1; si < nSlabs; si = int(next.Add(1)) - 1 {
				start := from + si*perSlab
				counts[si] = int32(t.strTile(start, min(start+perSlab, to), dim, 1))
			}
		}()
	}
	wg.Wait()
	return counts
}

// sortRange orders perm[from:to] by entry center along dimension d,
// ties by current position.  With workers > 1 the range is sorted as
// that many chunks at once and the chunks are merged.
func (t *tiler) sortRange(from, to, d, workers int) {
	perm, pairs := t.perm[from:to], t.pairs[from:to]
	chunks := min(workers, maxSortChunks)
	if chunks < 2 {
		t.sortChunk(from, to, d)
		for i, p := range pairs {
			perm[i] = p.ent
		}
		return
	}
	per := (len(perm) + chunks - 1) / chunks
	var heads, ends [maxSortChunks]int
	var wg sync.WaitGroup
	for c := 0; c < chunks; c++ {
		heads[c], ends[c] = min(c*per, len(perm)), min((c+1)*per, len(perm))
		wg.Add(1)
		go func(a, b int) {
			defer wg.Done()
			t.sortChunk(a, b, d)
		}(from+heads[c], from+ends[c])
	}
	wg.Wait()
	// Chunk order is position order, so taking the first chunk with the
	// smallest head key breaks ties by position.
	for i := range perm {
		best := -1
		for c := 0; c < chunks; c++ {
			if heads[c] < ends[c] && (best < 0 || pairs[heads[c]].key < pairs[heads[best]].key) {
				best = c
			}
		}
		perm[i] = pairs[heads[best]].ent
		heads[best]++
	}
}

// sortChunk fills pairs[from:to] from perm[from:to] and sorts them.
func (t *tiler) sortChunk(from, to, d int) {
	lo, hi := t.lo[d*t.entries:(d+1)*t.entries], t.hi[d*t.entries:(d+1)*t.entries]
	pairs := t.pairs[from:to]
	for i, e := range t.perm[from:to] {
		key := lo[e] + hi[e]
		if key != key {
			key = math.Inf(-1)
		}
		pairs[i] = keyPos{key: key, pos: int32(i), ent: e}
	}
	slices.SortFunc(pairs, compareKeyPos)
}

// emitFlat lays the cascade out as a frozen tree: nodes pre-order from
// the root, each node's entries and MBR planes in its group's order —
// the walk Tree.Freeze makes over the pointer tree the same cascade
// would have linked — in one buffer in arena layout.  On a
// little-endian host that buffer is the arena verbatim.  Plane values
// are rounded as they are written; the planner sample keeps the exact
// points.
func emitFlat(cfg Config, ids []int64, cols []float64, levels []bulkLevel) *FlatTree {
	n, dim := len(ids), cfg.Dim
	root := &levels[len(levels)-1]
	q := quantExp(0)
	if n > 0 {
		q = quantForRect(geom.Rect{L: root.lo, H: root.hi})
	}
	numNodes, numEntries := 0, n
	for _, lv := range levels {
		numNodes += lv.nodes()
	}
	numEntries += numNodes - 1
	numPlanes := dim*n + 2*dim*(numNodes-1)
	stride, sampleCount := 1+n/sampleCap, 0
	if n > 0 {
		sampleCount = (n + stride - 1) / stride
	}

	head := arenaHeaderWords + 2*dim + 1 + sampleCount*dim
	words := make([]uint64, head+numNodes+2*(numNodes+1)+numEntries+(numPlanes+1)/2)
	f := &FlatTree{
		cfg:    cfg,
		size:   n,
		height: len(levels),
		pages:  numNodes,
		q:      q,
	}
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
		kb := below.nodes()
		for j := 0; j < dim; j++ {
			lcol, hcol := below.lo[j*kb:(j+1)*kb], below.hi[j*kb:(j+1)*kb]
			lrow, hrow := planes[j*c:(j+1)*c], planes[(dim+j)*c:(dim+j+1)*c]
			for k, e := range run {
				lrow[k], hrow[k] = q.near(lcol[e]), q.near(hcol[e])
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
		f.bounds = f.storedRect(geom.Rect{L: root.lo, H: root.hi})
	}
	copy(words, f.arenaHead())
	if hostLittleEndian {
		f.arena = unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), 8*len(words))
	}
	return f
}
