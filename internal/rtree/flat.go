package rtree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"unsafe"

	"scaleshift/internal/geom"
	"scaleshift/internal/vec"
)

// FlatTree is the frozen, pointer-free, array-backed form of a Tree
// and the only form that is searched: one contiguous node arena with
// offset-indexed children and structure-of-arrays MBR planes,
// traversed with batched (4-wide unrolled) pruning kernels, that
// (de)serializes as a single verbatim byte blob which can be
// memory-mapped and served zero-copy.
//
// A FlatTree is immutable and safe for concurrent searches.  Mutation
// goes through Thaw, which reconstructs an independent builder.
//
// Node 0 is the root.  For node i, entries occupy the half-open range
// [starts[i], starts[i+1]) of refs/planes.  refs holds the child node
// index for internal entries and the item ID (as uint64 bits) for
// leaf entries.  planes holds, per node, the entry MBRs
// dimension-major: all L planes (dimension 0 of every entry, then
// dimension 1, ...), then all H planes — the layout geom.NodePlanes
// describes.  Point-mode leaves store each point as its degenerate
// rect (L == H), so the L rows double as SoA point storage.
type FlatTree struct {
	cfg      Config
	size     int
	height   int
	pages    int // total pages (a supernode spans several)
	leafKind uint8
	maxNode  int // largest single-node entry count, for scratch sizing

	meta   []uint64  // per node: level<<32 | pages
	starts []uint64  // len numNodes+1: entry range offsets
	refs   []uint64  // per entry: child index or item ID bits
	planes []float64 // per entry block: SoA MBR planes

	bounds geom.Rect    // root MBR, valid when size > 0
	sample []vec.Vector // planner sample (see CostHints)
	arena  []byte       // backing arena when loaded zero-copy, else nil
	pool   sync.Pool    // *flatScratch, per-search reusable buffers

	// entryRadius is CostHints.EntryRadius, measured from the leaf planes
	// on first use (the arena does not carry it).
	radiusOnce  sync.Once
	entryRadius float64
}

// Leaf-entry kinds of a FlatTree.
const (
	flatLeafPoints uint8 = 0 // leaves hold points (L == H)
	flatLeafRects  uint8 = 1 // leaves hold sub-trail MBRs
)

// Freeze builds the flat form of t.  The tree is walked pre-order;
// the result shares nothing mutable with t (the planner sample
// vectors are shared, but neither representation mutates them).
// Trees mixing point and rectangle leaf entries cannot be frozen.
func (t *Tree) Freeze() (*FlatTree, error) {
	f := &FlatTree{
		cfg:      t.cfg,
		size:     t.size,
		height:   t.root.level + 1,
		leafKind: flatLeafPoints,
	}
	kindSet := false
	dim := t.cfg.Dim

	var walk func(n *node) (int, error)
	walk = func(n *node) (int, error) {
		idx := len(f.meta)
		f.meta = append(f.meta, packMeta(n.level, n.pages()))
		f.pages += n.pages()
		c := len(n.entries)
		if c > f.maxNode {
			f.maxNode = c
		}
		f.starts = append(f.starts, uint64(len(f.refs)))
		refBase := len(f.refs)
		for range n.entries {
			f.refs = append(f.refs, 0)
		}
		for j := 0; j < dim; j++ {
			for _, e := range n.entries {
				f.planes = append(f.planes, e.rect.L[j])
			}
		}
		for j := 0; j < dim; j++ {
			for _, e := range n.entries {
				f.planes = append(f.planes, e.rect.H[j])
			}
		}
		for k, e := range n.entries {
			if n.isLeaf() {
				kind := flatLeafRects
				if e.item.Point != nil {
					kind = flatLeafPoints
				}
				if !kindSet {
					f.leafKind, kindSet = kind, true
				} else if kind != f.leafKind {
					return 0, fmt.Errorf("rtree: cannot freeze a tree mixing point and rect leaf entries")
				}
				f.refs[refBase+k] = uint64(e.item.ID)
				continue
			}
			ci, err := walk(e.child)
			if err != nil {
				return 0, err
			}
			f.refs[refBase+k] = uint64(ci)
		}
		return idx, nil
	}
	if _, err := walk(t.root); err != nil {
		return nil, err
	}
	f.starts = append(f.starts, uint64(len(f.refs)))
	if t.size > 0 {
		f.bounds = t.root.mbr()
	}
	f.sample = append([]vec.Vector(nil), t.sample...)
	return f, nil
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

// PointLeaves reports whether the leaf entries are points (true) or
// sub-trail MBRs (false).
func (f *FlatTree) PointLeaves() bool { return f.leafKind == flatLeafPoints }

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
	if f.leafKind == flatLeafRects {
		f.radiusOnce.Do(f.measureEntryRadius)
		h.EntryRadius = f.entryRadius
	}
	return h
}

// measureEntryRadius sets entryRadius to the mean outer radius of the
// leaf entries' MBRs, as geom.Rect.OuterRadius computes it.
func (f *FlatTree) measureEntryRadius() {
	var sum float64
	for i := range f.meta {
		if f.nodeLevel(i) != 0 {
			continue
		}
		s, e := f.nodeEntries(i)
		pl := f.nodePlanes(s, e)
		for k := 0; k < pl.Count; k++ {
			var sq float64
			for j := 0; j < pl.Dim; j++ {
				half := (pl.HRow(j)[k] - pl.LRow(j)[k]) / 2
				sq += half * half
			}
			sum += math.Sqrt(sq)
		}
	}
	f.entryRadius = sum / float64(f.size)
}

// nodeLevel returns the level of node i (0 = leaf).
func (f *FlatTree) nodeLevel(i int) int { return int(f.meta[i] >> 32) }

// nodePages returns the page span of node i.
func (f *FlatTree) nodePages(i int) int { return int(f.meta[i] & 0xffffffff) }

// nodeEntries returns the entry range [s, e) of node i.
func (f *FlatTree) nodeEntries(i int) (s, e int) {
	return int(f.starts[i]), int(f.starts[i+1])
}

// nodePlanes returns the SoA MBR view of node i's entries.
func (f *FlatTree) nodePlanes(s, e int) geom.NodePlanes {
	d := f.cfg.Dim
	return geom.NodePlanes{Data: f.planes[2*d*s : 2*d*e], Count: e - s, Dim: d}
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

// Validate runs the full structural check of the arena — the O(n)
// counterpart of the O(1) checks done at load.  After Validate
// returns nil, every traversal is guaranteed panic-free.  It is meant
// to run with artifact checksum verification, off the serving path.
func (f *FlatTree) Validate() error {
	numNodes := len(f.meta)
	numEntries := len(f.refs)
	if len(f.starts) != numNodes+1 {
		return fmt.Errorf("rtree: flat arena: %d nodes but %d start offsets", numNodes, len(f.starts))
	}
	if f.starts[0] != 0 || f.starts[numNodes] != uint64(numEntries) {
		return fmt.Errorf("rtree: flat arena: entry offsets do not span [0, %d]", numEntries)
	}
	if len(f.planes) != 2*f.cfg.Dim*numEntries {
		return fmt.Errorf("rtree: flat arena: %d plane values for %d entries", len(f.planes), numEntries)
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
	// Every entry rect must be well-formed (L <= H per dimension).
	d := f.cfg.Dim
	for i := 0; i < numNodes; i++ {
		s, e := f.nodeEntries(i)
		pl := f.nodePlanes(s, e)
		for j := 0; j < d; j++ {
			lr, hr := pl.LRow(j), pl.HRow(j)
			for k := range lr {
				if !(lr[k] <= hr[k]) { // also rejects NaN planes
					return fmt.Errorf("rtree: flat arena: inverted rect (node %d, entry %d, dim %d)", i, s+k, j)
				}
			}
		}
	}
	return nil
}

// Thaw reconstructs a mutable builder from the frozen arena.
// The result shares no memory with f (or its backing mapping), so the
// arena may be closed once Thaw returns.
func (f *FlatTree) Thaw() (*Tree, error) {
	t, err := New(f.cfg)
	if err != nil {
		return nil, err
	}
	d := f.cfg.Dim
	var build func(i int) (*node, error)
	build = func(i int) (*node, error) {
		if i < 0 || i >= len(f.meta) {
			return nil, fmt.Errorf("rtree: flat arena: node index %d out of range", i)
		}
		s, e := f.nodeEntries(i)
		if s > e || e > len(f.refs) {
			return nil, fmt.Errorf("rtree: flat arena: node %d entry range invalid", i)
		}
		lvl := f.nodeLevel(i)
		n := &node{level: lvl, super: f.nodePages(i)}
		pl := f.nodePlanes(s, e)
		for k := 0; k < e-s; k++ {
			lo := make(vec.Vector, d)
			hi := make(vec.Vector, d)
			for j := 0; j < d; j++ {
				lo[j] = pl.LRow(j)[k]
				hi[j] = pl.HRow(j)[k]
			}
			if lvl == 0 {
				var en *entry
				if f.leafKind == flatLeafPoints {
					en = &entry{rect: geom.Rect{L: lo, H: hi}, item: Item{Point: lo, ID: int64(f.refs[s+k])}}
				} else {
					en = &entry{rect: geom.Rect{L: lo, H: hi}, item: Item{ID: int64(f.refs[s+k])}}
				}
				n.entries = append(n.entries, en)
				continue
			}
			ci := int(f.refs[s+k])
			if ci <= 0 || ci >= len(f.meta) || f.nodeLevel(ci) != lvl-1 {
				return nil, fmt.Errorf("rtree: flat arena: node %d references invalid child %d", i, ci)
			}
			child, err := build(ci)
			if err != nil {
				return nil, err
			}
			child.parent = n
			n.entries = append(n.entries, &entry{rect: child.mbr(), child: child})
		}
		return n, nil
	}
	root, err := build(0)
	if err != nil {
		return nil, err
	}
	t.root = root
	t.size = f.size
	t.nodes = f.pages
	if err := t.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("rtree: thawed tree invalid: %w", err)
	}
	t.rebuildSample()
	return t, nil
}

// Stats returns per-level geometry statistics, leaves first.
func (f *FlatTree) Stats() []LevelStats {
	byLevel := make([]*LevelStats, f.height)
	d := f.cfg.Dim
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
		if e == s {
			continue
		}
		pl := f.nodePlanes(s, e)
		minSide, maxSide := math.Inf(1), 0.0
		var outerSq float64
		innerHalf := math.Inf(1)
		for j := 0; j < d; j++ {
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
const arenaVersion = 1

// arenaHeaderWords is the fixed u64 header of an arena blob.
const arenaHeaderWords = 14

// arena sanity bounds: far above any real index, far below anything
// that could drive pathological allocation from a corrupt header.
const (
	maxArenaNodes   = 1 << 32
	maxArenaEntries = 1 << 32
	maxArenaSample  = 1 << 12
)

// arenaHead returns the words of the arena that precede the four
// arrays: the 14-word header, the root bounds, and the planner sample
// behind its count.
func (f *FlatTree) arenaHead() []uint64 {
	d := f.cfg.Dim
	head := make([]uint64, 0, arenaHeaderWords+2*d+1+len(f.sample)*d)
	head = append(head,
		arenaVersion,
		uint64(d), uint64(f.cfg.MaxEntries), uint64(f.cfg.MinEntries),
		uint64(f.cfg.ReinsertCount), uint64(f.cfg.Split),
		math.Float64bits(f.cfg.SupernodeMaxOverlap),
		uint64(f.size), uint64(f.height), uint64(f.leafKind),
		uint64(f.pages), uint64(f.maxNode),
		uint64(len(f.meta)), uint64(len(f.refs)),
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
// layout is a 14-word header, the root bounds, the planner sample, then
// the meta/starts/refs/planes arrays verbatim; every field is 8 bytes
// wide, so a blob starting at an 8-byte-aligned offset has every array
// aligned for zero-copy reads.  A tree that is a view of an arena —
// bulk-loaded, or opened from one — writes the bytes it holds; one
// frozen from a builder writes its arrays as the byte ranges they
// are on a little-endian host, and encodes them chunk by chunk
// elsewhere.
func (f *FlatTree) WriteArena(w io.Writer) error {
	if f.arena != nil {
		_, err := w.Write(f.arena)
		return err
	}
	// On a little-endian host a run of words is its own encoding.
	put := func(words []uint64) error {
		_, err := w.Write(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), 8*len(words)))
		return err
	}
	if !hostLittleEndian {
		var buf []byte
		put = func(words []uint64) error {
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
			return nil
		}
	}
	planes := unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(f.planes))), len(f.planes))
	for _, words := range [][]uint64{f.arenaHead(), f.meta, f.starts, f.refs, planes} {
		if err := put(words); err != nil {
			return err
		}
	}
	return nil
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
		len(f.meta) + len(f.starts) + len(f.refs) + len(f.planes))
}

// FlatFromArena decodes an arena blob in O(1): only the header and
// the small bounds/sample blocks are parsed; the four big arrays are
// reinterpreted in place when the blob is 8-byte aligned on a
// little-endian host (the zero-copy path) and copied otherwise.  The
// returned tree keeps b alive; callers memory-mapping the blob must
// not unmap it while the tree is in use.
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
	if v := word(0); v != arenaVersion {
		return nil, fmt.Errorf("rtree: unsupported flat arena version %d", v)
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
		size:     int(word(7)),
		height:   int(word(8)),
		leafKind: uint8(word(9)),
		pages:    int(word(10)),
		maxNode:  int(word(11)),
		arena:    b,
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
	if f.leafKind != flatLeafPoints && f.leafKind != flatLeafRects {
		return nil, fmt.Errorf("rtree: unknown flat leaf kind %d", f.leafKind)
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
	need := off + sampleCount*d +
		numNodes + (numNodes + 1) + numEntries + 2*d*numEntries
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
	f.refs = u64View(b[8*off:], int(numEntries))
	off += numEntries
	f.planes = f64View(b[8*off:], int(2*d*numEntries))
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

// f64View is u64View for float64 payloads.
func f64View(b []byte, n int) []float64 {
	if n == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(unsafe.SliceData(b)))%8 == 0 {
		return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(b))), n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}
