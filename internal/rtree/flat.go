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

// FlatTree is the frozen, pointer-free, array-backed tree the serving
// path searches: one contiguous node arena with
// offset-indexed children and structure-of-arrays planes,
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
// its L rows alone.  A directory entry's extent is the range of the norms
// and the box of the unit directions beneath it — one row more than the
// feature dimension, the norm's first.
//
// The tree is a filter (the caller's exact check decides), so a plane
// value is a float32: coordinate x is stored as float32(x·2^-e) with one
// exponent e per arena (see quant).  A point coordinate rounds to
// nearest; a directory bound is derived from the stored points and
// stepped outward where it is computed, above them folded (bulkload.go).
// Searches scale the query into the arena's units instead of widening
// the planes, and return coordinates and distances in the caller's.
type FlatTree struct {
	cfg     Config
	size    int
	height  int
	pages   int // total pages (a supernode spans several)
	maxNode int // largest single-node entry count, for scratch sizing
	q       quant

	meta   []uint64  // per node: level<<32 | pages
	starts []uint64  // len numNodes+1: entry range offsets
	poff   []uint64  // len numNodes+1: plane value offsets
	refs   []uint64  // per entry: child index or item ID bits
	planes []float32 // per node: SoA planes, in arena units

	bounds geom.Rect // root MBR as stored, in caller units; valid when size > 0
	arena  []byte    // backing arena when loaded zero-copy, else nil
	pool   sync.Pool // *flatScratch, per-search reusable buffers

	buildTile, buildEmit time.Duration // see BuildStages
}

// dirBox is what header word 6 of an arena says its directory entries
// store: the norm range and the unit-direction box of a subtree.  It is
// the one kind read; 0 named the MBR directory of arenas frozen from an
// insert-built tree and 1 the rectangle-leaf arena, both retired.
const dirBox = 2

// BuildStages returns how long BulkLoadFlat spent tiling (polar columns,
// sorts, extents) and emitting the arena; zero for a tree that was
// opened.
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
// directory entry carries the norm beside the direction.
func (f *FlatTree) planeDim(lvl int) int {
	if lvl > 0 {
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
// directory entry's extent covers the entries of the child it
// references, so a subtree is never skipped while holding a qualifying
// entry.  It is meant to run with artifact checksum verification, off
// the serving path.
func (f *FlatTree) Validate() error {
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
	// The descent accepts a subtree as the node range from its child to
	// the next entry's (descend), so the arena is laid out pre-order, as
	// emitFlat writes it: a node's first child follows it, and every
	// further child starts where its predecessor's subtree ends.
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
	// Every plane value is finite, every extent well-formed (L <= H per
	// row), and every child sits inside the entry referencing it.  The
	// root's entries are checked on their own; every other node's are
	// ordered and inside the extent of the one entry that references the
	// node (the structural pass above found exactly one), which by
	// induction from the root makes them finite too — a NaN fails every
	// comparison.  For a leaf "inside" means that the norm and the folded
	// unit direction of every stored point — computed as the bulk loader
	// computes them — lie in the entry's range and box.
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
		if j == 0 && f.height > 1 {
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
			if lvl == 1 {
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

// arenaVersion identifies the arena encoding; bump on layout changes.
// Any other version is refused with binio.ErrVersion: an arena is
// derived state, rebuilt from the store.  Version 1 stored every entry as
// a float64 rectangle, points included, with no exponent and no
// plane-offset column; version 2 was this layout behind a 15-word header
// (three reserved words after the node shape) and a feature sample after
// the root bounds, which nothing read.
const arenaVersion = 3

// arenaHeaderWords is the fixed u64 header of an arena blob.
const arenaHeaderWords = 12

// arena sanity bounds: far above any real index, far below anything
// that could drive pathological allocation from a corrupt header.
const (
	maxArenaNodes   = 1 << 32
	maxArenaEntries = 1 << 32
)

// arenaHead returns the words of the arena that precede the arrays: the
// 12-word header and the root bounds.
func (f *FlatTree) arenaHead() []uint64 {
	d := f.cfg.Dim
	head := make([]uint64, 0, arenaHeaderWords+2*d)
	head = append(head,
		arenaVersion,
		uint64(d), uint64(f.cfg.MaxEntries), uint64(f.cfg.MinEntries),
		uint64(f.size), uint64(f.height), dirBox,
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
	return head
}

// arenaChunk is how many words WriteArena encodes at a time on a host
// whose memory is not already in arena byte order.
const arenaChunk = 1 << 13

// WriteArena writes the little-endian arena encoding of f to w.  The
// layout is a 12-word header (the last word the plane exponent), the
// root bounds, the meta/starts/poff/refs arrays of
// 8-byte words verbatim, then the planes as 4-byte float32s, zero-padded
// to a whole word: the blob is a multiple of 8 bytes long, and one
// starting at an 8-byte-aligned offset has every array aligned for
// zero-copy reads.  A tree that is a view of an arena — bulk-loaded on a
// little-endian host, or opened from one — writes the bytes it holds;
// any other writes its arrays as the byte ranges they are on a
// little-endian host, and encodes them chunk by chunk elsewhere.
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
	return 8 * (arenaHeaderWords + 2*d +
		len(f.meta) + len(f.starts) + len(f.poff) + len(f.refs) + (len(f.planes)+1)/2)
}

// FlatFromArena decodes an arena blob in O(1): only the header and
// the small bounds block are parsed; the big arrays are
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
		cfg:     Config{Dim: int(word(1)), MaxEntries: int(word(2)), MinEntries: int(word(3))},
		size:    int(word(4)),
		height:  int(word(5)),
		pages:   int(word(7)),
		maxNode: int(word(8)),
		q:       quantExp(0),
	}
	// Word 6 is the directory kind (dirBox): an arena of any other kind
	// — an MBR directory, a rectangle-leaf arena, or a kind a later build
	// writes — is refused before any plane is touched.
	if kind := word(6); kind != dirBox {
		return nil, fmt.Errorf("rtree: unsupported directory kind %d in flat arena header word 6 (2, direction boxes, is read; rebuild the index): %w", kind, binio.ErrVersion)
	}
	if word(1) > 1<<16 || word(2) > 1<<20 {
		return nil, fmt.Errorf("rtree: implausible flat config (dim=%d, M=%d)", word(1), word(2))
	}
	if err := f.cfg.Validate(); err != nil {
		return nil, err
	}
	numNodes, numEntries := word(9), word(10)
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
	if uint64(len(b))/8 < off+2*d {
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

	// A leaf entry is d plane values wide and every other entry an extent
	// of two bounds per row (planeWidth).
	numPlanes := d*uint64(f.size) + uint64(f.planeWidth(1))*(numEntries-uint64(f.size))
	planeWords := (numPlanes+1)/2 + numNodes + 1 // with the poff column
	need := off + numNodes + (numNodes + 1) + numEntries + planeWords
	if uint64(len(b)) != 8*need {
		return nil, fmt.Errorf("rtree: flat arena is %d bytes, layout requires %d", len(b), 8*need)
	}

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
