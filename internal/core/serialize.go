package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"

	"scaleshift/internal/binio"
	"scaleshift/internal/geom"
	"scaleshift/internal/resilience"
	"scaleshift/internal/rtree"
	"scaleshift/internal/store"
)

// segMagic identifies the index artifact, SSSEG version 1, the one
// format this package writes: a CRC32C-protected header section
// (options, then a segment directory — per segment its window count and
// window ranges) followed by one arena section per frozen segment and a
// whole-file trailer.  Each arena is stored verbatim — little-endian
// uint64 arrays, then the float32 planes padded to a whole word
// (rtree.FlatTree.WriteArena) — behind a pad that lands it on an 8-byte
// file offset, so a memory-mapped artifact serves queries zero-copy
// (LoadIndexFile).
//
// The header's options are four words, then a reserved word written as
// zero: it held the run length of an index whose leaf entries were
// sub-trail MBRs, one per run of consecutive windows, which no longer
// exists.  An artifact that says 2 or more there is such an index and is
// rejected with ErrVersion (see reservedRunLength); 0 and 1 always meant
// a point per window.
//
// The arenas carry their own version, and the container's does not move
// with them.  Only the current arena layout with a direction-box
// directory is served (flatFromSection): an arena in any other layout is
// refused with ErrVersion by LoadIndex and LoadIndexFile, and rebuilt
// from the store by LoadSegments and SegmentList.Open.  An index is
// derived state; OpenOrRebuildFile rebuilds it from the store.
var segMagic = []byte("SSSEG\x01")

// indexMagic identifies SSIDX version 3, the index artifact written
// before SSSEG was the one format.  It is read, never written: its
// header — the four option words, the reserved word, and per sequence
// the number of windows indexed — is one segment's directory entry over
// [0, count) of every sequence, and its one arena section is framed as
// an SSSEG arena.  Version 2 (a pointer-tree payload) and version 1
// (unchecksummed) are rejected with ErrVersion.
var indexMagic = []byte("SSIDX\x03")

// Typed artifact-validation failures from the loaders, re-exported from
// the shared framing package so callers can errors.Is against
// core.ErrChecksum etc. without importing internal/binio.
var (
	ErrChecksum  = binio.ErrChecksum
	ErrTruncated = binio.ErrTruncated
	ErrVersion   = binio.ErrVersion
)

// maxIndexSection bounds one section's length claim (64 GiB); the
// chunked section reader fails fast on anything the input cannot
// actually provide.
const maxIndexSection = 1 << 36

// reservedRunLength checks header word 4 of an artifact (see segMagic):
// a value of 2 or more marks an index of sub-trail MBR leaves, which
// this code no longer reads — a version error, so the callers that
// rebuild on version skew rebuild here too.
func reservedRunLength(v uint64) error {
	if v >= 2 {
		return fmt.Errorf("core: header word 4 (reserved; once the sub-trail run length) is %d: an index of one MBR per run of windows is no longer read, rebuild it from the store: %w", v, ErrVersion)
	}
	return nil
}

// WriteBinary writes the index as a one-segment SSSEG artifact, which
// LoadIndex reopens (and LoadIndexFile memory-maps) without re-running
// pre-processing.  An index of one frozen segment and no delta streams
// that segment's arena; any other writes the segment Freeze would make,
// built transiently from the published manifest, and is left as it is.
// The underlying store is NOT included; persist it separately with
// Store.WriteBinary.
func (ix *Index) WriteBinary(w io.Writer) error {
	pin := ix.cell.Acquire()
	defer pin.Release()
	m := pin.Value()
	segs := m.frozen
	if len(segs) != 1 || m.delta.n > 0 {
		seg, err := mergeSegments(m.sv, m.fmap, m.opts, m.frozen, m.delta)
		if err != nil {
			return fmt.Errorf("core: folding the index for writing: %w", err)
		}
		segs = []*frozenSeg{seg}
	}
	return writeSegments(m.opts, segs, w)
}

// WriteSegments writes the published manifest's frozen segments, as
// they are, as an SSSEG artifact.  The delta is not representable in
// it: call Compact first (ssgen does), or expect an error when
// uncompacted windows remain.  The store is persisted separately, as
// with WriteBinary.
func (ix *Index) WriteSegments(w io.Writer) error {
	write, release, err := ix.SegmentWriter()
	if err != nil {
		return err
	}
	defer release()
	return write(w)
}

// SegmentWriter pins the currently published manifest and returns a
// closure serializing exactly that generation, plus a release func for
// the pin.  The split lets a checkpoint capture the manifest under the
// ingest lock and run the serialization after releasing it: segments
// are immutable, so appends landing meanwhile (which only grow the
// delta of LATER generations) cannot disturb the pinned bytes.  Errors
// when the pinned manifest still has uncompacted delta windows.
func (ix *Index) SegmentWriter() (write func(io.Writer) error, release func(), err error) {
	set, err := ix.PinSegments()
	if err != nil {
		return nil, nil, err
	}
	return func(w io.Writer) error { return writeSegments(set.opts, set.segs, w) }, set.Release, nil
}

// writeSegments emits frozen segments in the SSSEG v1 format.
func writeSegments(opts Options, segs []*frozenSeg, w io.Writer) error {
	var head []byte
	put := func(v uint64) { head = binary.LittleEndian.AppendUint64(head, v) }
	put(uint64(opts.WindowLen))
	put(uint64(opts.Coefficients))
	put(uint64(opts.Reduction))
	put(uint64(opts.Strategy))
	put(0) // reserved, see reservedRunLength
	put(uint64(len(segs)))
	for _, sg := range segs {
		put(uint64(sg.count))
		put(uint64(len(sg.ranges)))
		for _, r := range sg.ranges {
			put(uint64(r.Seq))
			put(uint64(r.Lo))
			put(uint64(r.Hi))
		}
	}
	bw := binio.NewWriter(w)
	bw.Magic(segMagic)
	bw.Section(head)
	for _, sg := range segs {
		writeArenaSection(bw, sg.flat)
	}
	return bw.Close()
}

// writeArenaSection frames one flat tree as the next section of bw.
// The payload is a u64 pad length, that many zero bytes, then the
// arena verbatim.  The pad is chosen so the arena's first byte lands on
// an 8-byte FILE offset: the section starts at Pos(), its payload at
// Pos()+8 (after the length prefix), the arena at Pos()+16+pad.  The
// arena's 8-byte arrays come first and its 4-byte planes last, padded to
// a whole word, so file-offset alignment is what lets an mmap-backed
// open reinterpret every array in place.  The arena is
// streamed from the tree (rtree.FlatTree.WriteArena) — for a built or
// mapped tree, the bytes it already holds — not staged.
func writeArenaSection(bw *binio.Writer, flat *rtree.FlatTree) {
	pad := int((8 - (bw.Pos()+16)%8) % 8)
	bw.StreamSection(int64(8+pad+flat.ArenaSize()), func(w io.Writer) error {
		var prefix [16]byte
		binary.LittleEndian.PutUint64(prefix[:], uint64(pad))
		if _, err := w.Write(prefix[:8+pad]); err != nil {
			return err
		}
		return flat.WriteArena(w)
	})
}

// arenaFromSection peels the pad prefix off an arena section payload.
func arenaFromSection(payload []byte) ([]byte, error) {
	if len(payload) < 8 {
		return nil, fmt.Errorf("core: arena section too short (%d bytes): %w", len(payload), ErrTruncated)
	}
	pad := binary.LittleEndian.Uint64(payload)
	if pad >= 8 || 8+pad > uint64(len(payload)) {
		return nil, fmt.Errorf("core: implausible arena padding %d: %w", pad, ErrChecksum)
	}
	return payload[8+pad:], nil
}

// flatFromSection opens the arena of an arena section in place.  It is
// the one place an arena enters this package from bytes, and it admits
// only the direction-box directory the bulk build writes: an arena of
// any other kind (an MBR directory, written before builds took that
// shape) is refused with ErrVersion, like an older arena version, and
// its caller rebuilds it from the store.
func flatFromSection(body []byte) (*rtree.FlatTree, error) {
	arena, err := arenaFromSection(body)
	if err != nil {
		return nil, err
	}
	flat, err := rtree.FlatFromArena(arena)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if d := flat.Directory(); d != rtree.DirectoryBox {
		return nil, fmt.Errorf("core: an arena with a %s directory is no longer served; rebuild it from the store: %w", d, ErrVersion)
	}
	return flat, nil
}

// segDir is one segment's entry in a segment directory: its window
// count and the window ranges it covers, in (Seq, Lo) order.
type segDir struct {
	count  int
	ranges []winRange
}

// artifact is an index artifact, checked in full and parsed: its
// options (Tree is the default until a served arena says otherwise),
// its segment directory, and per segment the arena section and that
// section's CRC32C, which identifies the arena's content.
type artifact struct {
	opts   Options
	dirs   []segDir
	arenas [][]byte
	crcs   []uint32
}

// parseArtifact checks every section checksum and the whole-file
// trailer of the SSSEG (or SSIDX v3) artifact data and parses its
// header.  The arenas are not opened; they alias data.
func parseArtifact(data []byte) (*artifact, error) {
	br := binio.NewByteReader(data)
	ssidx := strings.HasPrefix(string(data[:min(len(data), 5)]), string(indexMagic[:5]))
	var err error
	if ssidx {
		_, err = br.MagicVersions(indexMagic, 3)
	} else {
		_, err = br.MagicVersions(segMagic, 1)
	}
	if err != nil {
		return nil, fmt.Errorf("core: reading magic: %w", err)
	}
	head, err := br.Section(maxIndexSection)
	if err != nil {
		return nil, fmt.Errorf("core: header section: %w", err)
	}
	a := &artifact{}
	r := &u64Reader{b: head}
	if a.opts, err = r.readOptions(); err == nil {
		if ssidx {
			a.dirs, err = r.readIndexedCounts()
		} else {
			a.dirs, err = r.readSegDirs()
		}
	}
	if err != nil {
		return nil, err
	}
	for i := range a.dirs {
		body, err := br.Section(maxIndexSection)
		if err != nil {
			return nil, fmt.Errorf("core: segment %d arena section: %w", i, err)
		}
		a.arenas = append(a.arenas, body)
		a.crcs = append(a.crcs, binary.LittleEndian.Uint32(data[br.Offset()-4:]))
	}
	if err := br.Trailer(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return a, nil
}

// u64Reader reads little-endian words off a CRC-checked section; a read
// past its end is ErrTruncated.
type u64Reader struct {
	b   []byte
	off int
}

func (r *u64Reader) next() (uint64, error) {
	if r.off+8 > len(r.b) {
		return 0, fmt.Errorf("core: header too short: %w", ErrTruncated)
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, nil
}

func (r *u64Reader) words(dst ...*uint64) error {
	for _, d := range dst {
		var err error
		if *d, err = r.next(); err != nil {
			return err
		}
	}
	return nil
}

// left is the number of unread bytes.
func (r *u64Reader) left() int { return len(r.b) - r.off }

// end fails when bytes remain unread.
func (r *u64Reader) end() error {
	if r.left() != 0 {
		return fmt.Errorf("core: %d trailing header bytes: %w", r.left(), ErrChecksum)
	}
	return nil
}

// readOptions reads the four option words every artifact and segment
// list starts with.
func (r *u64Reader) readOptions() (Options, error) {
	var windowLen, coeffs, reduction, strategy uint64
	if err := r.words(&windowLen, &coeffs, &reduction, &strategy); err != nil {
		return Options{}, err
	}
	if windowLen > 1<<20 || coeffs > 1<<20 || reduction > 255 || strategy > 255 {
		return Options{}, fmt.Errorf("core: implausible options (window %d, coefficients %d, reduction %d, strategy %d): %w",
			windowLen, coeffs, reduction, strategy, ErrChecksum)
	}
	return Options{
		WindowLen:    int(windowLen),
		Coefficients: int(coeffs),
		Reduction:    ReductionKind(reduction),
		Strategy:     geom.Strategy(strategy),
		Tree:         DefaultOptions().Tree,
	}, nil
}

// readReserved reads header word 4 and the count after it, which the
// bytes left must be able to hold at per bytes an item: a hostile count
// fails here, before anything is allocated for it.
func (r *u64Reader) readReserved(per int) (int, error) {
	var reserved, n uint64
	if err := r.words(&reserved, &n); err != nil {
		return 0, err
	}
	if err := reservedRunLength(reserved); err != nil {
		return 0, err
	}
	if n > uint64(r.left()/per) {
		return 0, fmt.Errorf("core: %d entries claimed in %d header bytes: %w", n, r.left(), ErrTruncated)
	}
	return int(n), nil
}

// readSegDirs reads an SSSEG header's segment directory.  It checks the
// directory's shape only; checkCoverage holds it against a store.
func (r *u64Reader) readSegDirs() ([]segDir, error) {
	nsegs, err := r.readReserved(16)
	if err != nil {
		return nil, err
	}
	dirs := make([]segDir, nsegs)
	for i := range dirs {
		if dirs[i], err = r.readDir(i); err != nil {
			return nil, err
		}
	}
	return dirs, r.end()
}

// readIndexedCounts reads an SSIDX v3 header's per-sequence indexed
// counts as the directory entry of its one segment.
func (r *u64Reader) readIndexedCounts() ([]segDir, error) {
	nseqs, err := r.readReserved(8)
	if err != nil {
		return nil, err
	}
	counts := make([]int, nseqs)
	for i := range counts {
		c, err := r.next()
		if err != nil {
			return nil, err
		}
		if c > math.MaxInt32 {
			return nil, fmt.Errorf("core: implausible indexed count %d for sequence %d: %w", c, i, ErrChecksum)
		}
		counts[i] = int(c)
	}
	d := segDir{ranges: prefixRanges(counts)}
	for _, rg := range d.ranges {
		d.count += rg.Hi
	}
	return []segDir{d}, r.end()
}

// readDir reads one segment's directory entry: its count, then its
// ranges, each non-empty, summing to the count.  A range count the
// section cannot hold fails before anything is allocated for it.
func (r *u64Reader) readDir(i int) (segDir, error) {
	var count, nranges uint64
	if err := r.words(&count, &nranges); err != nil {
		return segDir{}, err
	}
	if nranges > uint64(r.left()/24) {
		return segDir{}, fmt.Errorf("core: segment %d claims %d ranges in %d bytes: %w", i, nranges, r.left(), ErrTruncated)
	}
	d := segDir{count: int(count), ranges: make([]winRange, 0, nranges)}
	total := uint64(0)
	for j := uint64(0); j < nranges; j++ {
		var seq, lo, hi uint64
		if err := r.words(&seq, &lo, &hi); err != nil {
			return segDir{}, err
		}
		if seq > math.MaxInt32 || lo >= hi || hi > math.MaxInt32 {
			return segDir{}, fmt.Errorf("core: segment %d has implausible window range [%d, %d) for sequence %d: %w", i, lo, hi, seq, ErrChecksum)
		}
		total += hi - lo
		d.ranges = append(d.ranges, winRange{Seq: int(seq), Lo: int(lo), Hi: int(hi)})
	}
	if total != count {
		return segDir{}, fmt.Errorf("core: segment %d claims %d windows but its ranges cover %d: %w", i, count, total, ErrChecksum)
	}
	return d, nil
}

// checkCoverage holds a segment directory against st: every range
// in bounds, and the list, in order, tiling each sequence's windows
// contiguously from zero — no overlaps, no gaps, every window in one
// segment.  It returns how many windows of each sequence the segments
// cover.
func checkCoverage(dirs []segDir, st *store.Store, windowLen int) ([]int, error) {
	next := make([]int, st.NumSequences())
	for i, d := range dirs {
		for _, r := range d.ranges {
			if r.Seq >= st.NumSequences() {
				return nil, fmt.Errorf("core: segment %d range covers sequence %d but store has %d", i, r.Seq, st.NumSequences())
			}
			if last := st.SequenceLen(r.Seq) - windowLen + 1; r.Hi > max(last, 0) {
				return nil, fmt.Errorf("core: segment %d has implausible window range [%d, %d) for sequence %d (len %d)",
					i, r.Lo, r.Hi, r.Seq, st.SequenceLen(r.Seq))
			}
			if r.Lo != next[r.Seq] {
				return nil, fmt.Errorf("core: segment %d range [%d, %d) of sequence %d breaks contiguous coverage (expected start %d)",
					i, r.Lo, r.Hi, r.Seq, next[r.Seq])
			}
			next[r.Seq] = r.Hi
		}
	}
	return next, nil
}

// segmentFromArena opens segment i's arena section and checks it
// against its directory entry: a valid tree of the options' dimension
// holding exactly the windows the entry claims.  The tree aliases body.
func segmentFromArena(i int, body []byte, d segDir, dim int) (*frozenSeg, error) {
	flat, err := flatFromSection(body)
	if err != nil {
		return nil, fmt.Errorf("core: segment %d: %w", i, err)
	}
	if err := flat.Validate(); err != nil {
		return nil, fmt.Errorf("core: segment %d: %w", i, err)
	}
	if flat.Len() != d.count {
		return nil, fmt.Errorf("core: segment %d directory claims %d windows but tree holds %d", i, d.count, flat.Len())
	}
	if flat.Config().Dim != dim {
		return nil, fmt.Errorf("core: segment %d dimension %d does not match options (%d)", i, flat.Config().Dim, dim)
	}
	return &frozenSeg{flat: flat, ranges: d.ranges, count: d.count}, nil
}

// LoadIndex reopens an index written by WriteBinary (or an SSIDX v3
// artifact), attaching it to st, which must be the same store (or a
// bit-exact copy) the index was built over.  Every byte of the artifact
// is covered by a CRC32C before it is parsed, and every arena is
// structurally validated, so truncation and corruption always surface
// as a typed error (ErrChecksum, ErrTruncated, ErrVersion) — never a
// panic and never wrong results.  The consistency checks against st
// guard the pair itself: an index loaded against the wrong store is
// rejected, not served.  The index covers what the artifact covers.
// LoadIndexFile opens a file in place.
func LoadIndex(r io.Reader, st *store.Store) (*Index, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading index artifact: %w", err)
	}
	ix, _, err := openArtifact(data, st, nil, false)
	return ix, err
}

// LoadIndexFile memory-maps the index artifact at path and opens it
// with LoadIndex's checks, all of them run before it returns: the
// arenas are then served straight out of the page cache, their arrays
// the mapped bytes, so the mapping lives as long as the index (Close).
// An artifact in any other layout (an older arena version, an MBR
// directory) is refused with ErrVersion; OpenOrRebuildFile rebuilds it.
func LoadIndexFile(path string, st *store.Store) (*Index, error) {
	m, err := binio.OpenMapping(path)
	if err != nil {
		return nil, fmt.Errorf("core: opening index artifact: %w", err)
	}
	ix, _, err := openArtifact(m.Data, st, m, false)
	return ix, err
}

// LoadSegments reopens an index written by WriteSegments or WriteBinary,
// attaching it to st (the same store, or one that has since GROWN —
// windows beyond the artifact's coverage are extracted into the delta,
// which is what makes a restart with a WAL replay exact).  It runs
// LoadIndex's checks, but a segment whose arena checksums and cannot be
// served as it is — an older arena layout, an MBR directory, a tree that
// disagrees with its directory entry — is rebuilt from st over the
// entry's ranges with the bulk build, and reported.
func LoadSegments(r io.Reader, st *store.Store) (*Index, []SegmentRebuild, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, fmt.Errorf("core: reading index artifact: %w", err)
	}
	ix, rebuilt, err := openArtifact(data, st, nil, true)
	if err == nil {
		if err = ix.IndexStore(); err != nil {
			ix.Close()
			return nil, nil, err
		}
	}
	return ix, rebuilt, err
}

// openArtifact is the loaders' one opener: it parses data in full,
// checks it against st, opens every arena in place, and assembles the
// index, which owns m (nil for bytes read into memory) from then on.
// With rebuild, an arena that cannot be served is rebuilt and reported;
// without, the first such arena fails the open.  The index covers what
// the artifact covers.
func openArtifact(data []byte, st *store.Store, m *binio.Mapping, rebuild bool) (*Index, []SegmentRebuild, error) {
	a, err := parseArtifact(data)
	var ix *Index
	var next []int
	if err == nil {
		next, err = checkCoverage(a.dirs, st, a.opts.WindowLen)
	}
	if err == nil {
		ix, err = NewIndex(st, a.opts)
	}
	if err != nil {
		m.Close()
		return nil, nil, err
	}
	if m != nil {
		ix.mappings = []*binio.Mapping{m}
	}
	frozen := make([]*frozenSeg, len(a.dirs))
	var rebuilt []SegmentRebuild
	for i, d := range a.dirs {
		sg, err := segmentFromArena(i, a.arenas[i], d, ix.fmap.Dim())
		switch {
		case err == nil:
			frozen[i] = sg
		case rebuild:
			rebuilt = append(rebuilt, SegmentRebuild{Path: fmt.Sprintf("segment %d", i), Err: err})
		default:
			ix.Close()
			return nil, nil, err
		}
	}
	if err := ix.assemble(a.dirs, frozen, next); err != nil {
		return nil, nil, err
	}
	return ix, rebuilt, nil
}

// assemble installs frozen as the index's segments, rebuilding every
// one that is nil from the store with the bulk build — the windows of
// its directory entry, in a direction-box arena of the served segments'
// node shape — over the coverage next.  It closes the index on failure.
func (ix *Index) assemble(dirs []segDir, frozen []*frozenSeg, next []int) error {
	for _, sg := range frozen {
		if sg != nil {
			ix.opts.Tree = sg.flat.Config()
			break
		}
	}
	for i, sg := range frozen {
		if sg != nil {
			continue
		}
		flat, _, err := bulkLoadRanges(context.Background(), ix.st, ix.fmap, ix.opts, dirs[i].ranges, runtime.GOMAXPROCS(0), nil)
		if err != nil {
			ix.Close()
			return fmt.Errorf("core: rebuilding segment %d: %w", i, err)
		}
		frozen[i] = &frozenSeg{flat: flat, ranges: dirs[i].ranges, count: dirs[i].count}
	}
	ix.frozen, ix.next = frozen, next
	for _, sg := range frozen {
		b, _ := sg.flat.Bounds() // the zero Rect while empty
		ix.maxAbs = max(ix.maxAbs, maxAbsRect(b))
	}
	ix.cell = resilience.NewCell(ix.manifestLocked())
	return nil
}

// VerifyArtifact returns nil: every loader checks an artifact in full
// before it returns the index.  It is kept for the callers that still
// call it.
func (ix *Index) VerifyArtifact() error { return nil }
