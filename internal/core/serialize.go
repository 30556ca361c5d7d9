package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"

	"scaleshift/internal/binio"
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
// The header's options are four words (the fourth reserved, see
// readOptions), then a reserved word written as zero: it held the run
// length of an index whose leaf entries were sub-trail MBRs, one per run
// of consecutive windows, which no longer exists.  An artifact that says
// 2 or more there is such an index and is rejected with ErrVersion (see
// reservedRunLength); 0 and 1 always meant a point per window.
//
// The arenas carry their own version, and the container's does not move
// with them.  Only the current arena layout with a direction-box
// directory is served (flatFromSection): an arena in any other layout is
// refused with ErrVersion by LoadIndexFile, and rebuilt
// from the store by LoadSegments and SegmentList.Open.  An index is
// derived state; OpenOrRebuildFile rebuilds it from the store.
//
// An SSIDX file, of any version, is the index artifact written before
// SSSEG was the one format, and is refused with ErrVersion by its magic
// alone (see parseArtifact).
var segMagic = []byte("SSSEG\x01")

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

// WriteBinary writes the index as an SSSEG artifact, which
// LoadIndexFile maps without re-running pre-processing: the published
// frozen segments as they are, then the delta, if it holds windows,
// folded into one more segment (the fold Compact makes when it merges
// no segment), built transiently from the published manifest; the
// index is left as it is.  A built index writes one segment.  The
// underlying store is NOT included; persist it separately with
// Store.WriteBinary.
func (ix *Index) WriteBinary(w io.Writer) error {
	pin := ix.cell.Acquire()
	defer pin.Release()
	m := pin.Value()
	segs := m.frozen
	if m.delta.n > 0 {
		seg, err := mergeSegments(m.sv, m.fmap, m.opts, nil, m.delta)
		if err != nil {
			return fmt.Errorf("core: folding the delta for writing: %w", err)
		}
		segs = append(slices.Clip(segs), seg)
	}
	return writeSegments(m.opts, segs, w)
}

// SegmentWriter is WriteBinary split in two for the frozen benchmark
// harness: it pins the published manifest (PinSegments, so it errors
// while the delta holds windows) and returns a closure writing exactly
// that generation, plus the release of the pin.
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
	put(0) // reserved, see readOptions
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
// the one place an arena enters this package from bytes: an arena
// rtree.FlatFromArena refuses with a version error — an older arena
// version, or a directory other than the direction-box one the bulk
// build writes (an MBR directory, written before builds took that
// shape) — wraps ErrVersion, and its caller rebuilds it from the store.
func flatFromSection(body []byte) (*rtree.FlatTree, error) {
	arena, err := arenaFromSection(body)
	if err != nil {
		return nil, err
	}
	flat, err := rtree.FlatFromArena(arena)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
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
// trailer of the SSSEG artifact data and parses its header.  The arenas
// are not opened; they alias data.  An SSIDX file is refused with
// ErrVersion unread.
func parseArtifact(data []byte) (*artifact, error) {
	if bytes.HasPrefix(data, []byte("SSIDX")) {
		return nil, fmt.Errorf("core: an SSIDX index artifact is no longer read; rebuild it from the store: %w", ErrVersion)
	}
	br := binio.NewByteReader(data)
	if err := br.Magic(segMagic); err != nil {
		return nil, fmt.Errorf("core: reading magic: %w", err)
	}
	head, err := br.Section(maxIndexSection)
	if err != nil {
		return nil, fmt.Errorf("core: header section: %w", err)
	}
	a := &artifact{}
	r := &u64Reader{b: head}
	if a.opts, err = r.readOptions(); err == nil {
		a.dirs, err = r.readSegDirs()
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
// list starts with.  The fourth is reserved: it recorded the MBR
// penetration check of the paper's experiment sets 2 and 3, which a
// direction-box directory does not make.  It is written as zero, and
// read only to be held to the bound it always had.
func (r *u64Reader) readOptions() (Options, error) {
	var windowLen, coeffs, reduction, reserved uint64
	if err := r.words(&windowLen, &coeffs, &reduction, &reserved); err != nil {
		return Options{}, err
	}
	if windowLen > 1<<20 || coeffs > 1<<20 || reduction > 255 || reserved > 255 {
		return Options{}, fmt.Errorf("core: implausible options (window %d, coefficients %d, reduction %d, reserved word %d): %w",
			windowLen, coeffs, reduction, reserved, ErrChecksum)
	}
	return Options{
		WindowLen:    int(windowLen),
		Coefficients: int(coeffs),
		Reduction:    ReductionKind(reduction),
		Tree:         DefaultOptions().Tree,
	}, nil
}

// readSegDirs reads an SSSEG header's segment directory: header word 4
// (see reservedRunLength), the segment count, which the bytes left must
// be able to hold at 16 bytes a segment — a hostile count fails before
// anything is allocated for it — and the entries.  It checks the
// directory's shape only; checkCoverage holds it against a store.
func (r *u64Reader) readSegDirs() ([]segDir, error) {
	var reserved, nsegs uint64
	if err := r.words(&reserved, &nsegs); err != nil {
		return nil, err
	}
	if err := reservedRunLength(reserved); err != nil {
		return nil, err
	}
	if nsegs > uint64(r.left()/16) {
		return nil, fmt.Errorf("core: %d entries claimed in %d header bytes: %w", nsegs, r.left(), ErrTruncated)
	}
	dirs := make([]segDir, nsegs)
	for i := range dirs {
		var err error
		if dirs[i], err = r.readDir(i); err != nil {
			return nil, err
		}
	}
	return dirs, r.end()
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

// LoadIndexFile memory-maps the index artifact WriteBinary wrote at
// path and opens it over st, which must be the same store (or a
// bit-exact copy) the index was built over.  Every byte of the artifact
// is covered by a CRC32C, checked before it returns, and every arena is
// structurally validated, so truncation and corruption always surface
// as a typed error (ErrChecksum, ErrTruncated, ErrVersion) — never a
// panic and never wrong results.  The consistency checks against st
// guard the pair itself: an index opened over the wrong store is
// rejected, not served.  The index covers what the artifact covers.
// The arenas are served straight out of the page cache, their arrays
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

// LoadSegments reopens an index written by WriteBinary from r,
// attaching it to st (the same store, or one that has since GROWN —
// windows beyond the artifact's coverage are extracted into the delta,
// which is what makes a restart with a WAL replay exact).  It runs
// LoadIndexFile's checks, but a segment whose arena checksums and cannot be
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
		flat, _, err := bulkLoadRanges(context.Background(), ix.st, ix.fmap, ix.opts, dirs[i].ranges, runtime.GOMAXPROCS(0))
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
	if _, err := ix.st.Domain(); err != nil {
		ix.Close()
		return fmt.Errorf("core: %w", err)
	}
	ix.cell = resilience.NewCell(ix.manifestLocked())
	return nil
}

// VerifyArtifact returns nil: every loader checks an artifact in full
// before it returns the index.  It is kept for the callers that still
// call it.
func (ix *Index) VerifyArtifact() error { return nil }
