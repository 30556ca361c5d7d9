package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"scaleshift/internal/binio"
	"scaleshift/internal/geom"
	"scaleshift/internal/store"
)

// segMagic identifies the segmented-index artifact format, version 1:
// a CRC32C-protected header section (options, segment directory with
// per-segment window ranges) followed by one arena section per frozen
// segment — each using the same pad-to-8 scheme as the SSIDX v3 arena
// so the format stays mmap-friendly — and a whole-file trailer.  Header
// word 4 is reserved-zero as in SSIDX (reservedRunLength).  As in
// SSIDX the arenas are versioned on their own, and only the current
// direction-box arena is served (flatFromSection): LoadSegments rebuilds
// a segment in any other from the store.
var segMagic = []byte("SSSEG\x01")

// segVersions lists the format versions LoadSegments accepts.
var segVersions = []byte{1}

// WriteSegments serializes the published manifest's frozen segments in
// the SSSEG v1 format.  The mutable delta is not representable in an
// immutable artifact: call Compact first (ssgen does), or expect an
// error when uncompacted windows remain.  The store is persisted
// separately, exactly as with Index.WriteBinary.
func (g *SegmentedIndex) WriteSegments(w io.Writer) error {
	write, release, err := g.SegmentWriter()
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
func (g *SegmentedIndex) SegmentWriter() (write func(io.Writer) error, release func(), err error) {
	set, err := g.PinSegments()
	if err != nil {
		return nil, nil, err
	}
	return func(w io.Writer) error { return writeSegments(set.opts, set.segs, w) }, set.Release, nil
}

// writeSegments emits frozen segments in the SSSEG v1 format.
func writeSegments(opts Options, segs []*frozenSeg, w io.Writer) error {
	var head []byte
	var scratch [8]byte
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:], v)
		head = append(head, scratch[:]...)
	}
	writeU64(uint64(opts.WindowLen))
	writeU64(uint64(opts.Coefficients))
	writeU64(uint64(opts.Reduction))
	writeU64(uint64(opts.Strategy))
	writeU64(0) // reserved, see reservedRunLength
	writeU64(uint64(len(segs)))
	for _, sg := range segs {
		writeU64(uint64(sg.count))
		writeU64(uint64(len(sg.ranges)))
		for _, r := range sg.ranges {
			writeU64(uint64(r.Seq))
			writeU64(uint64(r.Lo))
			writeU64(uint64(r.Hi))
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

// segDir is one segment's entry in a segment directory: its window
// count and the window ranges it covers, in (Seq, Lo) order.
type segDir struct {
	count  int
	ranges []winRange
}

// segHeader is a parsed SSSEG header section.
type segHeader struct {
	opts Options // Tree is the default until a segment's arena says otherwise
	dirs []segDir
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

// readOptions reads the four option words every segment artifact
// starts with.
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

// parseSegHeader parses an SSSEG header section: the options, the
// reserved word, and the segment directory.  It checks the directory's
// shape only; checkCoverage holds it against a store.
func parseSegHeader(head []byte) (segHeader, error) {
	r := &u64Reader{b: head}
	opts, err := r.readOptions()
	if err != nil {
		return segHeader{}, err
	}
	var reserved, nsegs uint64
	if err := r.words(&reserved, &nsegs); err != nil {
		return segHeader{}, err
	}
	if err := reservedRunLength(reserved); err != nil {
		return segHeader{}, err
	}
	// Each segment needs at least two words, so a hostile count fails
	// here long before any large allocation.
	if nsegs > uint64(r.left()/16) {
		return segHeader{}, fmt.Errorf("core: %d segments claimed in %d header bytes: %w", nsegs, r.left(), ErrTruncated)
	}
	h := segHeader{opts: opts, dirs: make([]segDir, 0, nsegs)}
	for i := 0; i < int(nsegs); i++ {
		d, err := r.readDir(i)
		if err != nil {
			return segHeader{}, err
		}
		h.dirs = append(h.dirs, d)
	}
	if r.left() != 0 {
		return segHeader{}, fmt.Errorf("core: %d trailing header bytes: %w", r.left(), ErrChecksum)
	}
	return h, nil
}

// checkCoverage holds a segment directory against st: every range
// in bounds, and the list, in order, tiling each sequence's windows
// contiguously from zero — no overlaps, no gaps, every window in one
// segment.  It returns how many windows of each sequence the segments
// cover; the rest belong to the delta.
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

// LoadSegments reopens a segmented index written by WriteSegments,
// attaching it to st (the same store, or one that has since GROWN —
// windows beyond the artifact's coverage are re-extracted into the
// delta, which is what makes a restart with a WAL replay exact).
// Every section is CRC-checked before parsing and the segment
// directory is validated structurally: in-bounds ranges, contiguous
// per-sequence coverage starting at zero, counts consistent with each
// segment's tree.  Corruption surfaces as a typed error, never a
// panic and never wrong results.  A segment whose arena checksums but
// cannot be served as it is — an older arena layout, an MBR directory,
// a tree that disagrees with its directory entry — is rebuilt from st
// over the entry's ranges with the bulk build, and reported.
func LoadSegments(r io.Reader, st *store.Store) (*SegmentedIndex, []SegmentRebuild, error) {
	br := binio.NewReader(r)
	if _, err := br.MagicVersions(segMagic, segVersions...); err != nil {
		return nil, nil, fmt.Errorf("core: reading magic: %w", err)
	}
	headBytes, err := br.Section(maxIndexSection)
	if err != nil {
		return nil, nil, fmt.Errorf("core: header section: %w", err)
	}
	h, err := parseSegHeader(headBytes)
	if err != nil {
		return nil, nil, err
	}
	next, err := checkCoverage(h.dirs, st, h.opts.WindowLen)
	if err != nil {
		return nil, nil, err
	}
	// NewIndex validates the options and builds the feature map; the
	// unbuilt shell is kept only for that (no tree of its own).
	ix, err := NewIndex(st, h.opts)
	if err != nil {
		return nil, nil, err
	}
	frozen := make([]*frozenSeg, len(h.dirs))
	var rebuilt []SegmentRebuild
	for i, d := range h.dirs {
		body, err := br.Section(maxIndexSection)
		if err != nil {
			return nil, nil, fmt.Errorf("core: segment %d arena section: %w", i, err)
		}
		sg, err := segmentFromArena(i, body, d, ix.fmap.Dim())
		if err != nil {
			rebuilt = append(rebuilt, SegmentRebuild{Path: fmt.Sprintf("segment %d", i), Err: err})
			continue
		}
		frozen[i] = sg
	}
	if err := br.Trailer(); err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	g, err := assembleSegments(st, ix, h.dirs, frozen, next, nil)
	if err != nil {
		return nil, nil, err
	}
	return g, rebuilt, nil
}
