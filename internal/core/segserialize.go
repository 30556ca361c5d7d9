package core

import (
	"encoding/binary"
	"fmt"
	"io"

	"scaleshift/internal/binio"
	"scaleshift/internal/geom"
	"scaleshift/internal/rtree"
	"scaleshift/internal/store"
)

// segMagic identifies the segmented-index artifact format, version 1:
// a CRC32C-protected header section (options, segment directory with
// per-segment window ranges) followed by one arena section per frozen
// segment — each using the same pad-to-8 scheme as the SSIDX v3 arena
// so the format stays mmap-friendly — and a whole-file trailer.  Header
// word 4 is reserved-zero as in SSIDX (reservedRunLength).  As in
// SSIDX the arenas are versioned on their own: a version-1 arena is
// converted as its segment is loaded, and written back in the current
// layout by the next checkpoint.
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
	pin := g.cell.Acquire()
	man := pin.Value()
	if man.delta.n > 0 {
		pin.Release()
		return nil, nil, fmt.Errorf("core: %d uncompacted delta windows; run Compact before writing segments", man.delta.n)
	}
	return func(w io.Writer) error { return writeSegments(g.opts, man, w) }, pin.Release, nil
}

// writeSegments emits one pinned manifest in the SSSEG v1 format.
func writeSegments(opts Options, man *manifest, w io.Writer) error {
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
	writeU64(uint64(len(man.frozen)))
	for _, sg := range man.frozen {
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
	for _, sg := range man.frozen {
		writeArenaSection(bw, sg.flat)
	}
	return bw.Close()
}

// LoadSegments reopens a segmented index written by WriteSegments,
// attaching it to st (the same store, or one that has since GROWN —
// windows beyond the artifact's coverage are re-extracted into the
// delta, which is what makes a restart with a WAL replay exact).
// Every section is CRC-checked before parsing and the segment
// directory is validated structurally: in-bounds ranges, contiguous
// per-sequence coverage starting at zero, counts consistent with each
// segment's tree.  Corruption surfaces as a typed error, never a
// panic and never wrong results.
func LoadSegments(r io.Reader, st *store.Store) (*SegmentedIndex, error) {
	br := binio.NewReader(r)
	if _, err := br.MagicVersions(segMagic, segVersions...); err != nil {
		return nil, fmt.Errorf("core: reading magic: %w", err)
	}
	head, err := br.Section(maxIndexSection)
	if err != nil {
		return nil, fmt.Errorf("core: header section: %w", err)
	}

	off := 0
	readU64 := func() (uint64, error) {
		if off+8 > len(head) {
			return 0, fmt.Errorf("core: header too short: %w", ErrTruncated)
		}
		v := binary.LittleEndian.Uint64(head[off:])
		off += 8
		return v, nil
	}
	var windowLen, coeffs, reduction, strategy, reserved, nsegs uint64
	for _, dst := range []*uint64{&windowLen, &coeffs, &reduction, &strategy, &reserved, &nsegs} {
		if *dst, err = readU64(); err != nil {
			return nil, err
		}
	}
	if err := reservedRunLength(reserved); err != nil {
		return nil, err
	}
	type segDir struct {
		count  int
		ranges []winRange
	}
	// nsegs is bounded by the header's actual size: each segment needs
	// at least two u64s, so a hostile count fails the reads below long
	// before any large allocation.
	dirs := make([]segDir, 0, min(int(nsegs), len(head)/16))
	n := int(windowLen)
	next := make([]int, st.NumSequences())
	for i := 0; i < int(nsegs); i++ {
		count, err := readU64()
		if err != nil {
			return nil, err
		}
		nranges, err := readU64()
		if err != nil {
			return nil, err
		}
		d := segDir{count: int(count)}
		total := 0
		for j := 0; j < int(nranges); j++ {
			var seq, lo, hi uint64
			for _, dst := range []*uint64{&seq, &lo, &hi} {
				if *dst, err = readU64(); err != nil {
					return nil, err
				}
			}
			if seq >= uint64(st.NumSequences()) {
				return nil, fmt.Errorf("core: segment %d range covers sequence %d but store has %d", i, seq, st.NumSequences())
			}
			last := st.SequenceLen(int(seq)) - n + 1
			if lo >= hi || hi > uint64(max(last, 0)) {
				return nil, fmt.Errorf("core: segment %d has implausible window range [%d, %d) for sequence %d (len %d)",
					i, lo, hi, seq, st.SequenceLen(int(seq)))
			}
			// Manifest order must tile each sequence contiguously from
			// zero: no overlaps, no gaps, every window in one segment.
			if int(lo) != next[seq] {
				return nil, fmt.Errorf("core: segment %d range [%d, %d) of sequence %d breaks contiguous coverage (expected start %d)",
					i, lo, hi, seq, next[seq])
			}
			next[seq] = int(hi)
			total += int(hi - lo)
			d.ranges = append(d.ranges, winRange{Seq: int(seq), Lo: int(lo), Hi: int(hi)})
		}
		if total != d.count {
			return nil, fmt.Errorf("core: segment %d claims %d windows but its ranges cover %d", i, d.count, total)
		}
		dirs = append(dirs, d)
	}
	if off != len(head) {
		return nil, fmt.Errorf("core: %d trailing header bytes: %w", len(head)-off, ErrChecksum)
	}

	opts := Options{
		WindowLen:    int(windowLen),
		Coefficients: int(coeffs),
		Reduction:    ReductionKind(reduction),
		Strategy:     geom.Strategy(strategy),
		Tree:         DefaultOptions().Tree,
	}
	frozen := make([]*frozenSeg, 0, len(dirs))
	converted := false
	for i, d := range dirs {
		body, err := br.Section(maxIndexSection)
		if err != nil {
			return nil, fmt.Errorf("core: segment %d arena section: %w", i, err)
		}
		arena, err := arenaFromSection(body)
		if err != nil {
			return nil, err
		}
		flat, conv, err := rtree.FlatFromArena(arena)
		if err != nil {
			return nil, fmt.Errorf("core: segment %d: %w", i, err)
		}
		converted = converted || conv
		if err := flat.Validate(); err != nil {
			return nil, fmt.Errorf("core: segment %d: %w", i, err)
		}
		if flat.Len() != d.count {
			return nil, fmt.Errorf("core: segment %d directory claims %d windows but tree holds %d", i, d.count, flat.Len())
		}
		if i == 0 {
			opts.Tree = flat.Config()
		} else if flat.Config().Dim != opts.Tree.Dim {
			return nil, fmt.Errorf("core: segment %d dimension %d differs from segment 0 (%d)", i, flat.Config().Dim, opts.Tree.Dim)
		}
		frozen = append(frozen, &frozenSeg{flat: flat, ranges: d.ranges, count: d.count})
	}
	if err := br.Trailer(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	// NewIndex validates the options and builds the feature map; the
	// unbuilt shell is kept only for that (no tree of its own).
	ix, err := NewIndex(st, opts)
	if err != nil {
		return nil, err
	}
	if len(frozen) > 0 && frozen[0].flat.Config().Dim != ix.fmap.Dim() {
		return nil, fmt.Errorf("core: segment dimension %d does not match options (%d)",
			frozen[0].flat.Config().Dim, ix.fmap.Dim())
	}
	g := emptySegmented(st, ix.opts, ix.fmap, nil)
	g.frozen, g.converted = frozen, converted
	copy(g.next, next)
	if err := g.finishInit(); err != nil {
		return nil, err
	}
	return g, nil
}
