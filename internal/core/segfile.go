package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"strings"

	"scaleshift/internal/binio"
	"scaleshift/internal/store"
)

// Segment files: a frozen segment persisted once, as its own artifact.
// A segment is immutable, so the bytes a checkpoint needs for it never
// change; a checkpoint writes a segment's file the first time it names
// the segment and refers to that file from then on.  The file is a
// one-segment SSSEG artifact (header section, one arena section, the
// trailer), so a recovery maps it and serves the arena in place, as
// LoadIndexFile serves an SSIDX arena.
//
// The segment list is what a checkpoint manifest says about its
// segments, as one section: the options, then per segment, in manifest
// order, its file (name, size, CRC32C of the whole file) and its window
// ranges.  The ranges are in the list, not only in the files, so that a
// segment whose file is missing or damaged is rebuilt from the store —
// segments are derived state; the store beside the list is the data.

// SegmentFile names one segment's artifact file inside a segment
// directory, with the size and checksum a reader checks it against
// before anything in it is used.  CRC is the CRC32C of the segment's
// arena, as the file's arena section records it: it identifies the
// content.  (The CRC32C over a whole binio artifact does not: every
// section ends in its own CRC32C, and CRC32C over a message followed by
// its CRC is a constant, so files with equal section lengths sum alike.)
type SegmentFile struct {
	Name string
	Size int64
	CRC  uint32
}

// maxSegmentName bounds a file name in a segment list.
const maxSegmentName = 255

// durableFile records where a frozen segment already sits as its own
// file: the segment directory and the file in it.
type durableFile struct {
	dir  string
	file SegmentFile
}

// SegmentSet is one published generation's frozen segments, pinned for
// a checkpoint: they stay valid, and their arenas mapped, until Release.
type SegmentSet struct {
	opts    Options
	segs    []*frozenSeg
	release func()
}

// PinSegments pins the published manifest's frozen segments.  It errors
// when the manifest still has uncompacted delta windows: a checkpoint
// compacts first, under the same lock it pins under.
func (g *SegmentedIndex) PinSegments() (*SegmentSet, error) {
	pin := g.cell.Acquire()
	man := pin.Value()
	if man.delta.n > 0 {
		pin.Release()
		return nil, fmt.Errorf("core: %d uncompacted delta windows; run Compact before writing segments", man.delta.n)
	}
	return &SegmentSet{opts: g.opts, segs: man.frozen, release: pin.Release}, nil
}

// Release drops the pin.
func (s *SegmentSet) Release() { s.release() }

// Len is the number of segments.
func (s *SegmentSet) Len() int { return len(s.segs) }

// File reports the file segment i already has in dir, if any: one it
// was loaded from, or one SetFile recorded.
func (s *SegmentSet) File(i int, dir string) (SegmentFile, bool) {
	if d := s.segs[i].file.Load(); d != nil && d.dir == dir {
		return d.file, true
	}
	return SegmentFile{}, false
}

// SetFile records that segment i is durable in dir as f, so no later
// checkpoint writes it again.
func (s *SegmentSet) SetFile(i int, dir string, f SegmentFile) {
	s.segs[i].file.Store(&durableFile{dir: dir, file: f})
}

// WriteFile streams segment i as a one-segment SSSEG artifact: the
// bytes of its file.
func (s *SegmentSet) WriteFile(i int, w io.Writer) error {
	return writeSegments(s.opts, s.segs[i:i+1], w)
}

// EncodeList encodes the segment list naming each segment's file in
// dir; every segment must have one (SetFile).
func (s *SegmentSet) EncodeList(dir string) ([]byte, error) {
	var b []byte
	put := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	put(uint64(s.opts.WindowLen))
	put(uint64(s.opts.Coefficients))
	put(uint64(s.opts.Reduction))
	put(uint64(s.opts.Strategy))
	put(uint64(len(s.segs)))
	for i, sg := range s.segs {
		f, ok := s.File(i, dir)
		if !ok {
			return nil, fmt.Errorf("core: segment %d has no file in %s", i, dir)
		}
		put(uint64(len(f.Name)))
		b = append(b, f.Name...)
		put(uint64(f.Size))
		put(uint64(f.CRC))
		put(uint64(sg.count))
		put(uint64(len(sg.ranges)))
		for _, r := range sg.ranges {
			put(uint64(r.Seq))
			put(uint64(r.Lo))
			put(uint64(r.Hi))
		}
	}
	return b, nil
}

// SegmentList is a parsed segment list.
type SegmentList struct {
	opts  Options
	files []SegmentFile
	dirs  []segDir
}

// ParseSegmentList parses a segment list.  It checks the list's shape —
// lengths bounded by the bytes present before anything is allocated,
// plain file names, ranges summing to their counts — and reports
// damage as ErrChecksum or ErrTruncated; Open holds it against a store.
func ParseSegmentList(b []byte) (*SegmentList, error) {
	r := &u64Reader{b: b}
	opts, err := r.readOptions()
	if err != nil {
		return nil, err
	}
	var nsegs uint64
	if err := r.words(&nsegs); err != nil {
		return nil, err
	}
	// A segment's entry is at least five words.
	if nsegs > uint64(r.left()/40) {
		return nil, fmt.Errorf("core: %d segments claimed in %d bytes: %w", nsegs, r.left(), ErrTruncated)
	}
	l := &SegmentList{opts: opts, files: make([]SegmentFile, 0, nsegs), dirs: make([]segDir, 0, nsegs)}
	for i := 0; i < int(nsegs); i++ {
		var nameLen uint64
		if err := r.words(&nameLen); err != nil {
			return nil, err
		}
		if nameLen > maxSegmentName || nameLen > uint64(r.left()) {
			return nil, fmt.Errorf("core: segment %d file name of %d bytes: %w", i, nameLen, ErrChecksum)
		}
		name := string(r.b[r.off : r.off+int(nameLen)])
		r.off += int(nameLen)
		if name == "" || name != filepath.Base(name) || strings.ContainsAny(name, `/\`) || name == "." || name == ".." {
			return nil, fmt.Errorf("core: segment %d file name %q is not a plain file name: %w", i, name, ErrChecksum)
		}
		var size, crc uint64
		if err := r.words(&size, &crc); err != nil {
			return nil, err
		}
		if size > maxIndexSection || crc > 0xFFFFFFFF {
			return nil, fmt.Errorf("core: segment %d file %s: implausible size %d or checksum %#x: %w", i, name, size, crc, ErrChecksum)
		}
		d, err := r.readDir(i)
		if err != nil {
			return nil, err
		}
		l.files = append(l.files, SegmentFile{Name: name, Size: int64(size), CRC: uint32(crc)})
		l.dirs = append(l.dirs, d)
	}
	if r.left() != 0 {
		return nil, fmt.Errorf("core: %d trailing segment-list bytes: %w", r.left(), ErrChecksum)
	}
	return l, nil
}

// Files lists the segment files, in manifest order.
func (l *SegmentList) Files() []SegmentFile { return l.files }

// SegmentRebuild reports one segment whose arena could not be served as
// it is — a segment file missing or damaged, an arena in an older layout
// or with an MBR directory — and was rebuilt from the store.  Path names
// the segment: its file, or its position in an SSSEG stream.
type SegmentRebuild struct {
	Path string
	Err  error
}

// assembleSegments makes the segmented index over st whose frozen
// segments are frozen, rebuilding every one that is nil from st with the
// bulk build — the windows of its directory entry, in a direction-box
// arena of the served segments' node shape — and whose windows past the
// segments' coverage, next, go to the delta.  The index owns mappings
// from here on, and closes them on failure.
func assembleSegments(st *store.Store, ix *Index, dirs []segDir, frozen []*frozenSeg, next []int, mappings []*binio.Mapping) (*SegmentedIndex, error) {
	for _, sg := range frozen {
		if sg != nil {
			ix.opts.Tree = sg.flat.Config()
			break
		}
	}
	g := emptySegmented(st, ix.opts, ix.fmap, nil)
	g.frozen, g.mappings = frozen, mappings
	for i, sg := range frozen {
		if sg != nil {
			continue
		}
		flat, _, err := bulkLoadRanges(context.Background(), st, ix.fmap, ix.opts, dirs[i].ranges, runtime.GOMAXPROCS(0), nil)
		if err != nil {
			g.Close()
			return nil, fmt.Errorf("core: rebuilding segment %d: %w", i, err)
		}
		frozen[i] = &frozenSeg{flat: flat, ranges: dirs[i].ranges, count: dirs[i].count}
	}
	copy(g.next, next)
	if err := g.finishInit(); err != nil {
		g.Close()
		return nil, err
	}
	return g, nil
}

// Open assembles the segmented index a segment list describes over st,
// mapping each segment's file in dir.  Every file is checked in full
// before it is used — its size and CRC32C against the list,
// its header against the list's entry, its tree structurally — and its
// arena is then served in place.  A segment whose file is missing or
// fails a check — its arena in an older layout or with an MBR directory
// included — is rebuilt from st over the list's ranges with the bulk
// build, and reported.  Open fails only when the list itself does not
// fit st; the returned index owns the mappings until Close.
func (l *SegmentList) Open(dir string, st *store.Store) (*SegmentedIndex, []SegmentRebuild, error) {
	next, err := checkCoverage(l.dirs, st, l.opts.WindowLen)
	if err != nil {
		return nil, nil, err
	}
	ix, err := NewIndex(st, l.opts)
	if err != nil {
		return nil, nil, err
	}
	frozen := make([]*frozenSeg, len(l.dirs))
	var mappings []*binio.Mapping
	var rebuilt []SegmentRebuild
	for i, f := range l.files {
		path := filepath.Join(dir, f.Name)
		sg, m, err := openSegmentFile(path, f, l.opts, l.dirs[i], ix.fmap.Dim())
		if err != nil {
			rebuilt = append(rebuilt, SegmentRebuild{Path: path, Err: err})
			continue
		}
		mappings = append(mappings, m)
		sg.file.Store(&durableFile{dir: dir, file: f})
		frozen[i] = sg
	}
	g, err := assembleSegments(st, ix, l.dirs, frozen, next, mappings)
	if err != nil {
		return nil, nil, err
	}
	return g, rebuilt, nil
}

// openSegmentFile maps one segment file and checks it against its list
// entry.  The returned mapping backs the segment's arena.
func openSegmentFile(path string, f SegmentFile, opts Options, d segDir, dim int) (sg *frozenSeg, m *binio.Mapping, err error) {
	mapped, err := binio.OpenMapping(path)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if m == nil {
			mapped.Close()
		}
	}()
	data := mapped.Data
	if int64(len(data)) != f.Size {
		return nil, nil, fmt.Errorf("core: segment file is %d bytes, the manifest says %d: %w", len(data), f.Size, ErrTruncated)
	}
	if err := binio.CheckFrame(data, len(segMagic), 2); err != nil {
		return nil, nil, fmt.Errorf("core: segment file: %w", err)
	}
	br := binio.NewByteReader(data)
	if _, err := br.MagicVersions(segMagic, segVersions...); err != nil {
		return nil, nil, fmt.Errorf("core: segment file: %w", err)
	}
	head, err := br.Section(maxIndexSection)
	if err != nil {
		return nil, nil, fmt.Errorf("core: segment file header: %w", err)
	}
	h, err := parseSegHeader(head)
	if err != nil {
		return nil, nil, err
	}
	if len(h.dirs) != 1 || !sameShape(h.opts, opts) || !sameDir(h.dirs[0], d) {
		return nil, nil, fmt.Errorf("core: segment file does not hold the segment the manifest names: %w", ErrChecksum)
	}
	// CheckFrame verified the arena section's checksum; it must also be
	// the one the manifest recorded for this segment.
	arena, err := br.SectionLazy(maxIndexSection)
	if err != nil {
		return nil, nil, fmt.Errorf("core: segment file arena: %w", err)
	}
	if crc := binary.LittleEndian.Uint32(data[br.Offset()-4:]); crc != f.CRC {
		return nil, nil, fmt.Errorf("core: segment file arena crc %08x, the manifest says %08x: %w", crc, f.CRC, ErrChecksum)
	}
	if sg, err = segmentFromArena(0, arena, d, dim); err != nil {
		return nil, nil, err
	}
	return sg, mapped, nil
}

// sameShape compares the options a segment artifact records.
func sameShape(a, b Options) bool {
	return a.WindowLen == b.WindowLen && a.Coefficients == b.Coefficients &&
		a.Reduction == b.Reduction && a.Strategy == b.Strategy
}

func sameDir(a, b segDir) bool {
	if a.count != b.count || len(a.ranges) != len(b.ranges) {
		return false
	}
	for i := range a.ranges {
		if a.ranges[i] != b.ranges[i] {
			return false
		}
	}
	return true
}
