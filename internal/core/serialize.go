package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"

	"scaleshift/internal/binio"
	"scaleshift/internal/geom"
	"scaleshift/internal/rtree"
	"scaleshift/internal/store"
)

// indexMagic identifies the binary index format, version 3: two
// CRC32C-protected sections (header: options and per-sequence indexed
// window counts; arena: the frozen flat R*-tree, padded so its arrays
// land on 8-byte file offsets) and a whole-file trailer checksum.  The
// arena is stored verbatim — little-endian uint64 arrays, then the
// float32 planes padded to a whole word (rtree.FlatTree.WriteArena) —
// so a memory-mapped artifact serves queries zero-copy (LoadIndexFile).
//
// The arena carries its own version, and the container's does not move
// with it.  Only the current arena layout with a direction-box directory
// is read (flatFromSection): a version-1 arena (float64 planes), an MBR
// directory, version 2 of the container (a pointer-tree payload in the
// second section) and version 1 (unchecksummed) are all rejected with
// ErrVersion.  An index is derived state; OpenOrRebuildFile rebuilds it
// from the store.
//
// The header section is six words and the indexed counts.  Word 4 (the
// fifth, after the strategy) is reserved and written as zero: it held
// the run length of an index whose leaf entries were sub-trail MBRs, one
// per run of consecutive windows, which no longer exists.  An artifact
// that says 2 or more there is such an index and is rejected with
// ErrVersion (see reservedRunLength); 0 and 1 always meant a point per
// window.
var indexMagic = []byte("SSIDX\x03")

// indexVersions lists the format versions LoadIndex accepts.
var indexVersions = []byte{3}

// Typed artifact-validation failures from LoadIndex, re-exported from
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

// indexHeader is the decoded first section of an index artifact.
type indexHeader struct {
	windowLen, coeffs, reduction, strategy uint64
	indexed                                []int
}

// reservedRunLength checks header word 4 of an SSIDX or SSSEG artifact
// (see indexMagic): a value of 2 or more marks an index of sub-trail MBR
// leaves, which this code no longer reads — a version error, so the
// callers that rebuild on version skew rebuild here too.
func reservedRunLength(v uint64) error {
	if v >= 2 {
		return fmt.Errorf("core: header word 4 (reserved; once the sub-trail run length) is %d: an index of one MBR per run of windows is no longer read, rebuild it from the store: %w", v, ErrVersion)
	}
	return nil
}

// encodeHeader serializes the options and the indexed counts given.
func (ix *Index) encodeHeader(indexed []int) []byte {
	var head bytes.Buffer
	var scratch [8]byte
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:], v)
		head.Write(scratch[:])
	}
	for _, v := range []uint64{
		uint64(ix.opts.WindowLen),
		uint64(ix.opts.Coefficients),
		uint64(ix.opts.Reduction),
		uint64(ix.opts.Strategy),
		0, // reserved, see reservedRunLength
		uint64(len(indexed)),
	} {
		writeU64(v)
	}
	for _, c := range indexed {
		writeU64(uint64(c))
	}
	return head.Bytes()
}

// parseIndexHeader decodes a header section, validating the sequence
// count against the store.
func parseIndexHeader(head []byte, st *store.Store) (indexHeader, error) {
	var h indexHeader
	hr := bytes.NewReader(head)
	var scratch [8]byte
	readU64 := func() (uint64, error) {
		if _, err := io.ReadFull(hr, scratch[:]); err != nil {
			return 0, fmt.Errorf("%w (header too short)", ErrTruncated)
		}
		return binary.LittleEndian.Uint64(scratch[:]), nil
	}
	var reserved, nIndexed uint64
	for _, dst := range []*uint64{&h.windowLen, &h.coeffs, &h.reduction, &h.strategy, &reserved, &nIndexed} {
		v, err := readU64()
		if err != nil {
			return h, fmt.Errorf("core: reading header: %w", err)
		}
		*dst = v
	}
	if err := reservedRunLength(reserved); err != nil {
		return h, err
	}
	if nIndexed > uint64(st.NumSequences()) {
		return h, fmt.Errorf("core: index covers %d sequences but store has %d",
			nIndexed, st.NumSequences())
	}
	h.indexed = make([]int, nIndexed)
	for i := range h.indexed {
		v, err := readU64()
		if err != nil {
			return h, fmt.Errorf("core: reading indexed counts: %w", err)
		}
		h.indexed[i] = int(v)
	}
	if hr.Len() != 0 {
		return h, fmt.Errorf("core: %d trailing header bytes: %w", hr.Len(), ErrChecksum)
	}
	return h, nil
}

// assembleIndex builds the Index shell for a loaded artifact and runs
// the store-consistency checks shared by every load path: tree
// dimensionality must match the options' feature map, and the indexed
// counts must agree with the store's sequence lengths and the tree's
// leaf-entry count (one entry per window).
func assembleIndex(h indexHeader, cfg rtree.Config, treeLen int, st *store.Store) (*Index, error) {
	opts := Options{
		WindowLen:    int(h.windowLen),
		Coefficients: int(h.coeffs),
		Reduction:    ReductionKind(h.reduction),
		Strategy:     geom.Strategy(h.strategy),
		Tree:         cfg,
	}
	ix, err := NewIndex(st, opts)
	if err != nil {
		return nil, err
	}
	if cfg.Dim != ix.fmap.Dim() {
		return nil, fmt.Errorf("core: tree dimension %d does not match options (%d)",
			cfg.Dim, ix.fmap.Dim())
	}
	total := 0
	for seq, c := range h.indexed {
		if c < 0 || (c > 0 && c+int(h.windowLen)-1 > st.SequenceLen(seq)) {
			return nil, fmt.Errorf("core: indexed count %d exceeds sequence %d (len %d)",
				c, seq, st.SequenceLen(seq))
		}
		total += c
	}
	if total != treeLen {
		return nil, fmt.Errorf("core: indexed counts imply %d leaf entries but tree holds %d",
			total, treeLen)
	}
	return ix, nil
}

// WriteBinary serializes the index — its options, per-sequence indexed
// window counts, and the frozen flat R*-tree arena — in the
// checksummed v3 format, so it can be reopened with LoadIndex (or
// memory-mapped with LoadIndexFile) without re-running
// pre-processing.  The index streams the arena it serves from; one with
// a delta pending writes what Freeze would install, folded transiently,
// its in-memory state left unchanged.  The
// underlying store is NOT included; persist it separately with
// Store.WriteBinary.
func (ix *Index) WriteBinary(w io.Writer) error {
	flat, indexed := ix.flat, ix.indexed
	if ix.delta.n > 0 {
		var err error
		flat, _, err = bulkLoadRanges(context.Background(), ix.st, ix.fmap, ix.opts, prefixRanges(ix.next), runtime.GOMAXPROCS(0), nil)
		if err != nil {
			return fmt.Errorf("core: folding the delta for writing: %w", err)
		}
		indexed = ix.next
	}
	bw := binio.NewWriter(w)
	bw.Magic(indexMagic)
	bw.Section(ix.encodeHeader(indexed))
	writeArenaSection(bw, flat)
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

// LoadIndex reopens an index written by WriteBinary, attaching it to
// st, which must be the same store (or a bit-exact copy) the index was
// built over.  Every byte of the artifact is covered by a CRC32C
// before it is parsed, and the arena is structurally validated, so
// truncation and corruption always surface as a typed error
// (ErrChecksum, ErrTruncated, ErrVersion) — never a panic and never
// wrong results.  The consistency checks against st guard the pair
// itself: an index loaded against the wrong store is rejected, not
// served.  For O(1) zero-copy opens from a file, use LoadIndexFile.
func LoadIndex(r io.Reader, st *store.Store) (*Index, error) {
	br := binio.NewReader(r)
	if _, err := br.MagicVersions(indexMagic, indexVersions...); err != nil {
		return nil, fmt.Errorf("core: reading magic: %w", err)
	}

	head, err := br.Section(maxIndexSection)
	if err != nil {
		return nil, fmt.Errorf("core: header section: %w", err)
	}
	h, err := parseIndexHeader(head, st)
	if err != nil {
		return nil, err
	}

	body, err := br.Section(maxIndexSection)
	if err != nil {
		return nil, fmt.Errorf("core: tree section: %w", err)
	}

	flat, err := flatFromSection(body)
	if err != nil {
		return nil, err
	}
	if err := br.Trailer(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// The CRCs passed, but defense in depth is cheap relative to the
	// stream read: validate so traversal is panic-free even against an
	// artifact whose checksums were deliberately recomputed.
	if err := flat.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	ix, err := assembleIndex(h, flat.Config(), flat.Len(), st)
	if err != nil {
		return nil, err
	}
	ix.install(flat, h.indexed)
	return ix, nil
}

// flatFromSection opens the arena of an arena section in place.  It is
// the one place an arena enters this package from bytes — every SSIDX
// and SSSEG load and every segment file passes through it — and it
// admits only the direction-box directory the bulk build writes: an
// arena of any other kind (an MBR directory, written before builds took
// that shape) is refused with ErrVersion, like an older arena version,
// and its caller rebuilds it from the store.
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

// loadIndexBytes opens an index artifact already resident in memory
// (typically a memory mapping).  It opens in O(1): the header
// section is small and CRC-checked, but the arena section's checksum
// and structural validation are DEFERRED (Index.VerifyArtifact) and
// the arena's arrays are reinterpreted in place, aliasing data.
func loadIndexBytes(data []byte, st *store.Store) (*Index, error) {
	br := binio.NewByteReader(data)
	if _, err := br.MagicVersions(indexMagic, indexVersions...); err != nil {
		return nil, fmt.Errorf("core: reading magic: %w", err)
	}

	head, err := br.Section(maxIndexSection)
	if err != nil {
		return nil, fmt.Errorf("core: header section: %w", err)
	}
	h, err := parseIndexHeader(head, st)
	if err != nil {
		return nil, err
	}
	body, err := br.SectionLazy(maxIndexSection)
	if err != nil {
		return nil, fmt.Errorf("core: arena section: %w", err)
	}
	if rest := len(data) - br.Offset(); rest != 4 {
		return nil, fmt.Errorf("core: %d bytes after arena section (want 4-byte trailer): %w", rest, ErrTruncated)
	}
	flat, err := flatFromSection(body)
	if err != nil {
		return nil, err
	}
	ix, err := assembleIndex(h, flat.Config(), flat.Len(), st)
	if err != nil {
		return nil, err
	}
	ix.install(flat, h.indexed)
	return ix, nil
}
