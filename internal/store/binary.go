package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"scaleshift/internal/binio"
)

// storeMagic identifies the binary store format, version 2: two
// CRC32C-protected sections (header: sequence count, names, lengths;
// data: raw little-endian float64 samples) and a whole-file trailer
// checksum.  Version 1 (unchecksummed) artifacts are rejected with
// ErrVersion; rebuild them from source data.
var storeMagic = []byte("SSTOR\x02")

// Typed artifact-validation failures, re-exported from the shared
// framing package so callers can errors.Is against store.ErrChecksum
// etc. without importing internal/binio.
var (
	ErrChecksum  = binio.ErrChecksum
	ErrTruncated = binio.ErrTruncated
	ErrVersion   = binio.ErrVersion
)

// maxSequences bounds deserialization against corrupt headers.
const maxSequences = 1 << 28

// maxSectionLen bounds a single section's length claim (64 GiB of
// samples); the chunked section reader fails fast on anything the
// input cannot actually provide.
const maxSectionLen = 1 << 36

// WriteBinary serializes the store in the checksummed v2 format.  The
// format is bit-exact: ReadBinary reproduces every float64
// identically, and any torn, truncated, or bit-flipped artifact fails
// ReadBinary with a typed error instead of loading silently wrong.
//
// The receiver is the shared view, so the method also serves Snapshot:
// a checkpoint serializes a pinned snapshot off the writer lock while
// appends keep landing in the live store.
func (v *view) WriteBinary(w io.Writer) error {
	bw := binio.NewWriter(w)
	bw.Magic(storeMagic)

	var head bytes.Buffer
	var scratch [8]byte
	writeU64 := func(x uint64) {
		binary.LittleEndian.PutUint64(scratch[:], x)
		head.Write(scratch[:])
	}
	writeU64(uint64(len(v.names)))
	for seq := range v.names {
		name := v.names[seq]
		writeU64(uint64(len(name)))
		head.WriteString(name)
		writeU64(uint64(v.lengths[seq]))
	}
	bw.Section(head.Bytes())

	// Emit samples per sequence — packed region then tail — so a store
	// grown by AppendValues round-trips into fully compacted form.
	data := make([]byte, 0, 8*v.TotalValues())
	var buf [8]byte
	emit := func(vals []float64) {
		for _, x := range vals {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			data = append(data, buf[:]...)
		}
	}
	for seq := range v.names {
		pl := v.packedLen(seq)
		emit(v.data[v.offsets[seq] : v.offsets[seq]+pl])
		if tl := v.tailLen(seq); tl > 0 {
			emit(v.tails[seq][:tl])
		}
	}
	bw.Section(data)
	return bw.Close()
}

// ReadBinary parses the format written by WriteBinary into a fresh
// store.  Failures are classified: ErrVersion for recognizable
// artifacts of another format version, ErrTruncated for input that
// ends early, ErrChecksum for damaged bytes — all wrapped with
// context and matchable via errors.Is.  A value outside the numeric
// domain is a *DomainError (errors.As).
func ReadBinary(r io.Reader) (*Store, error) {
	br := binio.NewReader(r)
	if err := br.Magic(storeMagic); err != nil {
		return nil, fmt.Errorf("store: reading magic: %w", err)
	}

	head, err := br.Section(maxSectionLen)
	if err != nil {
		return nil, fmt.Errorf("store: header section: %w", err)
	}
	hr := bytes.NewReader(head)
	var scratch [8]byte
	readU64 := func() (uint64, error) {
		if _, err := io.ReadFull(hr, scratch[:]); err != nil {
			return 0, fmt.Errorf("%w (header too short)", ErrTruncated)
		}
		return binary.LittleEndian.Uint64(scratch[:]), nil
	}
	nSeqs, err := readU64()
	if err != nil {
		return nil, fmt.Errorf("store: reading sequence count: %w", err)
	}
	if nSeqs > maxSequences {
		return nil, fmt.Errorf("store: implausible sequence count %d", nSeqs)
	}
	st := New()
	total := 0
	for i := uint64(0); i < nSeqs; i++ {
		nameLen, err := readU64()
		if err != nil {
			return nil, fmt.Errorf("store: sequence %d name length: %w", i, err)
		}
		if nameLen > 1<<20 || nameLen > uint64(hr.Len()) {
			return nil, fmt.Errorf("store: implausible name length %d", nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(hr, name); err != nil {
			return nil, fmt.Errorf("store: sequence %d name: %w", i, ErrTruncated)
		}
		length, err := readU64()
		if err != nil {
			return nil, fmt.Errorf("store: sequence %d length: %w", i, err)
		}
		if length > 1<<40 {
			return nil, fmt.Errorf("store: implausible sequence length %d", length)
		}
		st.names = append(st.names, string(name))
		st.offsets = append(st.offsets, total)
		st.lengths = append(st.lengths, int(length))
		total += int(length)
	}
	if hr.Len() != 0 {
		return nil, fmt.Errorf("store: %d trailing header bytes: %w", hr.Len(), ErrChecksum)
	}

	data, err := br.Section(maxSectionLen)
	if err != nil {
		return nil, fmt.Errorf("store: data section: %w", err)
	}
	if len(data) != 8*total {
		return nil, fmt.Errorf("store: data section holds %d bytes but header implies %d: %w",
			len(data), 8*total, ErrChecksum)
	}
	st.data = make([]float64, total)
	for j := range st.data {
		st.data[j] = math.Float64frombits(binary.LittleEndian.Uint64(data[j*8:]))
	}
	if err := br.Trailer(); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	st.rebuildStats()
	if _, err := st.Domain(); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return st, nil
}
