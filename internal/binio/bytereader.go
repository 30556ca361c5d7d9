package binio

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// ByteReader parses Writer framing directly from an in-memory (or
// memory-mapped) byte slice.  Unlike Reader it never copies payloads —
// Section returns subslices of the input — which is what makes
// zero-copy artifact serving possible: the returned bytes stay valid
// exactly as long as the backing slice (for a Mapping, until Close).
type ByteReader struct {
	data []byte
	off  int
}

// NewByteReader starts parsing the framed artifact in data.
func NewByteReader(data []byte) *ByteReader {
	return &ByteReader{data: data}
}

// Offset returns the current parse position — the file offset of the
// next byte to be consumed.
func (br *ByteReader) Offset() int { return br.off }

func (br *ByteReader) take(n int) ([]byte, error) {
	if n < 0 || len(br.data)-br.off < n {
		return nil, fmt.Errorf("%w (unexpected end of input)", ErrTruncated)
	}
	p := br.data[br.off : br.off+n : br.off+n]
	br.off += n
	return p, nil
}

// Magic consumes and checks the artifact's magic with the same
// semantics as Reader.Magic.
func (br *ByteReader) Magic(want []byte) error {
	got, err := br.take(len(want))
	if err != nil {
		return err
	}
	if string(got) == string(want) {
		return nil
	}
	if string(got[:len(got)-1]) == string(want[:len(want)-1]) {
		return fmt.Errorf("%w: format version %d (this build reads version %d)",
			ErrVersion, got[len(got)-1], want[len(want)-1])
	}
	return fmt.Errorf("bad magic %q (want %q)", got, want)
}

// Section reads one length-prefixed payload, verifies its CRC32C, and
// returns the payload as a subslice of the input (no copy).
func (br *ByteReader) Section(limit uint64) ([]byte, error) {
	payload, err := br.SectionLazy(limit)
	if err != nil {
		return nil, err
	}
	want := binary.LittleEndian.Uint32(br.data[br.off-4:])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, fmt.Errorf("section payload: %w (crc %08x, want %08x)", ErrChecksum, got, want)
	}
	return payload, nil
}

// SectionLazy reads one length-prefixed payload WITHOUT verifying its
// checksum, returning it as a subslice of the input: how a reader skips
// a large section it does not use.  Callers must verify the bytes out
// of band before trusting them.
func (br *ByteReader) SectionLazy(limit uint64) ([]byte, error) {
	lb, err := br.take(8)
	if err != nil {
		return nil, fmt.Errorf("section length: %w", err)
	}
	n := binary.LittleEndian.Uint64(lb)
	if n > limit {
		return nil, fmt.Errorf("implausible section length %d (limit %d): %w", n, limit, ErrChecksum)
	}
	payload, err := br.take(int(n))
	if err != nil {
		return nil, fmt.Errorf("section payload: %w", err)
	}
	if _, err := br.take(4); err != nil {
		return nil, fmt.Errorf("section checksum: %w", err)
	}
	return payload, nil
}

// Trailer verifies the whole-file CRC32C (over every byte before it)
// and that nothing follows it.  O(n) in the artifact size.
func (br *ByteReader) Trailer() error {
	tb, err := br.take(4)
	if err != nil {
		return fmt.Errorf("trailer: %w", err)
	}
	if br.off != len(br.data) {
		return fmt.Errorf("trailer: %d trailing bytes after artifact end", len(br.data)-br.off)
	}
	want := binary.LittleEndian.Uint32(tb)
	if sum := crc32.Checksum(br.data[:br.off-4], castagnoli); sum != want {
		return fmt.Errorf("trailer: %w (file crc %08x, want %08x)", ErrChecksum, sum, want)
	}
	return nil
}
