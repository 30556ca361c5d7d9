// Package binio is the shared binary-artifact framing of the index
// (SSSEG; SSIDX is read), checkpoint and store files: a 6-byte magic
// (5 identifying bytes plus a version byte), length-prefixed sections
// each protected by a CRC32C (Castagnoli) of its payload, and a
// whole-file CRC32C trailer.
//
// The framing exists so that a half-written, truncated, or bit-flipped
// artifact is always DETECTED at load — never silently served.  The
// per-section checksums localize the damage (and let parsers run only
// over verified bytes); the trailer catches files cut off between
// sections, where every prefix is individually intact.
//
// Loaders classify failures with the three sentinel errors below so
// callers can distinguish "wrong/old format" (ErrVersion) from "bytes
// are damaged" (ErrChecksum) from "file ends early" (ErrTruncated) —
// the distinction drives the CLI diagnostics and the rebuild reason
// (core.OpenOrRebuildFile).
package binio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
)

// Typed artifact-validation failures.  Match with errors.Is; loaders
// wrap them with file- and section-specific context.
var (
	// ErrChecksum reports a CRC32C mismatch: the bytes are present but
	// damaged (bit flips, overwrites, swapped sections).
	ErrChecksum = errors.New("checksum mismatch")
	// ErrTruncated reports an artifact that ends before its framing
	// says it should (crash mid-write, partial copy).
	ErrTruncated = errors.New("truncated artifact")
	// ErrVersion reports a recognized artifact of an unsupported format
	// version.
	ErrVersion = errors.New("unsupported format version")
)

// castagnoli is the CRC32C table (the polynomial with hardware support
// on amd64/arm64, used by ext4, iSCSI, and Snappy).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// sectionChunk bounds a single allocation while reading a section, so
// a corrupt length field cannot drive a huge make() before the read
// fails at end-of-input.
const sectionChunk = 1 << 20

// Writer frames sections onto an io.Writer.  Errors are sticky: the
// first failure is remembered and returned by Close, so callers may
// write the whole artifact and check once.
type Writer struct {
	w    io.Writer
	file hash.Hash32 // running CRC of every framed byte
	n    int64
	err  error
}

// NewWriter starts an artifact on w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, file: crc32.New(castagnoli)}
}

// Pos returns the number of bytes framed so far — the file offset the
// next write lands on.  Writers of alignment-sensitive payloads (the
// mmap-served index arena) use it to compute padding.
func (bw *Writer) Pos() int64 { return bw.n }

func (bw *Writer) write(p []byte) {
	if bw.err != nil {
		return
	}
	if _, err := bw.w.Write(p); err != nil {
		bw.err = err
		return
	}
	bw.file.Write(p)
	bw.n += int64(len(p))
}

func (bw *Writer) writeU64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	bw.write(b[:])
}

func (bw *Writer) writeU32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	bw.write(b[:])
}

// Magic writes the artifact's magic bytes (identifier + version).
func (bw *Writer) Magic(magic []byte) {
	bw.write(magic)
}

// Section writes one length-prefixed payload followed by its CRC32C.
func (bw *Writer) Section(payload []byte) {
	bw.StreamSection(int64(len(payload)), func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	})
}

// StreamSection writes one section of exactly n payload bytes without
// holding them: the length prefix goes out first, fill then writes the
// payload to the writer it is handed — as many Writes as it likes; each
// is checksummed and passed on at most sectionChunk bytes at a time, so
// the bytes are still in cache when they are copied out — and the
// CRC32C accumulated on the way closes the section.  A fill that fails,
// or writes more or fewer than n bytes, is an error of the artifact
// (sticky, like every other).
func (bw *Writer) StreamSection(n int64, fill func(io.Writer) error) {
	bw.writeU64(uint64(n))
	sw := sectionWriter{bw: bw, left: n}
	if err := fill(&sw); err != nil && bw.err == nil {
		bw.err = err
	}
	if sw.left != 0 && bw.err == nil {
		bw.err = fmt.Errorf("binio: section payload is %d bytes short of the %d announced", sw.left, n)
	}
	bw.writeU32(sw.crc)
}

// sectionWriter is the payload sink of one StreamSection.
type sectionWriter struct {
	bw   *Writer
	left int64
	crc  uint32
}

func (sw *sectionWriter) Write(p []byte) (int, error) {
	if int64(len(p)) > sw.left {
		if sw.bw.err == nil {
			sw.bw.err = fmt.Errorf("binio: section payload overruns the length announced by %d bytes", int64(len(p))-sw.left)
		}
		return 0, sw.bw.err
	}
	sw.left -= int64(len(p))
	for rest := p; len(rest) > 0; {
		c := rest[:min(len(rest), sectionChunk)]
		sw.crc = crc32.Update(sw.crc, castagnoli, c)
		sw.bw.write(c)
		rest = rest[len(c):]
	}
	if sw.bw.err != nil {
		return 0, sw.bw.err
	}
	return len(p), nil
}

// Close writes the whole-file trailer (the CRC32C of every byte framed
// so far) and returns the first error encountered, if any.  It does
// not close the underlying writer.
func (bw *Writer) Close() error {
	sum := bw.file.Sum32() // snapshot before the trailer bytes themselves
	bw.writeU32(sum)
	return bw.err
}

// Reader parses the framing written by Writer.
type Reader struct {
	r    io.Reader
	file hash.Hash32
}

// NewReader starts parsing an artifact from r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r, file: crc32.New(castagnoli)}
}

func (br *Reader) read(p []byte) error {
	if _, err := io.ReadFull(br.r, p); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("%w (unexpected end of input)", ErrTruncated)
		}
		return err
	}
	br.file.Write(p)
	return nil
}

func (br *Reader) readU64() (uint64, error) {
	var b [8]byte
	if err := br.read(b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

func (br *Reader) readU32() (uint32, error) {
	var b [4]byte
	if err := br.read(b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

// Magic consumes and checks the artifact's magic.  The final byte of
// want is the version: when the identifying prefix matches but the
// version byte differs, the error wraps ErrVersion (the file IS one of
// ours, just not a version this build reads); any other mismatch is a
// plain "not this kind of artifact" error.
func (br *Reader) Magic(want []byte) error {
	got := make([]byte, len(want))
	if err := br.read(got); err != nil {
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

// MagicVersions consumes the artifact's magic like Magic, but accepts
// any of the listed version bytes after want's identifying prefix and
// returns the one found.  want's own final byte names the newest
// (preferred) version for the error message.
func (br *Reader) MagicVersions(want []byte, accept ...byte) (byte, error) {
	got := make([]byte, len(want))
	if err := br.read(got); err != nil {
		return 0, err
	}
	if string(got[:len(got)-1]) != string(want[:len(want)-1]) {
		return 0, fmt.Errorf("bad magic %q (want %q)", got, want)
	}
	v := got[len(got)-1]
	for _, a := range accept {
		if v == a {
			return v, nil
		}
	}
	return 0, fmt.Errorf("%w: format version %d (this build reads version %d)",
		ErrVersion, v, want[len(want)-1])
}

// Section reads one length-prefixed payload and verifies its CRC32C.
// limit bounds the accepted payload length (a corrupt length beyond it
// is rejected outright); allocation grows chunk-by-chunk so a corrupt
// length below the limit still cannot allocate more than the input
// actually provides.
func (br *Reader) Section(limit uint64) ([]byte, error) {
	n, err := br.readU64()
	if err != nil {
		return nil, fmt.Errorf("section length: %w", err)
	}
	if n > limit {
		return nil, fmt.Errorf("implausible section length %d (limit %d): %w", n, limit, ErrChecksum)
	}
	payload := make([]byte, 0, min64(n, sectionChunk))
	for uint64(len(payload)) < n {
		chunk := n - uint64(len(payload))
		if chunk > sectionChunk {
			chunk = sectionChunk
		}
		buf := make([]byte, chunk)
		if err := br.read(buf); err != nil {
			return nil, fmt.Errorf("section payload: %w", err)
		}
		payload = append(payload, buf...)
	}
	want, err := br.readU32()
	if err != nil {
		return nil, fmt.Errorf("section checksum: %w", err)
	}
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, fmt.Errorf("section payload: %w (crc %08x, want %08x)", ErrChecksum, got, want)
	}
	return payload, nil
}

// Trailer verifies the whole-file CRC32C and must be the final call: a
// missing trailer means the artifact was cut off between sections.
func (br *Reader) Trailer() error {
	sum := br.file.Sum32() // snapshot before consuming the trailer itself
	want, err := br.readU32()
	if err != nil {
		return fmt.Errorf("trailer: %w", err)
	}
	if sum != want {
		return fmt.Errorf("trailer: %w (file crc %08x, want %08x)", ErrChecksum, sum, want)
	}
	return nil
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
