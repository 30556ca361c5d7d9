package binio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"
)

// artifact frames two sections the way the store and index writers do.
func artifact(t *testing.T, magic []byte, sections ...[]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Magic(magic)
	for _, s := range sections {
		w.Section(s)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func parse(in []byte, magic []byte, nSections int) error {
	r := NewReader(bytes.NewReader(in))
	if err := r.Magic(magic); err != nil {
		return err
	}
	for i := 0; i < nSections; i++ {
		if _, err := r.Section(1 << 30); err != nil {
			return err
		}
	}
	return r.Trailer()
}

var testMagic = []byte("TESTF\x02")

func TestRoundTrip(t *testing.T) {
	a := []byte("first section payload")
	b := []byte{0, 1, 2, 3, 255}
	in := artifact(t, testMagic, a, b)

	r := NewReader(bytes.NewReader(in))
	if err := r.Magic(testMagic); err != nil {
		t.Fatal(err)
	}
	ga, err := r.Section(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := r.Section(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ga, a) || !bytes.Equal(gb, b) {
		t.Fatalf("payloads changed: %q %v", ga, gb)
	}
	if err := r.Trailer(); err != nil {
		t.Fatal(err)
	}
}

func TestEmptySectionRoundTrips(t *testing.T) {
	in := artifact(t, testMagic, nil)
	if err := parse(in, testMagic, 1); err != nil {
		t.Fatal(err)
	}
}

// Every single-byte corruption anywhere in the artifact must be
// detected by some layer of the framing.
func TestEveryByteFlipDetected(t *testing.T) {
	in := artifact(t, testMagic, []byte("hello sections"), []byte("second"))
	for i := range in {
		for _, mask := range []byte{0x01, 0x80} {
			bad := append([]byte(nil), in...)
			bad[i] ^= mask
			if err := parse(bad, testMagic, 2); err == nil {
				t.Fatalf("flip of byte %d (mask %#x) went undetected", i, mask)
			}
		}
	}
}

// Every proper prefix must be rejected: truncation can never load.
func TestEveryTruncationDetected(t *testing.T) {
	in := artifact(t, testMagic, []byte("hello sections"), []byte("second"))
	for cut := 0; cut < len(in); cut++ {
		err := parse(in[:cut], testMagic, 2)
		if err == nil {
			t.Fatalf("truncation at %d went undetected", cut)
		}
		// Prefix-intact truncations must carry the typed error; flips
		// inside the cut region are covered by the flip test.
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrChecksum) {
			t.Fatalf("truncation at %d: error %v is neither ErrTruncated nor ErrChecksum", cut, err)
		}
	}
}

func TestVersionMismatchTyped(t *testing.T) {
	in := artifact(t, []byte("TESTF\x01"), []byte("x"))
	err := parse(in, testMagic, 1)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("v1 artifact against v2 reader: %v, want ErrVersion", err)
	}
	// A different identifier entirely is NOT a version problem.
	in = artifact(t, []byte("OTHER\x02"), []byte("x"))
	if err := parse(in, testMagic, 1); err == nil || errors.Is(err, ErrVersion) {
		t.Fatalf("foreign artifact: %v, want plain mismatch error", err)
	}
}

func TestImplausibleSectionLengthRejectedWithoutAllocating(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Magic(testMagic)
	w.Section([]byte("ok"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	in := buf.Bytes()
	// Overwrite the section length with a huge value: must fail fast
	// (at the limit check or at end-of-input), not allocate gigabytes.
	for _, v := range []byte{0xff, 0x7f} {
		bad := append([]byte(nil), in...)
		for i := 0; i < 8; i++ {
			bad[len(testMagic)+i] = v
		}
		if err := parse(bad, testMagic, 1); err == nil {
			t.Fatalf("huge section length (%#x) accepted", v)
		}
	}
}

func TestTrailerCatchesMissingSection(t *testing.T) {
	// Frame one section, then append a valid trailer computed over a
	// DIFFERENT framing (two sections) — i.e. bytes after the first
	// section are gone but the file does not end mid-section.  The
	// reader expecting two sections hits end-of-input: ErrTruncated.
	one := artifact(t, testMagic, []byte("only"))
	err := parse(one, testMagic, 2)
	if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrChecksum) {
		t.Fatalf("missing section: %v", err)
	}
}

func TestWriterPropagatesSinkErrors(t *testing.T) {
	w := NewWriter(failAfter{n: 3})
	w.Magic(testMagic)
	w.Section([]byte("payload"))
	if err := w.Close(); err == nil {
		t.Fatal("writer swallowed sink error")
	}
}

type failAfter struct{ n int }

func (f failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		return f.n, io.ErrShortWrite
	}
	return len(p), nil
}

// TestStreamSectionFraming streams payloads in one write, byte by byte,
// and across the internal chunk size, and requires the framing the
// format defines — u64 length, payload, CRC32C of the payload, and at
// the end the CRC32C of everything before it — spelled out here by
// hand; then checks that a fill which writes too little, too much, or
// fails makes Close fail.
func TestStreamSectionFraming(t *testing.T) {
	big := make([]byte, 2*sectionChunk+123)
	for i := range big {
		big[i] = byte(i * 7)
	}
	small := []byte("streamed payload")
	want := append([]byte(nil), testMagic...)
	for _, payload := range [][]byte{small, big, nil} {
		want = binary.LittleEndian.AppendUint64(want, uint64(len(payload)))
		want = append(want, payload...)
		want = binary.LittleEndian.AppendUint32(want, crc32.Checksum(payload, castagnoli))
	}
	want = binary.LittleEndian.AppendUint32(want, crc32.Checksum(want, castagnoli))

	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Magic(testMagic)
	w.StreamSection(int64(len(small)), func(sw io.Writer) error {
		for i := range small {
			if _, err := sw.Write(small[i : i+1]); err != nil {
				return err
			}
		}
		return nil
	})
	w.StreamSection(int64(len(big)), func(sw io.Writer) error {
		_, err := sw.Write(big)
		return err
	})
	w.StreamSection(0, func(io.Writer) error { return nil })
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("streamed sections are not framed as the format defines")
	}

	boom := errors.New("boom")
	for name, fill := range map[string]func(io.Writer) error{
		"short":   func(sw io.Writer) error { _, err := sw.Write(small[:3]); return err },
		"overrun": func(sw io.Writer) error { _, err := sw.Write(big[:len(small)+1]); return err },
		"failed":  func(io.Writer) error { return boom },
	} {
		w := NewWriter(io.Discard)
		w.StreamSection(int64(len(small)), fill)
		if err := w.Close(); err == nil {
			t.Errorf("%s fill: Close reported no error", name)
		} else if name == "failed" && !errors.Is(err, boom) {
			t.Errorf("failed fill: Close reported %v, want the fill's error", err)
		}
	}
}
