package ckpt

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"scaleshift/internal/binio"
)

// FuzzReadCheckpoint feeds the SSCKP v2 manifest parser arbitrary
// bytes, twice: as a whole file, and as the segment-list section of an
// otherwise intact manifest, whose checksums the fuzzer could not
// forge.  Every rejection must be typed — binio's sentinels or
// ErrNotCheckpoint — and nothing may panic or allocate for a length
// the input does not hold.
//
//	go test -run '^$' -fuzz FuzzReadCheckpoint -fuzztime 30s ./internal/ckpt/
func FuzzReadCheckpoint(f *testing.F) {
	_, seg := buildSeg(f)
	dir := f.TempDir()
	base := filepath.Join(dir, "ckpt")
	meta := Meta{Generation: 3, WALOffset: 99, CreatedAt: time.Unix(0, 0)}
	segs, err := seg.PinSegments()
	if err != nil {
		f.Fatal(err)
	}
	var storeBytes bytes.Buffer
	if err := seg.Store().Snapshot().WriteBinary(&storeBytes); err != nil {
		f.Fatal(err)
	}
	if _, err := Save(base, meta, seg.Store().Snapshot().WriteBinary, segs, nil); err != nil {
		f.Fatal(err)
	}
	list, err := segs.EncodeList(SegmentDir(base))
	segs.Release()
	if err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(base)
	if err != nil {
		f.Fatal(err)
	}
	frame := func(list []byte) []byte {
		var b bytes.Buffer
		if err := writeManifest(&b, meta, func(w io.Writer) error {
			_, err := w.Write(storeBytes.Bytes())
			return err
		}, list); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	if !bytes.Equal(frame(list), good) {
		f.Fatal("re-framing the saved segment list does not reproduce the manifest")
	}

	f.Add(good)
	f.Add(list)
	f.Add([]byte{})
	f.Add([]byte("SSCKP\x01"))
	f.Add([]byte("SSCKP\x02"))
	f.Add([]byte("SSCKP\x03"))
	f.Add([]byte("SSSEG\x01"))
	f.Add(good[:len(good)/2])
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-9] ^= 0x04
	f.Add(flipped)
	long := append([]byte(nil), list...)
	long[32] = 0xFF // the segment count
	f.Add(long)
	// A manifest the build before arena version 3 saved (its segment
	// files are not read here; TestPreChangeManifest recovers them).
	old, err := os.ReadFile(filepath.Join("testdata", "arena_v2_box.ckpt"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(old)

	typed := func(t *testing.T, what string, err error) {
		if err == nil {
			return
		}
		for _, want := range []error{binio.ErrChecksum, binio.ErrTruncated, binio.ErrVersion, ErrNotCheckpoint} {
			if errors.Is(err, want) {
				return
			}
		}
		t.Fatalf("%s: untyped rejection: %v", what, err)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		m, err := parseManifest(in)
		typed(t, "as a manifest", err)
		if err == nil && m.meta.Generation < 0 {
			t.Fatalf("accepted a negative generation: %+v", m.meta)
		}
		m, err = parseManifest(frame(in))
		typed(t, "as a segment list", err)
		if err == nil {
			for _, sf := range m.list.Files() {
				if sf.Name != filepath.Base(sf.Name) || sf.Size < 0 {
					t.Fatalf("accepted segment file %+v", sf)
				}
			}
		}
	})
}
