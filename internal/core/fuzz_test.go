package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"scaleshift/internal/stock"
	"scaleshift/internal/store"
)

// FuzzLoadIndex asserts the index loader never panics, never
// over-allocates, and never hands back a usable index from corrupt
// bytes: whatever it accepts must pass the same structural checks a
// freshly built index does.
func FuzzLoadIndex(f *testing.F) {
	st := store.New()
	cfg := stock.DefaultConfig()
	cfg.Companies = 2
	cfg.Days = 60
	if _, err := stock.Populate(st, cfg); err != nil {
		f.Fatal(err)
	}
	opts := DefaultOptions()
	opts.WindowLen = 32
	ix, err := NewIndex(st, opts)
	if err != nil {
		f.Fatal(err)
	}
	if err := ix.Build(); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.WriteBinary(&buf); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte("SSIDX\x01"))
	f.Add([]byte("SSIDX\x02"))
	f.Add(good[:len(good)/2])
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-2] ^= 0x40
	f.Add(flipped)
	// What is recognised and no longer read: a sub-trail MBR index (header
	// word 4 says 8) and an arena whose leaf-kind word is set.
	trail, err := os.ReadFile(filepath.Join("testdata", "trail8.ssidx"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(trail)
	f.Add(leafKindArtifact(f, ix))
	f.Fuzz(func(t *testing.T, in []byte) {
		ix, err := LoadIndex(bytes.NewReader(in), st)
		if err != nil {
			return
		}
		// The CRC framing makes accepting anything but the genuine
		// artifact astronomically unlikely; whatever loads must be
		// internally consistent and searchable.
		if ix.WindowCount() < 0 || ix.EntryCount() < 0 {
			t.Fatalf("negative counts: %d windows, %d entries", ix.WindowCount(), ix.EntryCount())
		}
		q := make([]float64, opts.WindowLen)
		if err := st.Window(0, 0, opts.WindowLen, q, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := search(ix, q, 0.1, nil); err != nil {
			t.Fatalf("loaded index cannot search: %v", err)
		}
	})
}

// FuzzOpenOrRebuild feeds arbitrary bytes to OpenOrRebuildFile as the
// index artifact over a good store: the open never panics and never
// fails — whatever the bytes, the index it returns (mapped, or rebuilt
// from the store) answers a fixed range query and a fixed k-NN query
// Float64bits-identically to a fresh build.
func FuzzOpenOrRebuild(f *testing.F) {
	fresh := buildTestIndex(f, testOptions(), 2, 60)
	var buf bytes.Buffer
	if err := fresh.WriteBinary(&buf); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x10
	for _, in := range [][]byte{good, {}, good[:len(good)/2], flipped, leafKindArtifact(f, fresh)} {
		f.Add(in)
	}
	for _, name := range []string{"arena_v1.ssidx", "arena_v2_mbr.ssidx", "trail8.ssidx"} {
		old, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(old)
	}
	oracle := newOpenOracle(f, fresh)
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, in []byte) {
		oracle.open(t, filepath.Join(dir, "index.ssidx"), in)
	})
}

// FuzzLoadSegments is FuzzLoadIndex for the segmented-manifest
// decoder: malformed segment counts, overlapping or out-of-bounds
// window ranges, and CRC flips must all surface as typed errors —
// never a panic, an over-allocation, or a silently wrong index.
func FuzzLoadSegments(f *testing.F) {
	st := store.New()
	cfg := stock.DefaultConfig()
	cfg.Companies = 2
	cfg.Days = 90
	if _, err := stock.Populate(st, cfg); err != nil {
		f.Fatal(err)
	}
	opts := DefaultOptions()
	opts.WindowLen = 32
	good := func() []byte {
		g, err := NewSegmentedIndex(st, opts)
		if err != nil {
			f.Fatal(err)
		}
		defer g.Close()
		// Two frozen segments so the directory has more than one entry.
		if err := g.AppendValues(0, make([]float64, 40)); err != nil {
			f.Fatal(err)
		}
		if err := g.Compact(); err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := g.WriteSegments(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}()
	// The store grew by 40 values inside the closure; reloads below see
	// the grown store, which the loader must accept (delta re-extract).
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte("SSSEG\x00"))
	f.Add([]byte("SSSEG\x01"))
	f.Add([]byte("SSIDX\x03"))
	f.Add(good[:len(good)/2])
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-2] ^= 0x40
	f.Add(flipped)
	// Flip a byte inside the segment directory region too.
	dirFlipped := append([]byte(nil), good...)
	dirFlipped[20] ^= 0x01
	f.Add(dirFlipped)
	f.Fuzz(func(t *testing.T, in []byte) {
		g, _, err := LoadSegments(bytes.NewReader(in), st)
		if err != nil {
			return
		}
		defer g.Close()
		if g.WindowCount() < 0 {
			t.Fatalf("negative window count: %d", g.WindowCount())
		}
		q := make([]float64, opts.WindowLen)
		if err := st.Window(0, 0, opts.WindowLen, q, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := search(g, q, 0.1, nil); err != nil {
			t.Fatalf("loaded segmented index cannot search: %v", err)
		}
	})
}
