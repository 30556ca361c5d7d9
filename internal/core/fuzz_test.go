package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"scaleshift/internal/store"
)

// FuzzLoadIndex asserts the artifact reader never panics, never
// over-allocates, and never hands back a usable index from corrupt
// bytes: whatever LoadIndex or LoadSegments — the one reader, strict
// and rebuilding — accepts must be internally consistent and
// searchable.  The seeds are a WriteBinary artifact, damaged copies of
// it, and every SSIDX fixture; FuzzLoadSegments runs the same check
// from a multi-segment SSSEG.
func FuzzLoadIndex(f *testing.F) {
	opts := testOptions()
	ix := buildTestIndex(f, opts, 6, 100)
	var buf bytes.Buffer
	if err := ix.WriteBinary(&buf); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	for _, in := range [][]byte{good, {}, []byte("SSSEG\x00"), []byte("SSSEG\x01"), []byte("SSIDX\x02"), []byte("SSIDX\x03")} {
		f.Add(in)
	}
	addDamaged(f, good)
	f.Add(leafKindArtifact(f, ix))
	// Every SSIDX v3 artifact there is: the served box-directory one and
	// those in layouts no longer read (a sub-trail MBR index, header word
	// 4 says 8; a pointer tree; arena version 1; an MBR directory).
	fixtures, _ := filepath.Glob(filepath.Join("testdata", "*.ssidx"))
	for _, path := range append(fixtures, filepath.Join("testdata", "served", "box_v3.ssidx")) {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	fuzzLoaders(f, ix.Store(), opts)
}

// FuzzLoadSegments is FuzzLoadIndex from a segment directory with more
// than one entry: malformed segment counts, overlapping or
// out-of-bounds window ranges and CRC flips must all surface as typed
// errors.  The seeds are a three-segment SSSEG that covers less than
// the store (the rest goes to the delta) and damaged copies of it.
func FuzzLoadSegments(f *testing.F) {
	opts := testOptions()
	st := buildTestIndex(f, opts, 6, 100).Store()

	// Three frozen segments over the first 60, 75 and 90 values of every
	// sequence of st.
	names, vals := fullSequences(f, st)
	short := store.New()
	for seq := range names {
		short.AppendSequence(names[seq], vals[seq][:60])
	}
	g := freshIndex(f, short, opts)
	g.MergeRatio = 0
	for _, cut := range [][2]int{{60, 75}, {75, 90}} {
		for seq := range names {
			if err := g.AppendValues(seq, vals[seq][cut[0]:cut[1]]); err != nil {
				f.Fatal(err)
			}
		}
		if err := g.Compact(); err != nil {
			f.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := g.WriteSegments(&buf); err != nil || g.Backlog().Frozen != 3 {
		f.Fatalf("three segments: %v, %d written", err, g.Backlog().Frozen)
	}
	three := buf.Bytes()

	for _, in := range [][]byte{three, {}, []byte("SSSEG\x00"), []byte("SSSEG\x01"), []byte("SSIDX\x03")} {
		f.Add(in)
	}
	addDamaged(f, three)
	fuzzLoaders(f, st, opts)
}

// addDamaged seeds f with three damaged copies of artifact a: its
// first half, a CRC flip near the end, and a flipped byte inside the
// segment directory.
func addDamaged(f *testing.F, a []byte) {
	f.Add(a[:len(a)/2])
	flipped := append([]byte(nil), a...)
	flipped[len(flipped)-2] ^= 0x40
	f.Add(flipped)
	dirFlipped := append([]byte(nil), a...)
	dirFlipped[70] ^= 0x01
	f.Add(dirFlipped)
}

// fuzzLoaders hands every input to both loaders over st and holds
// whatever either accepts to checkLoaded.
func fuzzLoaders(f *testing.F, st *store.Store, opts Options) {
	q := make([]float64, opts.WindowLen)
	if err := st.Window(0, 0, opts.WindowLen, q, nil); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		strict, err := LoadIndex(bytes.NewReader(in), st)
		if err == nil {
			checkLoaded(t, strict, q)
		}
		rebuilt, _, err := LoadSegments(bytes.NewReader(in), st)
		if err == nil {
			checkLoaded(t, rebuilt, q)
		}
	})
}

// checkLoaded holds an index a loader accepted to what a fresh one
// satisfies: counts that make sense, and a query it answers.  The CRC
// framing makes accepting anything but a genuine artifact
// astronomically unlikely.
func checkLoaded(t *testing.T, ix *Index, q []float64) {
	t.Helper()
	defer ix.Close()
	if ix.WindowCount() < 0 || ix.EntryCount() < 0 {
		t.Fatalf("negative counts: %d windows, %d entries", ix.WindowCount(), ix.EntryCount())
	}
	if _, err := search(ix, q, 0.1, nil); err != nil {
		t.Fatalf("loaded index cannot search: %v", err)
	}
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
