package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"scaleshift/internal/bench/rstar"
	"scaleshift/internal/binio"
	"scaleshift/internal/engine"
	"scaleshift/internal/rtree"
	"scaleshift/internal/store"
	"scaleshift/internal/vec"
)

// testQueries derives a few transformed windows from the store so
// every query has at least one guaranteed match.
func testQueries(t *testing.T, ix *Index, n int) []vec.Vector {
	t.Helper()
	st := ix.Store()
	wl := ix.Options().WindowLen
	var qs []vec.Vector
	for i := 0; i < n; i++ {
		seq := i % st.NumSequences()
		start := (i * 13) % (st.SequenceLen(seq) - wl)
		w := make(vec.Vector, wl)
		if err := st.Window(seq, start, wl, w, nil); err != nil {
			t.Fatal(err)
		}
		qs = append(qs, vec.Apply(w, 1.0+0.1*float64(i), float64(i)-2))
	}
	return qs
}

// answersLike requires got to answer range, forced-tree, long and k-NN
// queries Float64bits-identically to want, a fresh build.
func answersLike(t *testing.T, what string, want *Index, got execer) {
	t.Helper()
	qs := testQueries(t, want, 4)
	long := make(vec.Vector, 3*len(qs[0]))
	for i := range long {
		long[i] = qs[0][i%len(qs[0])] + 0.01*float64(i)
	}
	queries := []Query{{Vec: long, Eps: 8}}
	for _, q := range qs {
		queries = append(queries, Query{Vec: q, Eps: 8}, Query{Vec: q, Eps: 8, Force: engine.PathRTree}, Query{Vec: q, K: 3})
	}
	for i, query := range queries {
		w, _, err := run(context.Background(), want, query, nil)
		if err != nil {
			t.Fatal(err)
		}
		g, _, err := run(context.Background(), got, query, nil)
		if err == nil {
			err = sameMatches(g, w)
		}
		if err != nil {
			t.Fatalf("%s: query %d %+v: %v", what, i, query, err)
		}
	}
}

// mustExec is Exec failing the test on error.
func mustExec(t *testing.T, ix *Index, q Query) Result {
	t.Helper()
	res, err := ix.Exec(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestMutateWhileQuerying runs AppendAndIndex and AppendValues on one
// goroutine while two others Exec range queries against the same index:
// under -race it holds that a mutation and a query share no
// unsynchronized state.  The windows the mutations add are noise of an
// amplitude no scale and shift brings within eps of a query, so no
// answer can move while they land: every answer, from whichever
// generation it read, must be Float64bits-equal to a sequential scan
// over the final store.
func TestMutateWhileQuerying(t *testing.T) {
	ix := buildTestIndex(t, testOptions(), 6, 120)
	defer ix.Close()
	st := ix.Store()
	qs := testQueries(t, ix, 3)
	const eps = 8.0
	rng := rand.New(rand.NewSource(7))
	noise := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = 1e4 * rng.NormFloat64()
		}
		return v
	}

	ctx := context.Background()
	done := make(chan struct{})
	var mu sync.Mutex
	answers := make([][][]Match, len(qs))
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				for i, q := range qs {
					res, err := ix.Exec(ctx, Query{Vec: q, Eps: eps}, nil)
					if err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					answers[i] = append(answers[i], res.Matches)
					mu.Unlock()
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	for round := 0; round < 20; round++ {
		seq, err := ix.AppendAndIndex(fmt.Sprintf("noise%d", round), noise(50))
		if err == nil {
			err = ix.AppendValues(seq, noise(7))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()

	fresh := freshIndex(t, st, ix.Options())
	for i, q := range qs {
		want := mustExec(t, fresh, Query{Vec: q, Eps: eps}).Matches
		if len(want) == 0 {
			t.Fatalf("query %d matches nothing", i)
		}
		for k, got := range answers[i] {
			if err := sameMatches(got, want); err != nil {
				t.Fatalf("query %d, answer %d of %d: %v", i, k, len(answers[i]), err)
			}
		}
	}
}

// TestBulkBuiltIndexIsBornFrozen checks the loader's contract at the
// Index: a bulk build serves from the arena it emitted, Freeze has
// nothing left to do, and inserts and deletes still work — through the
// delta — leaving, once folded, the same answers as an index built on
// other workers and put through the same edits.
func TestBulkBuiltIndexIsBornFrozen(t *testing.T) {
	opts := testOptions()
	ref := buildTestIndex(t, opts, 6, 100)
	names, vals := fullSequences(t, ref.Store())
	st := store.New()
	for i := range names {
		st.AppendSequence(names[i], vals[i])
	}
	ix, err := NewIndex(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.BuildBulkParallel(2); err != nil {
		t.Fatal(err)
	}
	built := arena(t, ix)
	if err := ix.Freeze(); err != nil || arena(t, ix) != built {
		t.Fatalf("Freeze after a bulk build: err %v, arena replaced %v", err, arena(t, ix) != built)
	}

	extra := make([]float64, 40)
	for i := range extra {
		extra[i] = 50 + float64(i%7)
	}
	for _, x := range []*Index{ref, ix} {
		if err := x.AppendValues(5, extra); err != nil {
			t.Fatal(err)
		}
		if err := x.UnindexSequence(2); err != nil {
			t.Fatal(err)
		}
	}
	freeze(t, ref)
	freeze(t, ix)
	if got, want := ix.WindowCount(), ref.WindowCount(); got != want {
		t.Fatalf("%d windows after the edits, the reference index has %d", got, want)
	}
	answersLike(t, "after the same edits", ref, ix)
}

// TestV3ArtifactCorruption is the exhaustive sweep over the artifact
// formats: flip a bit in EVERY byte and cut the file at every offset,
// of a WriteBinary artifact (SSSEG) and of the SSIDX v3 fixture
// testdata/served/box_v3.ssidx.  LoadIndex must reject every mutation
// outright, and nothing may panic.  LoadIndexFile runs the same opener
// over the mapped bytes: no check is left for later.
func TestV3ArtifactCorruption(t *testing.T) {
	opts := testOptions()
	opts.WindowLen = 24
	ix := buildTestIndex(t, opts, 2, 40)
	var buf bytes.Buffer
	if err := ix.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		good []byte
		st   *store.Store
	}{
		{buf.Bytes(), ix.Store()},
		{readFile(t, filepath.Join("testdata", "served", "box_v3.ssidx")), populatedStore(t, 3, 100, 1)},
	} {
		probe := func(mut []byte, what string, i int) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s at %d: panic %v", what, i, r)
				}
			}()
			if _, err := LoadIndex(bytes.NewReader(mut), c.st); err == nil {
				t.Fatalf("%s at %d: LoadIndex accepted a corrupt artifact", what, i)
			}
		}
		if _, err := LoadIndex(bytes.NewReader(c.good), c.st); err != nil {
			t.Fatalf("the pristine artifact: %v", err)
		}
		for i := range c.good {
			mut := append([]byte(nil), c.good...)
			mut[i] ^= 0x40
			probe(mut, "flip", i)
		}
		for cut := 0; cut < len(c.good); cut++ {
			probe(c.good[:cut], "cut", cut)
		}
	}
}

// TestV2ArtifactRejected holds the retirement of SSIDX version 2 (the
// pointer-tree payload): testdata/pointer_v2.ssidx — buildTestIndex over
// the 6 x 100 test store, written by the last commit that had a v2 writer
// — is refused as a version error on the stream and the file path alike,
// and OpenOrRebuildFile rebuilds it.
func TestV2ArtifactRejected(t *testing.T) {
	st := buildTestIndex(t, testOptions(), 6, 100).Store()
	path := filepath.Join("testdata", "pointer_v2.ssidx")
	rebuiltArtifact(t, st, path, "format version 2")
}

// TestRunLeafArtifactRejected holds the one leaf shape at the container:
// testdata/trail8.ssidx — the same store indexed as sub-trail MBRs of 8
// windows, written by the last commit that had them — says 8 in header
// word 4, which is reserved-zero now, and is refused by that word before
// its rectangle-leaf arena is looked at; a segment artifact saying so is
// refused the same way.
func TestRunLeafArtifactRejected(t *testing.T) {
	st := buildTestIndex(t, testOptions(), 6, 100).Store()
	rebuiltArtifact(t, st, filepath.Join("testdata", "trail8.ssidx"), "header word 4 (reserved; once the sub-trail run length) is 8")

	g := freshIndex(t, st, testOptions())
	defer g.Close()
	var seg bytes.Buffer
	if err := g.WriteSegments(&seg); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadSegments(bytes.NewReader(reframed(t, seg.Bytes(), segMagic, func(sections [][]byte) {
		sections[0][8*4] = 8
	})), st); !errors.Is(err, ErrVersion) || !strings.Contains(err.Error(), "header word 4") {
		t.Fatalf("segments with header word 4 = 8: err = %v, want ErrVersion naming the word", err)
	}
}

// TestLeafKindArtifactRejected: an artifact whose arena says leaf kind 1
// in header word 9 — every checksum valid — is refused at open, from a
// stream and from a mapped file alike.
func TestLeafKindArtifactRejected(t *testing.T) {
	ix := buildTestIndex(t, testOptions(), 3, 80)
	bad := leafKindArtifact(t, ix)
	path := filepath.Join(t.TempDir(), "leaf_kind.ssseg")
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	_, streamErr := LoadIndex(bytes.NewReader(bad), ix.Store())
	_, fileErr := LoadIndexFile(path, ix.Store())
	for what, err := range map[string]error{"stream": streamErr, "file": fileErr} {
		if !errors.Is(err, ErrVersion) || !strings.Contains(err.Error(), "unsupported leaf kind 1") {
			t.Errorf("%s load: err = %v, want ErrVersion for the leaf kind", what, err)
		}
	}
}

// leafKindArtifact returns ix's artifact with arena header word 9 set to
// 1 and every checksum recomputed.
func leafKindArtifact(t testing.TB, ix *Index) []byte {
	var buf bytes.Buffer
	if err := ix.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return reframed(t, buf.Bytes(), segMagic, func(sections [][]byte) {
		arena, err := arenaFromSection(sections[1])
		if err != nil {
			t.Fatal(err)
		}
		arena[8*9] = 1
	})
}

// reframed parses the sections of a well-formed artifact, lets edit
// change them in place, and frames them again under the same magic, so
// the result differs from the original only where edit wrote — and in
// the checksums, which are valid.
func reframed(t testing.TB, artifact, magic []byte, edit func(sections [][]byte)) []byte {
	br := binio.NewByteReader(artifact)
	if err := br.Magic(magic); err != nil {
		t.Fatal(err)
	}
	var sections [][]byte
	for len(artifact)-br.Offset() > 4 {
		s, err := br.Section(maxIndexSection)
		if err != nil {
			t.Fatal(err)
		}
		sections = append(sections, append([]byte(nil), s...))
	}
	edit(sections)
	var out bytes.Buffer
	bw := binio.NewWriter(&out)
	bw.Magic(magic)
	for _, s := range sections {
		bw.Section(s)
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// rebuiltArtifact asserts that the index artifact at path, written over
// st, is refused with an ErrVersion whose text contains want by LoadIndex
// and LoadIndexFile, and that OpenOrRebuildFile rebuilds it — the reason
// reported — into a direction-box index that answers every search
// Float64bits-identically to a fresh build of st.
func rebuiltArtifact(t *testing.T, st *store.Store, path, want string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, streamErr := LoadIndex(bytes.NewReader(data), st)
	_, fileErr := LoadIndexFile(path, st)
	ix, rebuilt, err := OpenOrRebuildFile(path, st, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for what, err := range map[string]error{"stream load": streamErr, "file load": fileErr, "rebuild reason": rebuilt} {
		if !errors.Is(err, ErrVersion) || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: %s = %v, want ErrVersion naming %q", path, what, err, want)
		}
	}
	if ix.Directory() != DirectoryBox {
		t.Fatalf("%s: rebuilt with a %s directory", path, ix.Directory())
	}
	answersLike(t, path, freshIndex(t, st, testOptions()), ix)
}

// freshIndex is a bulk build of st.
func freshIndex(t testing.TB, st *store.Store, opts Options) *Index {
	t.Helper()
	ix, err := NewIndex(st, opts)
	if err == nil {
		err = ix.Build()
	}
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// rebuiltSegments asserts that the one-segment SSSEG artifact data,
// written over st, comes back rebuilt through both paths a segment
// reaches — LoadSegments over the stream, and SegmentList.Open over the
// same bytes as a checkpoint's segment file — with an ErrVersion whose
// text contains want, serving only direction-box arenas and answering
// range, forced-tree and k-NN queries like a fresh build of st.
func rebuiltSegments(t *testing.T, st *store.Store, data []byte, want string) {
	t.Helper()
	loaded, rebuilt, err := LoadSegments(bytes.NewReader(data), st)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	checkRebuilt(t, "stream", st, loaded, rebuilt, want)

	// The list is loaded's — its entry is the artifact's, rebuilt over
	// the same ranges — naming the artifact as the segment's file.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "old.sseg"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	set, err := loaded.PinSegments()
	if err != nil {
		t.Fatal(err)
	}
	set.SetFile(0, dir, SegmentFile{Name: "old.sseg", Size: int64(len(data)), CRC: binary.LittleEndian.Uint32(data[len(data)-8:])})
	enc, err := set.EncodeList(dir)
	set.Release()
	list, err2 := ParseSegmentList(enc)
	if err != nil || err2 != nil {
		t.Fatalf("segment list: %v, %v", err, err2)
	}
	opened, rebuilt, err := list.Open(dir, st)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	checkRebuilt(t, "segment file", st, opened, rebuilt, want)
}

// checkRebuilt holds g, opened over st with every segment rebuilt (as
// rebuilt reports), to rebuiltSegments' terms.
func checkRebuilt(t *testing.T, what string, st *store.Store, g *SegmentedIndex, rebuilt []SegmentRebuild, want string) {
	t.Helper()
	if len(rebuilt) != len(g.frozen) {
		t.Fatalf("%s: %d of %d segments rebuilt", what, len(rebuilt), len(g.frozen))
	}
	for i, r := range rebuilt {
		if !errors.Is(r.Err, ErrVersion) || !strings.Contains(r.Err.Error(), want) {
			t.Fatalf("%s: %s rebuilt for %v, want the version error naming %q", what, r.Path, r.Err, want)
		}
		if d := g.frozen[i].flat.Directory(); d != DirectoryBox {
			t.Fatalf("%s: segment %d serves a %s directory", what, i, d)
		}
	}
	answersLike(t, what, freshIndex(t, st, g.Options()), g)
}

// TestArenaV1Fixture holds the artifacts the commit before arena version
// 2 wrote (testdata/arena_v1.*: the bulk-built index over
// populatedStore(3, 100, 1) as SSIDX v3, and the same index as a
// one-segment SSSEG v1 — float64 planes, every point twice) to the one
// rule for an arena that cannot be served as it is: refused with a
// version error naming the arena version, and rebuilt from the store.
func TestArenaV1Fixture(t *testing.T) {
	st := populatedStore(t, 3, 100, 1)
	const want = "unsupported flat arena version 1"
	rebuiltArtifact(t, st, filepath.Join("testdata", "arena_v1.ssidx"), want)
	rebuiltSegments(t, st, readFile(t, filepath.Join("testdata", "arena_v1.ssseg")), want)
}

// readFile returns the bytes of a fixture.
func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestMBRDirectoryIsRebuilt: the artifacts the parent of the
// direction-box commit wrote for the bulk-built index over
// populatedStore(3, 100, 1) (testdata/arena_v2_mbr.ssidx and .ssseg:
// arena version 2, header word 9 = 0, Cartesian STR tiling under an MBR
// directory) are refused with a version error and rebuilt.  The MBR
// arena the experiments' insert loader builds in process (BuildWith) is
// still served as it is, answering every search — down the tree too —
// exactly as a direction-box build does.
func TestMBRDirectoryIsRebuilt(t *testing.T) {
	st := populatedStore(t, 3, 100, 1)
	const want = "MBR directory is no longer served"
	rebuiltArtifact(t, st, filepath.Join("testdata", "arena_v2_mbr.ssidx"), want)
	rebuiltSegments(t, st, readFile(t, filepath.Join("testdata", "arena_v2_mbr.ssseg")), want)

	fresh := freshIndex(t, st, testOptions())
	inserted, err := NewIndex(st, testOptions())
	if err == nil {
		err = inserted.BuildWith(rstar.Load)
	}
	if err != nil || inserted.Directory() != rtree.DirectoryMBR {
		t.Fatalf("an insert-built tree: %v, %s directory", err, inserted.Directory())
	}
	answersLike(t, "insert-built", fresh, inserted)
	for i, q := range testQueries(t, fresh, 4) {
		var stats SearchStats
		res, err := inserted.Exec(context.Background(), Query{Vec: q, Eps: 8, Force: engine.PathRTree}, &stats)
		if err == nil && stats.IndexNodeAccesses == 0 {
			err = errors.New("no node read")
		}
		if err == nil {
			err = sameMatches(res.Matches, mustExec(t, fresh, Query{Vec: q, Eps: 8}).Matches)
		}
		if err != nil {
			t.Fatalf("insert-built query %d down the tree: %v", i, err)
		}
	}
}

// TestPaperScaleArenaSize holds the index to its budget at the
// benchmark's scale: 523 000 windows at 32 B a leaf entry and 56 B a
// directory entry.  (Version 1, 104 B each, was 58 327 208 bytes.)
func TestPaperScaleArenaSize(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 1000 x 650 index")
	}
	ix, err := NewIndex(populatedStore(t, 1000, 650, 1), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.BuildBulkParallel(0); err != nil {
		t.Fatal(err)
	}
	size, windows := ix.IndexByteCount(), ix.WindowCount()
	t.Logf("%d windows, %d index pages, %d arena bytes (%.1f per window)", windows, ix.IndexPageCount(), size, float64(size)/float64(windows))
	if size > 20<<20 {
		t.Fatalf("arena is %d bytes, over 20 MiB", size)
	}
}

// TestLoadIndexFileMissing: a missing artifact fails LoadIndexFile and
// is built by OpenOrRebuildFile.
func TestLoadIndexFileMissing(t *testing.T) {
	opts := testOptions()
	st := store.New()
	st.AppendSequence("a", make([]float64, 80))
	path := filepath.Join(t.TempDir(), "nope")
	if _, err := LoadIndexFile(path, st); err == nil {
		t.Fatal("missing artifact should fail LoadIndexFile")
	}
	ix, rebuilt, err := OpenOrRebuildFile(path, st, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(rebuilt, os.ErrNotExist) {
		t.Fatalf("rebuilt = %v, want the missing file", rebuilt)
	}
	if got, want := ix.WindowCount(), 80-opts.WindowLen+1; got != want {
		t.Fatalf("built index holds %d windows, want %d", got, want)
	}
}
