package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"scaleshift/internal/binio"
	"scaleshift/internal/engine"
	"scaleshift/internal/seqscan"
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

// checkStatsInvariant asserts the accounting identity every search
// must satisfy: all candidates are either verified away or reported.
func checkStatsInvariant(t *testing.T, s SearchStats) {
	t.Helper()
	if s.Candidates != s.FalseAlarms+s.CostRejected+s.Results {
		t.Fatalf("stats invariant broken: Candidates=%d FalseAlarms=%d CostRejected=%d Results=%d",
			s.Candidates, s.FalseAlarms, s.CostRejected, s.Results)
	}
}

// runAllSearches exercises range, long-query, k-NN, and batch search,
// returning everything for equality comparison.  Stats are asserted
// against the accounting invariant as they stream by.
func runAllSearches(t *testing.T, ix *Index, qs []vec.Vector, eps float64) ([][]Match, [][]Match, [][]Match, []SearchStats) {
	t.Helper()
	var rangeRes, nnRes [][]Match
	var allStats []SearchStats
	for _, q := range qs {
		var s SearchStats
		m, err := search(ix, q, eps, &s)
		if err != nil {
			t.Fatal(err)
		}
		checkStatsInvariant(t, s)
		// Wall-clock fields differ run to run; blank them for equality.
		s.PlanTime, s.ProbeTime, s.VerifyTime = 0, 0, 0
		rangeRes = append(rangeRes, m)
		allStats = append(allStats, s)

		var ns SearchStats
		nn, err := nearest(ix, q, 5, &ns)
		if err != nil {
			t.Fatal(err)
		}
		nnRes = append(nnRes, nn)
	}
	// Long query: three windows stitched together.
	wl := ix.Options().WindowLen
	long := make(vec.Vector, 3*wl)
	for i := range long {
		long[i] = qs[0][i%wl] + 0.01*float64(i)
	}
	var ls SearchStats
	lm, err := search(ix, long, eps, &ls)
	if err != nil {
		t.Fatal(err)
	}
	checkStatsInvariant(t, ls)
	results, _, err := ix.ExecBatch(context.Background(), rangeQueries(qs, eps), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	var batch [][]Match
	for _, r := range results {
		batch = append(batch, r.Matches)
	}
	batch = append(batch, lm)
	return rangeRes, nnRes, batch, allStats
}

// TestFrozenIndexEquivalence asserts that the trip a mutation takes —
// the arena thawed into a builder, the builder frozen into a new arena —
// is invisible when nothing was changed: every search family returns
// bit-identical results and identical deterministic stats before and
// after, for an insert-built and for a bulk-built index.
func TestFrozenIndexEquivalence(t *testing.T) {
	for _, bulk := range []bool{false, true} {
		opts := testOptions()
		ix := buildTestIndex(t, opts, 8, 120)
		if bulk {
			fresh, err := NewIndex(ix.Store(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.BuildBulk(); err != nil {
				t.Fatal(err)
			}
			ix = fresh
		}
		if !ix.Frozen() {
			t.Fatalf("bulk=%v: a built index should be frozen", bulk)
		}
		qs := testQueries(t, ix, 6)
		eps := 8.0
		wantR, wantNN, wantB, wantS := runAllSearches(t, ix, qs, eps)

		arena := ix.flat
		if err := ix.thaw(); err != nil {
			t.Fatal(err)
		}
		if ix.Frozen() {
			t.Fatal("a pending builder should mark the index unfrozen")
		}
		if err := ix.Freeze(); err != nil {
			t.Fatal(err)
		}
		if !ix.Frozen() || ix.flat == arena {
			t.Fatalf("Freeze left frozen=%v, arena replaced=%v", ix.Frozen(), ix.flat != arena)
		}
		gotR, gotNN, gotB, gotS := runAllSearches(t, ix, qs, eps)

		if !reflect.DeepEqual(wantR, gotR) {
			t.Fatalf("bulk=%v: range results diverged after thaw and freeze", bulk)
		}
		if !reflect.DeepEqual(wantNN, gotNN) {
			t.Fatalf("bulk=%v: k-NN results diverged after thaw and freeze", bulk)
		}
		if !reflect.DeepEqual(wantB, gotB) {
			t.Fatalf("bulk=%v: batch/long results diverged after thaw and freeze", bulk)
		}
		if !reflect.DeepEqual(wantS, gotS) {
			t.Fatalf("bulk=%v: search stats diverged after thaw and freeze:\n%+v\nvs\n%+v", bulk, wantS, gotS)
		}
	}
}

// TestFileLoadedIndexEquivalence round-trips through the v3 artifact
// on disk (the mmap zero-copy path) and asserts search equality, then
// exercises VerifyArtifact and Close.
func TestFileLoadedIndexEquivalence(t *testing.T) {
	opts := testOptions()
	ix := buildTestIndex(t, opts, 8, 120)
	qs := testQueries(t, ix, 6)
	eps := 8.0
	wantR, wantNN, wantB, wantS := runAllSearches(t, ix, qs, eps)

	path := filepath.Join(t.TempDir(), "ix.v3")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.WriteBinary(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	loaded, err := LoadIndexFile(path, ix.Store())
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if !loaded.Frozen() {
		t.Fatal("file-loaded v3 index should serve from the flat arena")
	}
	if err := loaded.VerifyArtifact(); err != nil {
		t.Fatalf("VerifyArtifact on a pristine artifact: %v", err)
	}
	gotR, gotNN, gotB, gotS := runAllSearches(t, loaded, qs, eps)
	if !reflect.DeepEqual(wantR, gotR) || !reflect.DeepEqual(wantNN, gotNN) ||
		!reflect.DeepEqual(wantB, gotB) || !reflect.DeepEqual(wantS, gotS) {
		t.Fatal("file-loaded index diverged from in-memory index")
	}

	// Stream load of the same artifact agrees too.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := LoadIndex(bytes.NewReader(data), ix.Store())
	if err != nil {
		t.Fatal(err)
	}
	sR, sNN, sB, sS := runAllSearches(t, streamed, qs, eps)
	if !reflect.DeepEqual(wantR, sR) || !reflect.DeepEqual(wantNN, sNN) ||
		!reflect.DeepEqual(wantB, sB) || !reflect.DeepEqual(wantS, sS) {
		t.Fatal("stream-loaded index diverged from in-memory index")
	}
}

// TestFrozenIndexMutationThaws checks the life cycle's one rule on a
// built and on a file-loaded index: a structural mutation leaves a
// builder pending, queries are refused until Freeze, and Freeze folds
// the mutation in with nothing lost.
func TestFrozenIndexMutationThaws(t *testing.T) {
	opts := testOptions()
	built := buildTestIndex(t, opts, 4, 80)
	path := filepath.Join(t.TempDir(), "ix.v3")
	var buf bytes.Buffer
	if err := built.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndexFile(path, built.Store())
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	for _, ix := range []*Index{built, loaded} {
		before := ix.WindowCount()
		if _, err := ix.AppendAndIndex("NEW", make([]float64, 64)); err != nil {
			t.Fatal(err)
		}
		if ix.Frozen() {
			t.Fatal("mutation should leave a builder pending")
		}
		q := Query{Vec: make(vec.Vector, opts.WindowLen), Eps: 1}
		if _, err := ix.Exec(context.Background(), q, nil); !errors.Is(err, engine.ErrUnsupported) {
			t.Fatalf("Exec with a pending builder: err = %v, want ErrUnsupported", err)
		}
		freeze(t, ix)
		if got, want := ix.WindowCount(), before+(64-opts.WindowLen+1); got != want {
			t.Fatalf("window count after append+freeze = %d, want %d", got, want)
		}
		if _, err := ix.Exec(context.Background(), q, nil); err != nil {
			t.Fatalf("Exec after Freeze: %v", err)
		}
	}
}

// TestUnfrozenMutationIsRefused walks the life cycle through every
// incremental mutator, in point and in trail mode: with a builder
// pending, range, k-NN and batch queries all fail with
// engine.ErrUnsupported — the arena lacks the mutation, so an answer
// from it would be a false dismissal — and once Freeze has folded the
// builder in, the answers are the sequential scan's.
func TestUnfrozenMutationIsRefused(t *testing.T) {
	for _, opts := range []Options{testOptions(), trailOptions(4)} {
		ix := buildTestIndex(t, opts, 5, 90)
		st := ix.Store()
		wl := opts.WindowLen
		tail := make([]float64, wl+10)
		for i := range tail {
			tail[i] = 40 + float64(i*i%17)
		}
		// Each step returns the sequence whose last window it made
		// searchable.
		steps := []struct {
			name   string
			mutate func() (int, error)
		}{
			{"AppendAndIndex", func() (int, error) { return ix.AppendAndIndex("NEW", tail) }},
			{"ExtendAndIndex", func() (int, error) {
				last := st.NumSequences() - 1
				return last, ix.ExtendAndIndex(last, tail[:7])
			}},
			{"IndexSequence", func() (int, error) {
				seq := st.AppendSequence("RAW", tail)
				return seq, ix.IndexSequence(seq)
			}},
			// Unindexing alone would leave the scan covering more than the
			// index; taking the sequence out and putting it back does not.
			{"UnindexSequence", func() (int, error) {
				if err := ix.UnindexSequence(2); err != nil {
					return 2, err
				}
				return 2, ix.IndexSequence(2)
			}},
		}
		ctx := context.Background()
		for _, step := range steps {
			seq, err := step.mutate()
			if err != nil {
				t.Fatalf("%s: %v", step.name, err)
			}
			if ix.Frozen() {
				t.Fatalf("%s left no builder pending", step.name)
			}
			w := make(vec.Vector, wl)
			if err := st.Window(seq, st.SequenceLen(seq)-wl, wl, w, nil); err != nil {
				t.Fatal(err)
			}
			q := vec.Apply(w, 1.5, -4)
			const eps = 6.0
			if _, err := ix.Exec(ctx, Query{Vec: q, Eps: eps}, nil); !errors.Is(err, engine.ErrUnsupported) {
				t.Fatalf("%s: range query with a builder pending: err = %v", step.name, err)
			}
			if _, err := ix.Exec(ctx, Query{Vec: q, K: 3}, nil); !errors.Is(err, engine.ErrUnsupported) {
				t.Fatalf("%s: k-NN query with a builder pending: err = %v", step.name, err)
			}
			if _, _, err := ix.ExecBatch(ctx, rangeQueries([]vec.Vector{q, w}, eps), 2, nil); !errors.Is(err, engine.ErrUnsupported) {
				t.Fatalf("%s: batch with a builder pending: err = %v", step.name, err)
			}

			freeze(t, ix)
			got, err := search(ix, q, eps, nil)
			if err != nil {
				t.Fatalf("%s: after Freeze: %v", step.name, err)
			}
			scan, err := seqscan.Search(st, q, eps, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameAsScan(got, scan); err != nil {
				t.Fatalf("%s: after Freeze: %v", step.name, err)
			}
			if len(got) == 0 {
				t.Fatalf("%s: the disguised window was not found", step.name)
			}
			nn, err := nearest(ix, q, 3, nil)
			if err != nil {
				t.Fatalf("%s: k-NN after Freeze: %v", step.name, err)
			}
			nscan, err := seqscan.Nearest(st, q, 3, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameAsScan(nn, nscan); err != nil {
				t.Fatalf("%s: k-NN after Freeze: %v", step.name, err)
			}
		}
	}
}

// TestBulkBuiltIndexIsBornFrozen checks the loader's contract at the
// Index: a bulk build serves from the arena it emitted, Freeze has
// nothing left to do, and inserts and deletes still work — the first
// one thaws — leaving, once frozen again, the same answers as an
// insert-built index put through the same edits.
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
	if !ix.Frozen() {
		t.Fatal("a bulk build should leave the index frozen")
	}
	arena := ix.flat
	if err := ix.Freeze(); err != nil || ix.flat != arena {
		t.Fatalf("Freeze after a bulk build: err %v, arena replaced %v", err, ix.flat != arena)
	}

	extra := make([]float64, 40)
	for i := range extra {
		extra[i] = 50 + float64(i%7)
	}
	for _, x := range []*Index{ref, ix} {
		if err := x.ExtendAndIndex(5, extra); err != nil {
			t.Fatal(err)
		}
		if err := x.UnindexSequence(2); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Frozen() {
		t.Fatal("mutation should thaw the bulk-built index")
	}
	if err := ix.builder.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	freeze(t, ref)
	freeze(t, ix)
	if got, want := ix.WindowCount(), ref.WindowCount(); got != want {
		t.Fatalf("%d windows after the edits, insert-built index has %d", got, want)
	}
	qs := testQueries(t, ref, 4)
	wantR, wantNN, _, _ := runAllSearches(t, ref, qs, 8.0)
	gotR, gotNN, _, _ := runAllSearches(t, ix, qs, 8.0)
	if !reflect.DeepEqual(wantR, gotR) || !reflect.DeepEqual(wantNN, gotNN) {
		t.Fatal("bulk-built index diverged from the insert-built one after the same edits")
	}
}

// TestV3ArtifactCorruption is the exhaustive sweep over the v3 format:
// flip a bit in EVERY byte and cut the file at every offset.  The
// stream loader must reject every mutation outright; the lazy file
// loader may open some mutations, but then the deferred VerifyArtifact
// must catch them.  Nothing may panic.
func TestV3ArtifactCorruption(t *testing.T) {
	opts := testOptions()
	opts.WindowLen = 24
	ix := buildTestIndex(t, opts, 2, 40)
	st := ix.Store()
	var buf bytes.Buffer
	if err := ix.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	probe := func(mut []byte, what string, i int) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s at %d: panic %v", what, i, r)
			}
		}()
		if _, err := LoadIndex(bytes.NewReader(mut), st); err == nil {
			t.Fatalf("%s at %d: stream load accepted a corrupt artifact", what, i)
		}
		lazy, _, err := loadIndexBytes(mut, st)
		if err != nil {
			return
		}
		lazy.artifact = mut
		if err := lazy.VerifyArtifact(); err == nil {
			t.Fatalf("%s at %d: VerifyArtifact accepted a corrupt artifact", what, i)
		}
	}

	for i := range good {
		mut := append([]byte(nil), good...)
		mut[i] ^= 0x40
		probe(mut, "flip", i)
	}
	for cut := 0; cut < len(good); cut++ {
		probe(good[:cut], "cut", cut)
	}
}

// writeV2Artifact emits the previous format version so compatibility
// stays pinned by a test even though WriteBinary now produces v3.
func writeV2Artifact(t *testing.T, ix *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := binio.NewWriter(&buf)
	bw.Magic([]byte("SSIDX\x02"))
	bw.Section(ix.encodeHeader())
	tree, err := ix.flat.Thaw()
	if err != nil {
		t.Fatal(err)
	}
	var tb bytes.Buffer
	if err := tree.WriteBinary(&tb); err != nil {
		t.Fatal(err)
	}
	bw.Section(tb.Bytes())
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestV2ArtifactCompatibility loads a v2 (pointer-tree) artifact
// through both the stream and file paths and asserts it is frozen at
// load and fully equal to the live index.
func TestV2ArtifactCompatibility(t *testing.T) {
	opts := testOptions()
	ix := buildTestIndex(t, opts, 6, 100)
	qs := testQueries(t, ix, 4)
	eps := 8.0
	wantR, wantNN, wantB, wantS := runAllSearches(t, ix, qs, eps)
	v2 := writeV2Artifact(t, ix)

	streamed, err := LoadIndex(bytes.NewReader(v2), ix.Store())
	if err != nil {
		t.Fatalf("v2 stream load: %v", err)
	}
	if !streamed.Frozen() {
		t.Fatal("a v2 artifact should be frozen at load")
	}
	sR, sNN, sB, sS := runAllSearches(t, streamed, qs, eps)
	if !reflect.DeepEqual(wantR, sR) || !reflect.DeepEqual(wantNN, sNN) ||
		!reflect.DeepEqual(wantB, sB) || !reflect.DeepEqual(wantS, sS) {
		t.Fatal("v2 stream-loaded index diverged")
	}

	path := filepath.Join(t.TempDir(), "ix.v2")
	if err := os.WriteFile(path, v2, 0o644); err != nil {
		t.Fatal(err)
	}
	fromFile, err := LoadIndexFile(path, ix.Store())
	if err != nil {
		t.Fatalf("v2 file load: %v", err)
	}
	defer fromFile.Close()
	if !fromFile.Frozen() {
		t.Fatal("a v2 artifact should be frozen at load")
	}
	fR, _, _, _ := runAllSearches(t, fromFile, qs, eps)
	if !reflect.DeepEqual(wantR, fR) {
		t.Fatal("v2 file-loaded index diverged")
	}
	// Parsed into the heap, not aliasing the file, and written back as
	// an artifact that maps.
	if fromFile.mapping != nil || fromFile.artifact != nil {
		t.Fatal("a v2 artifact should not stay mapped")
	}
	var again bytes.Buffer
	if err := fromFile.WriteBinary(&again); err != nil {
		t.Fatal(err)
	}
	if _, aliased, err := loadIndexBytes(again.Bytes(), ix.Store()); err != nil || !aliased {
		t.Fatalf("a v2 artifact written back: aliased=%v, err %v", aliased, err)
	}

	// v2 corruption is rejected eagerly on both paths.
	mut := append([]byte(nil), v2...)
	mut[len(mut)/2] ^= 0x10
	if _, err := LoadIndex(bytes.NewReader(mut), ix.Store()); err == nil {
		t.Fatal("corrupt v2 accepted by stream load")
	}
	if _, _, err := loadIndexBytes(mut, ix.Store()); err == nil {
		t.Fatal("corrupt v2 accepted by byte load")
	}
}

// TestArenaV1Fixture opens artifacts the commit before arena version 2
// wrote (testdata/arena_v1.*: the bulk-built index over
// populatedStore(3, 100, 1) as SSIDX v3, and the same index as a
// one-segment SSSEG v1 — float64 planes, every point twice): both
// containers still load, converted at open — not aliasing the file,
// verified in full because nothing is left to defer — answer as a fresh
// build does, and write themselves back as the bytes a fresh build
// writes; a flipped byte is refused at open.
func TestArenaV1Fixture(t *testing.T) {
	st := populatedStore(t, 3, 100, 1)
	fresh, err := NewIndex(st, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.BuildBulk(); err != nil {
		t.Fatal(err)
	}
	qs := testQueries(t, fresh, 4)
	wantR, wantNN, wantB, wantS := runAllSearches(t, fresh, qs, 8)
	wantBytes := digestOf(t, fresh.WriteBinary)

	old, err := os.ReadFile(filepath.Join("testdata", "arena_v1.ssidx"))
	if err != nil {
		t.Fatal(err)
	}
	if len(old) < fresh.flat.ArenaSize()*3/2 {
		t.Fatalf("fixture is %d bytes, a fresh arena %d: not a version-1 arena", len(old), fresh.flat.ArenaSize())
	}
	mapped, err := LoadIndexFile(filepath.Join("testdata", "arena_v1.ssidx"), st)
	if err != nil {
		t.Fatalf("file load: %v", err)
	}
	defer mapped.Close()
	if mapped.mapping != nil || mapped.artifact != nil {
		t.Fatal("a converted arena should not alias the file")
	}
	streamed, err := LoadIndex(bytes.NewReader(old), st)
	if err != nil {
		t.Fatalf("stream load: %v", err)
	}
	for what, ix := range map[string]*Index{"file": mapped, "stream": streamed} {
		if err := ix.VerifyArtifact(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		gotR, gotNN, gotB, gotS := runAllSearches(t, ix, qs, 8)
		if !reflect.DeepEqual(wantR, gotR) || !reflect.DeepEqual(wantNN, gotNN) ||
			!reflect.DeepEqual(wantB, gotB) || !reflect.DeepEqual(wantS, gotS) {
			t.Fatalf("%s-loaded version-1 arena diverged from a fresh build", what)
		}
		if got := digestOf(t, ix.WriteBinary); got != wantBytes {
			t.Fatalf("%s-loaded version-1 arena re-serialises as %s, a fresh build as %s", what, got, wantBytes)
		}
	}

	mut := append([]byte(nil), old...)
	mut[len(mut)-200] ^= 0x04 // inside the planes
	if _, _, err := loadIndexBytes(mut, st); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt version-1 arena: %v, want a checksum error at open", err)
	}

	g, err := NewSegmentedFromIndex(fresh)
	if err != nil {
		t.Fatal(err)
	}
	oldSeg, err := os.ReadFile(filepath.Join("testdata", "arena_v1.ssseg"))
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSegments(bytes.NewReader(oldSeg), st)
	if err != nil {
		t.Fatalf("segments load: %v", err)
	}
	if got, want := digestOf(t, loaded.WriteSegments), digestOf(t, g.WriteSegments); got != want {
		t.Fatalf("version-1 segment re-serialises as %s, a fresh one as %s", got, want)
	}
	for i, q := range qs {
		got, err := search(loaded, q, 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameMatches(got, wantR[i]); err != nil {
			t.Fatalf("query %d over the version-1 segment: %v", i, err)
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
	size, windows := ix.flat.ArenaSize(), ix.WindowCount()
	t.Logf("%d windows, %d index pages, %d arena bytes (%.1f per window)", windows, ix.IndexPageCount(), size, float64(size)/float64(windows))
	if size > 20<<20 {
		t.Fatalf("arena is %d bytes, over 20 MiB", size)
	}
}

// TestLoadIndexFileMissing keeps the degraded-open contract: a missing
// artifact degrades OpenOrRebuildFile rather than failing it.
func TestLoadIndexFileMissing(t *testing.T) {
	opts := testOptions()
	st := store.New()
	st.AppendSequence("a", make([]float64, 80))
	if _, err := LoadIndexFile(filepath.Join(t.TempDir(), "nope"), st); err == nil {
		t.Fatal("missing artifact should fail LoadIndexFile")
	}
	ix, status, err := OpenOrRebuildFile(filepath.Join(t.TempDir(), "nope"), st, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !status.Degraded {
		t.Fatal("missing artifact should degrade OpenOrRebuildFile")
	}
	if deg, _ := ix.Degraded(); !deg {
		t.Fatal("index should report degraded")
	}
}
