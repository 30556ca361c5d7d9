package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"scaleshift/internal/atomicfile"
	"scaleshift/internal/bench/rstar"
	"scaleshift/internal/binio"
	"scaleshift/internal/engine"
	"scaleshift/internal/rtree"
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

// TestFrozenIndexEquivalence asserts that a fold is invisible when
// nothing was changed: the arena rebuilt from the store over the same
// windows returns bit-identical results and identical deterministic
// stats for every search family, on however many workers it was built.
func TestFrozenIndexEquivalence(t *testing.T) {
	ix := buildTestIndex(t, testOptions(), 8, 120)
	qs := testQueries(t, ix, 6)
	eps := 8.0
	wantR, wantNN, wantB, wantS := runAllSearches(t, ix, qs, eps)

	for _, workers := range []int{1, 3} {
		old := arena(t, ix)
		if err := ix.rebuild(context.Background(), workers, nil, func(next []int) ([]int, error) { return next, nil }); err != nil {
			t.Fatal(err)
		}
		if arena(t, ix) == old {
			t.Fatal("the fold kept the old arena")
		}
		gotR, gotNN, gotB, gotS := runAllSearches(t, ix, qs, eps)
		if !reflect.DeepEqual(wantR, gotR) {
			t.Fatalf("workers=%d: range results diverged after a fold", workers)
		}
		if !reflect.DeepEqual(wantNN, gotNN) {
			t.Fatalf("workers=%d: k-NN results diverged after a fold", workers)
		}
		if !reflect.DeepEqual(wantB, gotB) {
			t.Fatalf("workers=%d: batch/long results diverged after a fold", workers)
		}
		if !reflect.DeepEqual(wantS, gotS) {
			t.Fatalf("workers=%d: search stats diverged after a fold:\n%+v\nvs\n%+v", workers, wantS, gotS)
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

// mutatedOracle answers q by sequential scan over every sequence of st
// but removed (none when negative): the windows an index that
// unindexed it still covers.
func mutatedOracle(t *testing.T, st *store.Store, q Query, removed int) []seqscan.Result {
	t.Helper()
	var all []seqscan.Result
	var err error
	if q.K > 0 {
		k := q.K
		if removed >= 0 {
			k += max(0, st.SequenceLen(removed)-len(q.Vec)+1)
		}
		all, err = seqscan.Nearest(st, q.Vec, k, nil)
	} else {
		var keep seqscan.Filter
		if q.Costs != (CostBounds{}) {
			keep = q.Costs.Allow
		}
		all, err = seqscan.Search(st, q.Vec, q.Eps, keep, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	kept := all[:0]
	for _, r := range all {
		if r.Seq != removed {
			kept = append(kept, r)
		}
	}
	if q.K > 0 && len(kept) > q.K {
		kept = kept[:q.K]
	}
	return kept
}

// TestMutatedIndexAnswers is the write path's differential: every
// mutator, on a bulk-built, an insert-built, a file-mapped and an empty
// index, leaves an
// index that answers the moment it returns — range, cost-bounded,
// limited, long and k-NN queries, Float64bits-equal to a sequential scan
// of the indexed windows — and answers the same after Freeze, which
// leaves a direction-box arena that a tight probe reads as it reads one
// built from scratch over the same windows.
func TestMutatedIndexAnswers(t *testing.T) {
	opts := testOptions()
	wl := opts.WindowLen
	tail := make([]float64, 2*wl+10)
	for i := range tail { // no two windows alike: k-NN ties have no order
		tail[i] = 40 + float64(i*i%17) + math.Sin(float64(i))
	}
	ctx := context.Background()
	inf := math.Inf(1)

	built := func(build func(*Index) error) *Index {
		ix, err := NewIndex(populatedStore(t, 5, 90, 3), opts)
		if err == nil {
			err = build(ix)
		}
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	bases := map[string]func() *Index{
		"bulk-built": func() *Index { return built((*Index).BuildBulk) },
		// An MBR directory until the first fold.
		"insert-built": func() *Index { return built(func(ix *Index) error { return ix.BuildWith(rstar.Load) }) },
		"mapped": func() *Index {
			src := built((*Index).BuildBulk)
			path := filepath.Join(t.TempDir(), "ix.v3")
			if err := atomicfile.WriteFile(path, src.WriteBinary); err != nil {
				t.Fatal(err)
			}
			ix, err := LoadIndexFile(path, src.Store())
			if err != nil || len(ix.mappings) == 0 {
				t.Fatalf("mapping the artifact: %v", err)
			}
			return ix
		},
		"empty": func() *Index {
			ix, err := NewIndex(store.New(), opts)
			if err != nil {
				t.Fatal(err)
			}
			return ix
		},
	}
	for base, open := range bases {
		ix := open()
		st := ix.Store()
		removed := -1
		// Each step returns the sequence to draw the queries from.
		steps := []struct {
			name   string
			mutate func() (int, error)
		}{
			{"AppendAndIndex", func() (int, error) { return ix.AppendAndIndex("NEW", tail) }},
			// Twice: the first extension finds no extraction state for a
			// sequence the arena holds, the second continues the first's.
			{"ExtendAndIndex", func() (int, error) {
				last := st.NumSequences() - 1
				if err := ix.ExtendAndIndex(last, tail[:7]); err != nil {
					return last, err
				}
				return last, ix.ExtendAndIndex(last, tail[7:12])
			}},
			{"IndexSequence", func() (int, error) {
				seq := st.AppendSequence("RAW", tail[3:])
				return seq, ix.IndexSequence(seq)
			}},
			{"UnindexSequence", func() (int, error) {
				removed = st.NumSequences() - 2
				return removed, ix.UnindexSequence(removed)
			}},
		}
		for _, step := range steps {
			what := base + "/" + step.name
			seq, err := step.mutate()
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			w := make(vec.Vector, 2*wl)
			if err := st.Window(seq, st.SequenceLen(seq)-2*wl, 2*wl, w, nil); err != nil {
				t.Fatal(err)
			}
			long := vec.Apply(w, 0.7, 9)
			q := vec.Apply(w[wl:], 1.5, -4)
			queries := map[string]Query{
				"range":   {Vec: q, Eps: 6},
				"bounded": {Vec: q, Eps: 6, Costs: CostBounds{ScaleMin: 0.5, ScaleMax: 2, ShiftMin: -inf, ShiftMax: inf}},
				"limit":   {Vec: q, Eps: 20, Limit: 3},
				"long":    {Vec: long, Eps: 8},
				"knn":     {Vec: q, K: 3},
			}
			check := func(when string) {
				for kind, query := range queries {
					res, err := ix.Exec(ctx, query, nil)
					if err != nil {
						t.Fatalf("%s, %s, %s: %v", what, when, kind, err)
					}
					want := mutatedOracle(t, st, query, removed)
					if res.Total != len(want) {
						t.Fatalf("%s, %s, %s: total %d, the scan finds %d", what, when, kind, res.Total, len(want))
					}
					if query.Limit > 0 && len(want) > query.Limit {
						want = want[:query.Limit]
					}
					if err := sameAsScan(res.Matches, want); err != nil {
						t.Fatalf("%s, %s, %s: %v", what, when, kind, err)
					}
					if kind == "range" && seq != removed && len(want) == 0 {
						t.Fatalf("%s, %s: the disguised window of sequence %d was not found", what, when, seq)
					}
				}
			}
			check("before Freeze")
			// Saved with the delta pending, the artifact holds it folded.
			var buf bytes.Buffer
			if err := ix.WriteBinary(&buf); err != nil {
				t.Fatalf("%s: writing with a delta pending: %v", what, err)
			}
			saved, err := LoadIndex(&buf, st)
			if err != nil {
				t.Fatalf("%s: reopening: %v", what, err)
			}
			live := ix
			ix = saved
			check("saved before Freeze and reopened")
			ix = live
			freeze(t, ix)
			check("after Freeze")

			if ix.delta.n != 0 || len(ix.frozen) != 1 || ix.Directory() != DirectoryBox {
				t.Fatalf("%s: Freeze left %d delta windows, %d frozen segments, a %s directory", what, ix.delta.n, len(ix.frozen), ix.Directory())
			}
			// A from-scratch build over the same windows.
			scratch := store.New()
			names, vals := fullSequences(t, st)
			for s := range names {
				if s != removed {
					scratch.AppendSequence(names[s], vals[s])
				}
			}
			fresh, err := NewIndex(scratch, opts)
			if err == nil {
				err = fresh.BuildBulk()
			}
			if err != nil {
				t.Fatal(err)
			}
			var got, want SearchStats
			tight := Query{Vec: q, Eps: 0.5, Force: engine.PathRTree}
			if _, err := ix.Exec(ctx, tight, &got); err != nil {
				t.Fatal(err)
			}
			if _, err := fresh.Exec(ctx, tight, &want); err != nil {
				t.Fatal(err)
			}
			if d := got.IndexNodeAccesses - want.IndexNodeAccesses; want.IndexNodeAccesses == 0 || 50*max(d, -d) > want.IndexNodeAccesses {
				t.Fatalf("%s: a tight probe reads %d nodes, %d of a from-scratch build", what, got.IndexNodeAccesses, want.IndexNodeAccesses)
			}
		}
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMutateWhileQuerying runs AppendAndIndex and ExtendAndIndex on one
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
			err = ix.ExtendAndIndex(seq, noise(7))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()

	for i, q := range qs {
		want, err := seqscan.Search(st, q, eps, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("query %d matches nothing", i)
		}
		for k, got := range answers[i] {
			if err := sameAsScan(got, want); err != nil {
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
		if err := x.ExtendAndIndex(5, extra); err != nil {
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
	qs := testQueries(t, ref, 4)
	wantR, wantNN, _, _ := runAllSearches(t, ref, qs, 8.0)
	gotR, gotNN, _, _ := runAllSearches(t, ix, qs, 8.0)
	if !reflect.DeepEqual(wantR, gotR) || !reflect.DeepEqual(wantNN, gotNN) {
		t.Fatal("bulk-built index diverged from the reference after the same edits")
	}
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
	fresh := freshIndex(t, st, testOptions())
	qs := testQueries(t, fresh, 4)
	wantR, wantNN, wantB, _ := runAllSearches(t, fresh, qs, 8)
	gotR, gotNN, gotB, _ := runAllSearches(t, ix, qs, 8)
	if !reflect.DeepEqual(wantR, gotR) || !reflect.DeepEqual(wantNN, gotNN) || !reflect.DeepEqual(wantB, gotB) {
		t.Fatalf("%s: the rebuilt index answers differently from a fresh build", path)
	}
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
	fresh := freshIndex(t, st, g.Options())
	for i, q := range testQueries(t, fresh, 4) {
		for _, query := range []Query{{Vec: q, Eps: 8}, {Vec: q, Eps: 8, Force: engine.PathRTree}, {Vec: q, K: 3}} {
			want, _, err := run(context.Background(), fresh, query, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := run(context.Background(), g, query, nil)
			if err == nil {
				err = sameMatches(got, want)
			}
			if err != nil {
				t.Fatalf("%s: query %d %+v: %v", what, i, query, err)
			}
		}
	}
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
	qs := testQueries(t, fresh, 4)
	wantR, wantNN, wantB, _ := runAllSearches(t, fresh, qs, 8)
	inserted, err := NewIndex(st, testOptions())
	if err == nil {
		err = inserted.BuildWith(rstar.Load)
	}
	if err != nil || inserted.Directory() != rtree.DirectoryMBR {
		t.Fatalf("an insert-built tree: %v, %s directory", err, inserted.Directory())
	}
	gotR, gotNN, gotB, _ := runAllSearches(t, inserted, qs, 8)
	if !reflect.DeepEqual(wantR, gotR) || !reflect.DeepEqual(wantNN, gotNN) || !reflect.DeepEqual(wantB, gotB) {
		t.Fatal("insert-built: answers differ from a fresh direction-box build")
	}
	for i, q := range qs {
		var stats SearchStats
		res, err := inserted.Exec(context.Background(), Query{Vec: q, Eps: 8, Force: engine.PathRTree}, &stats)
		if err == nil && stats.IndexNodeAccesses == 0 {
			err = errors.New("no node read")
		}
		if err == nil {
			err = sameMatches(res.Matches, wantR[i])
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
