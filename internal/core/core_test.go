package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"regexp"
	"sync"
	"testing"

	"scaleshift/internal/engine"
	"scaleshift/internal/query"
	"scaleshift/internal/rtree"
	"scaleshift/internal/stock"
	"scaleshift/internal/store"
	"scaleshift/internal/vec"
)

// testOptions uses a short window so small stores produce many
// windows quickly.
func testOptions() Options {
	opts := DefaultOptions()
	opts.WindowLen = 32
	return opts
}

// buildTestIndex returns a built index over a small synthetic store.
func buildTestIndex(t testing.TB, opts Options, companies, days int) *Index {
	t.Helper()
	st := store.New()
	cfg := stock.DefaultConfig()
	cfg.Companies = companies
	cfg.Days = days
	if _, err := stock.Populate(st, cfg); err != nil {
		t.Fatal(err)
	}
	ix, err := NewIndex(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Build(); err != nil {
		t.Fatal(err)
	}
	return ix
}

// freeze folds ix's pending mutations into the arena, which a search
// after an incremental mutation needs first.
func freeze(t testing.TB, ix *Index) {
	t.Helper()
	if err := ix.Freeze(); err != nil {
		t.Fatal(err)
	}
}

// arena returns the tree of ix's one frozen segment.
func arena(t testing.TB, ix *Index) *rtree.FlatTree {
	t.Helper()
	if len(ix.frozen) != 1 {
		t.Fatalf("%d frozen segments, want 1", len(ix.frozen))
	}
	return ix.frozen[0].flat
}

// execer is the query surface of an index and of a manifest pin.
type execer interface {
	Exec(context.Context, Query, *SearchStats) (Result, error)
}

// run is Exec with the Result unpacked, for the many assertions on
// (matches, explain) pairs.
func run(ctx context.Context, ix execer, q Query, stats *SearchStats) ([]Match, *engine.Explain, error) {
	res, err := ix.Exec(ctx, q, stats)
	return res.Matches, res.Explain, err
}

// search runs the common query of these suites — range (or, for a
// longer q, multipiece) within eps, unbounded costs, the default path —
// through Exec.
func search(ix execer, q vec.Vector, eps float64, stats *SearchStats) ([]Match, error) {
	res, err := ix.Exec(context.Background(), Query{Vec: q, Eps: eps}, stats)
	return res.Matches, err
}

// nearest runs an unbounded-cost k-NN query through Exec.
func nearest(ix execer, q vec.Vector, k int, stats *SearchStats) ([]Match, error) {
	res, err := ix.Exec(context.Background(), Query{Vec: q, K: k}, stats)
	return res.Matches, err
}

// rangeQueries builds a batch of range queries sharing eps.
func rangeQueries(qs []vec.Vector, eps float64) []Query {
	out := make([]Query, len(qs))
	for i, q := range qs {
		out[i] = Query{Vec: q, Eps: eps}
	}
	return out
}

// TestQuerySurfaceIsExec stops the query surface regrowing: the index
// answers every kind of query through Exec and ExecBatch alone.  The two
// remaining names are logic-free adapters the frozen benchmark/ harness
// still calls; the next benchmark PR deletes them and their entries
// here.
func TestQuerySurfaceIsExec(t *testing.T) {
	query := regexp.MustCompile(`^(Exec|Search|Nearest)`)
	want := []string{"Exec", "ExecBatch", "NearestNeighborsWithCostsContext", "SearchPlannedContext"}
	typ := reflect.TypeOf(&Index{})
	var got []string
	for i := 0; i < typ.NumMethod(); i++ {
		if name := typ.Method(i).Name; query.MatchString(name) {
			got = append(got, name)
		}
	}
	if !reflect.DeepEqual(got, want) { // NumMethod order is sorted by name
		t.Errorf("%v exports query methods %v, want exactly %v", typ, got, want)
	}
}

// TestLifecycleSurfaceIsOneOfEach pins *Index's exported build, save
// and open methods: one build (Build), one writer (WriteBinary), no
// opener (the openers are the functions LoadIndexFile,
// OpenOrRebuildFile and LoadSegments) and no IndexSequence beside the
// grow methods.  The other names are the logic-free shims the frozen
// benchmark harness calls, a statistic and a test helper, each listed
// as what it is.
func TestLifecycleSurfaceIsOneOfEach(t *testing.T) {
	lifecycle := regexp.MustCompile(`^(Build|Write|Load|Open|Read|Save|Segment|Verify|IndexSequence)`)
	want := map[string]string{
		"Build":             "the build",
		"WriteBinary":       "the writer",
		"BuildBulkParallel": "harness shim: Build on a worker count",
		"SegmentWriter":     "harness shim: WriteBinary split at its pin",
		"VerifyArtifact":    "harness shim: a no-op, every open verifies",
		"BuildStages":       "a statistic of the last build",
		"BuildOn":           "test helper (export_test.go)",
	}
	typ := reflect.TypeOf(&Index{})
	got := map[string]bool{}
	for i := 0; i < typ.NumMethod(); i++ {
		if name := typ.Method(i).Name; lifecycle.MatchString(name) {
			got[name] = true
			if _, ok := want[name]; !ok {
				t.Errorf("%v exports %s, outside the pinned build, grow, save and open surface", typ, name)
			}
		}
	}
	for name, role := range want {
		if !got[name] {
			t.Errorf("%v no longer exports %s (%s)", typ, name, role)
		}
	}
}

func TestNewIndexValidation(t *testing.T) {
	st := store.New()
	tests := []struct {
		name   string
		mutate func(*Options)
		wantOK bool
	}{
		{"default", func(o *Options) {}, true},
		{"window too short", func(o *Options) { o.WindowLen = 2 }, false},
		{"fc zero", func(o *Options) { o.Coefficients = 0 }, false},
		{"fc too large", func(o *Options) { o.Coefficients = 70; o.WindowLen = 128 }, false},
		{"bad tree", func(o *Options) { o.Tree.MinEntries = 0 }, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			tc.mutate(&opts)
			_, err := NewIndex(st, opts)
			if (err == nil) != tc.wantOK {
				t.Errorf("err=%v wantOK=%v", err, tc.wantOK)
			}
		})
	}
}

func TestBuildIndexesEveryWindow(t *testing.T) {
	opts := testOptions()
	ix := buildTestIndex(t, opts, 10, 100)
	want := 10 * (100 - opts.WindowLen + 1)
	if got := ix.WindowCount(); got != want {
		t.Errorf("WindowCount = %d, want %d", got, want)
	}
	if ix.IndexPageCount() < 2 || ix.TreeHeight() < 2 {
		t.Errorf("index too small: %d pages, height %d", ix.IndexPageCount(), ix.TreeHeight())
	}
	// Build is idempotent.
	if err := ix.Build(); err != nil {
		t.Fatal(err)
	}
	if got := ix.WindowCount(); got != want {
		t.Errorf("re-Build changed WindowCount to %d", got)
	}
}

func TestSearchValidation(t *testing.T) {
	ix := buildTestIndex(t, testOptions(), 3, 60)
	if _, err := search(ix, make(vec.Vector, 10), 1, nil); err == nil {
		t.Error("short query accepted")
	}
	if _, err := search(ix, make(vec.Vector, 32), -1, nil); err == nil {
		t.Error("negative epsilon accepted")
	}
}

func TestSearchFindsDisguisedSource(t *testing.T) {
	opts := testOptions()
	ix := buildTestIndex(t, opts, 10, 120)
	st := ix.Store()
	w := make(vec.Vector, opts.WindowLen)
	if err := st.Window(4, 37, opts.WindowLen, w, nil); err != nil {
		t.Fatal(err)
	}
	q := vec.Apply(w, 2.5, 30) // disguise
	got, err := search(ix, q, 1e-6*vec.Norm(w), nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range got {
		if m.Seq == 4 && m.Start == 37 {
			found = true
			// Transform must invert the disguise: w = (q-30)/2.5.
			if math.Abs(m.Scale-1/2.5) > 1e-9 || math.Abs(m.Shift+30/2.5) > 1e-6 {
				t.Errorf("recovered a=%v b=%v, want a=0.4 b=-12", m.Scale, m.Shift)
			}
			if m.Name != st.SequenceName(4) {
				t.Errorf("name %q", m.Name)
			}
		}
	}
	if !found {
		t.Fatal("disguised source window not found")
	}
}

func TestSearchCostBounds(t *testing.T) {
	opts := testOptions()
	ix := buildTestIndex(t, opts, 10, 120)
	st := ix.Store()
	w := make(vec.Vector, opts.WindowLen)
	if err := st.Window(2, 10, opts.WindowLen, w, nil); err != nil {
		t.Fatal(err)
	}
	q := vec.Apply(w, 2, 5)
	eps := 1e-6 * vec.Norm(w)

	// Unbounded: source is found with a = 0.5, b = -2.5.
	var statsU SearchStats
	all, err := search(ix, q, eps, &statsU)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 {
		t.Fatal("no matches unbounded")
	}
	// Bounds excluding a = 0.5 reject it.
	bounds := UnboundedCosts()
	bounds.ScaleMin, bounds.ScaleMax = 0.9, 1.1
	var statsB SearchStats
	res, err := ix.Exec(context.Background(), Query{Vec: q, Eps: eps, Costs: &bounds}, &statsB)
	if err != nil {
		t.Fatal(err)
	}
	restricted := res.Matches
	for _, m := range restricted {
		if m.Scale < 0.9 || m.Scale > 1.1 {
			t.Errorf("cost bound leaked scale %v", m.Scale)
		}
	}
	if len(restricted) >= len(all) {
		t.Errorf("bounds did not restrict: %d vs %d", len(restricted), len(all))
	}
	// Scale bounds are pushed into the index as a segment search, so
	// out-of-range candidates are pruned before post-processing.
	if statsB.Candidates >= statsU.Candidates {
		t.Errorf("segment pruning ineffective: %d candidates vs %d unbounded",
			statsB.Candidates, statsU.Candidates)
	}
	// Shift bounds cannot be pushed into the shift-eliminated index, so
	// they exercise the post-processing rejection path.
	shiftOnly := UnboundedCosts()
	shiftOnly.ShiftMin, shiftOnly.ShiftMax = 1e17, 1e18 // rejects everything
	var statsS SearchStats
	res, err = ix.Exec(context.Background(), Query{Vec: q, Eps: eps, Costs: &shiftOnly}, &statsS)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 {
		t.Errorf("impossible shift bound returned %d matches", len(res.Matches))
	}
	if statsS.CostRejected == 0 {
		t.Error("no cost rejections recorded for shift-only bounds")
	}
	// The zero CostBounds accepts only a = b = 0.
	if (CostBounds{}).Allow(0.5, 0) {
		t.Error("zero bounds accepted nonzero scale")
	}
	if !(CostBounds{}).Allow(0, 0) {
		t.Error("zero bounds rejected the identity-cost transform")
	}
}

func TestSearchStatsAccounting(t *testing.T) {
	opts := testOptions()
	ix := buildTestIndex(t, opts, 20, 200)
	st := ix.Store()
	qcfg := query.DefaultConfig()
	qcfg.N = 5
	qcfg.WindowLen = opts.WindowLen
	qs, err := query.Generate(st, qcfg)
	if err != nil {
		t.Fatal(err)
	}
	scale, err := query.SENormScale(st, opts.WindowLen, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	var agg SearchStats
	for _, q := range qs {
		var stats SearchStats
		// Keep eps well below the typical window fluctuation: windows
		// with SE-norm <= eps match every query by taking a ~ 0, so an
		// overly generous eps legitimately defeats pruning.
		res, err := search(ix, q.Values, 0.02*scale, &stats)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Results != len(res) {
			t.Errorf("Results=%d, len=%d", stats.Results, len(res))
		}
		if stats.Candidates != stats.Results+stats.FalseAlarms+stats.CostRejected {
			t.Errorf("candidates %d != results %d + false alarms %d + cost rejected %d",
				stats.Candidates, stats.Results, stats.FalseAlarms, stats.CostRejected)
		}
		if stats.IndexNodeAccesses < 1 {
			t.Error("no index page accesses recorded")
		}
		if stats.PageAccesses() != stats.IndexNodeAccesses+stats.DataPageAccesses {
			t.Error("PageAccesses() inconsistent")
		}
		agg.Add(stats)
	}
	// Pruning effectiveness on average: stock feature vectors cluster
	// along low-frequency directions, so a single unlucky query line can
	// sweep much of the database, but the workload mean must show real
	// pruning.  (The page-count comparison against a sequential scan
	// needs paper-scale data and lives in the benchmark harness.)
	if avg := agg.LeafEntriesChecked / len(qs); avg >= ix.WindowCount()/2 {
		t.Errorf("avg leaf entries checked %d of %d; pruning ineffective",
			avg, ix.WindowCount())
	}
	if avg := agg.IndexNodeAccesses / len(qs); avg >= ix.IndexPageCount() {
		t.Errorf("avg index pages visited %d of %d", avg, ix.IndexPageCount())
	}
}

func TestUnindexSequence(t *testing.T) {
	opts := testOptions()
	ix := buildTestIndex(t, opts, 5, 80)
	st := ix.Store()
	before := ix.WindowCount()
	perSeq := 80 - opts.WindowLen + 1

	if err := ix.UnindexSequence(2); err != nil {
		t.Fatal(err)
	}
	freeze(t, ix)
	if got := before - ix.WindowCount(); got != perSeq {
		t.Errorf("removed %d windows, want %d", got, perSeq)
	}
	// Windows of sequence 2 are no longer returned.
	w := make(vec.Vector, opts.WindowLen)
	if err := st.Window(2, 5, opts.WindowLen, w, nil); err != nil {
		t.Fatal(err)
	}
	got, err := search(ix, w, 1e-9, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range got {
		if m.Seq == 2 {
			t.Fatalf("unindexed window returned: %+v", m)
		}
	}
	// Re-indexing restores them.
	if err := ix.IndexStore(); err != nil {
		t.Fatal(err)
	}
	freeze(t, ix)
	if ix.WindowCount() != before {
		t.Errorf("re-index count %d, want %d", ix.WindowCount(), before)
	}
	// Out-of-range errors.
	if err := ix.UnindexSequence(99); err == nil {
		t.Error("bad sequence accepted")
	}
}

func TestNearestNeighborsValidation(t *testing.T) {
	ix := buildTestIndex(t, testOptions(), 3, 60)
	if _, err := nearest(ix, make(vec.Vector, 5), 3, nil); err == nil {
		t.Error("short query accepted")
	}
	if _, err := nearest(ix, make(vec.Vector, 32), -1, nil); err == nil {
		t.Error("k=-1 accepted")
	}
}

func TestSearchLongValidation(t *testing.T) {
	ix := buildTestIndex(t, testOptions(), 3, 60)
	if _, err := search(ix, make(vec.Vector, 16), 1, nil); err == nil {
		t.Error("short query accepted")
	}
	if _, err := search(ix, make(vec.Vector, 64), -1, nil); err == nil {
		t.Error("negative epsilon accepted")
	}
	// Exactly window length delegates to Search.
	q := make(vec.Vector, 32)
	for i := range q {
		q[i] = float64(i)
	}
	if _, err := search(ix, q, 1, nil); err != nil {
		t.Errorf("window-length query failed: %v", err)
	}
}

// TestIndexSequenceErrors: growing a sequence the store does not hold
// is refused, and a sequence shorter than the window indexes no
// window, without an error.
func TestIndexSequenceErrors(t *testing.T) {
	st := store.New()
	ix, err := NewIndex(st, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.AppendValues(0, []float64{1}); err == nil {
		t.Error("empty store sequence accepted")
	}
	if err := ix.AppendValues(-1, []float64{1}); err == nil {
		t.Error("negative sequence accepted")
	}
	st.AppendSequence("tiny", []float64{1, 2, 3})
	if err := ix.IndexStore(); err != nil {
		t.Errorf("short sequence errored: %v", err)
	}
	freeze(t, ix)
	if ix.WindowCount() != 0 {
		t.Error("short sequence produced windows")
	}
}

// TestIndexSequenceIncrementalGrowth: IndexStore indexes the windows a
// sequence gained since the last call, and only those.
func TestIndexSequenceIncrementalGrowth(t *testing.T) {
	opts := testOptions()
	st := store.New()
	st.AppendSequence("a", make([]float64, 50))
	ix, err := NewIndex(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{50, 50, 70} {
		if err := st.AppendValues(0, make([]float64, n-st.SequenceLen(0))); err != nil {
			t.Fatal(err)
		}
		if err := ix.IndexStore(); err != nil {
			t.Fatal(err)
		}
		freeze(t, ix)
		if got := ix.WindowCount(); got != n-opts.WindowLen+1 {
			t.Fatalf("%d values: indexed %d windows, want %d", n, got, n-opts.WindowLen+1)
		}
	}
}

// TestNearestNeighborsSeedsReachExactCopy asks for the nearest window
// to exact scale/shift copies of stored windows.  The copy's SE-line
// passes through its source's feature point, so every directory bound on
// the source's path is 0 — as are many others near the root — and the
// seeds must reach it whichever zero comes first: the bound ε₀ is then
// the source's own distance, and the range pass at ε₀ holds a handful
// of candidates.  Seeding from the first zero at each level alone
// misses the source for some of these queries and verifies more.
func TestNearestNeighborsSeedsReachExactCopy(t *testing.T) {
	opts := testOptions()
	n := opts.WindowLen
	ix := buildTestIndex(t, opts, 60, 300)
	st := ix.Store()
	rng := rand.New(rand.NewSource(5))
	w := make(vec.Vector, n)
	for i := 0; i < 40; i++ {
		seq := rng.Intn(st.NumSequences())
		start := rng.Intn(st.SequenceLen(seq) - n + 1)
		if err := st.Window(seq, start, n, w, nil); err != nil {
			t.Fatal(err)
		}
		q := vec.Apply(w, 0.25+3.75*rng.Float64(), 100*rng.NormFloat64())
		var stats SearchStats
		res, err := ix.Exec(context.Background(), Query{Vec: q, K: 1}, &stats)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) != 1 || res.Matches[0].Seq != seq || res.Matches[0].Start != start {
			t.Fatalf("query %d: the nearest to a copy of (%d, %d) is %+v", i, seq, start, res.Matches)
		}
		// The seeds, and the source (with a feature-space twin, if any) in
		// the range pass.
		if stats.Candidates > knnSeedsPerK+2 {
			t.Errorf("query %d: a copy of (%d, %d) took %d candidates", i, seq, start, stats.Candidates)
		}
	}
}

func TestConcurrentSearchesAreSafe(t *testing.T) {
	// Searches never mutate the index, so any number may run in
	// parallel (mutations require external synchronization, as
	// documented on Index).  Run with -race to verify.
	opts := testOptions()
	ix := buildTestIndex(t, opts, 10, 120)
	st := ix.Store()
	scale, err := query.SENormScale(st, opts.WindowLen, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Reference results computed serially.
	queries := make([]vec.Vector, 8)
	want := make([][]Match, len(queries))
	for i := range queries {
		w := make(vec.Vector, opts.WindowLen)
		if err := st.Window(i, 10*i, opts.WindowLen, w, nil); err != nil {
			t.Fatal(err)
		}
		queries[i] = vec.Apply(w, 1.2, 3)
		if want[i], err = search(ix, queries[i], 0.1*scale, nil); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				for i, q := range queries {
					got, err := search(ix, q, 0.1*scale, nil)
					if err != nil {
						errs <- err
						return
					}
					if len(got) != len(want[i]) {
						errs <- fmt.Errorf("query %d: %d results, want %d", i, len(got), len(want[i]))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestOptionsAccessor(t *testing.T) {
	ix := buildTestIndex(t, testOptions(), 3, 60)
	if got := ix.Options().WindowLen; got != 32 {
		t.Errorf("Options().WindowLen = %d", got)
	}
}

func TestReductionKindString(t *testing.T) {
	if ReductionDFT.String() != "dft" || ReductionHaar.String() != "haar" {
		t.Error("reduction names wrong")
	}
	if ReductionKind(9).String() != "unknown" {
		t.Error("unknown reduction name wrong")
	}
}
