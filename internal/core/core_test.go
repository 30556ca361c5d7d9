package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"scaleshift/internal/engine"
	"scaleshift/internal/geom"
	"scaleshift/internal/query"
	"scaleshift/internal/rtree"
	"scaleshift/internal/seqscan"
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
		{"bad strategy", func(o *Options) { o.Strategy = geom.Strategy(9) }, false},
		{"spheres ok", func(o *Options) { o.Strategy = geom.BoundingSpheres }, true},
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

// TestSearchExactlyMatchesSeqScan is the central correctness property:
// for disguised queries at several epsilons and both penetration
// strategies, the index returns exactly the brute-force result set with
// identical distances and transforms.
func TestSearchExactlyMatchesSeqScan(t *testing.T) {
	for _, strategy := range []geom.Strategy{geom.EnteringExiting, geom.BoundingSpheres} {
		t.Run(strategy.String(), func(t *testing.T) {
			opts := testOptions()
			opts.Strategy = strategy
			ix := buildTestIndex(t, opts, 15, 150)
			st := ix.Store()

			qcfg := query.DefaultConfig()
			qcfg.N = 8
			qcfg.WindowLen = opts.WindowLen
			qs, err := query.Generate(st, qcfg)
			if err != nil {
				t.Fatal(err)
			}
			scale, err := query.SENormScale(st, opts.WindowLen, 100, 3)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range qs {
				for _, frac := range []float64{0, 0.05, 0.3} {
					eps := frac * scale * q.Scale
					got, err := search(ix, q.Values, eps, nil)
					if err != nil {
						t.Fatal(err)
					}
					want, err := seqscan.Search(st, q.Values, eps, nil, nil)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) {
						t.Fatalf("eps=%v: index %d matches, scan %d", eps, len(got), len(want))
					}
					for i := range got {
						g, w := got[i], want[i]
						if g.Seq != w.Seq || g.Start != w.Start {
							t.Fatalf("eps=%v rank %d: (%d,%d) vs (%d,%d)",
								eps, i, g.Seq, g.Start, w.Seq, w.Start)
						}
						if math.Abs(g.Dist-w.Dist) > 1e-9 ||
							math.Abs(g.Scale-w.Scale) > 1e-9 ||
							math.Abs(g.Shift-w.Shift) > 1e-9 {
							t.Fatalf("eps=%v rank %d: result fields differ", eps, i)
						}
					}
				}
			}
		})
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
	res, err := ix.Exec(context.Background(), Query{Vec: q, Eps: eps, Costs: bounds}, &statsB)
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
	res, err = ix.Exec(context.Background(), Query{Vec: q, Eps: eps, Costs: shiftOnly}, &statsS)
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

func TestSearchConstantQuery(t *testing.T) {
	// A constant query has a degenerate SE-line (the origin): matches
	// are windows whose own fluctuation is within eps.
	opts := testOptions()
	ix := buildTestIndex(t, opts, 6, 80)
	st := ix.Store()
	q := make(vec.Vector, opts.WindowLen)
	for i := range q {
		q[i] = 42
	}
	for _, eps := range []float64{0.5, 5} {
		got, err := search(ix, q, eps, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := seqscan.Search(st, q, eps, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("eps=%v: index %d, scan %d", eps, len(got), len(want))
		}
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

func TestDynamicAppendAndIndex(t *testing.T) {
	opts := testOptions()
	ix := buildTestIndex(t, opts, 5, 80)
	before := ix.WindowCount()

	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = 50 + 10*math.Sin(float64(i)/7)
	}
	seq, err := ix.AppendAndIndex("NEW", vals)
	if err != nil {
		t.Fatal(err)
	}
	freeze(t, ix)
	wantNew := 100 - opts.WindowLen + 1
	if got := ix.WindowCount() - before; got != wantNew {
		t.Errorf("indexed %d new windows, want %d", got, wantNew)
	}
	// The new data is searchable.
	w := make(vec.Vector, opts.WindowLen)
	if err := ix.Store().Window(seq, 20, opts.WindowLen, w, nil); err != nil {
		t.Fatal(err)
	}
	q := vec.Apply(w, 0.5, -3)
	got, err := search(ix, q, 1e-6, nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range got {
		if m.Seq == seq && m.Start == 20 {
			found = true
		}
	}
	if !found {
		t.Error("freshly indexed window not found")
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
	if err := ix.IndexSequence(2); err != nil {
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

func TestNearestNeighborsMatchesBruteForce(t *testing.T) {
	opts := testOptions()
	ix := buildTestIndex(t, opts, 12, 150)
	st := ix.Store()
	qcfg := query.DefaultConfig()
	qcfg.N = 5
	qcfg.WindowLen = opts.WindowLen
	qs, err := query.Generate(st, qcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		for _, k := range []int{1, 5, 20} {
			var stats SearchStats
			got, err := nearest(ix, q.Values, k, &stats)
			if err != nil {
				t.Fatal(err)
			}
			want, err := seqscan.Nearest(st, q.Values, k, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != k || len(want) != k {
				t.Fatalf("k=%d: got %d, oracle %d", k, len(got), len(want))
			}
			for i := range got {
				if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
					t.Fatalf("k=%d rank %d: %v vs %v", k, i, got[i].Dist, want[i].Dist)
				}
			}
			if stats.Candidates == 0 || stats.LeafEntriesChecked == 0 {
				t.Error("NN stats empty")
			}
		}
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

func TestSearchLongMatchesBruteForce(t *testing.T) {
	opts := testOptions()
	ix := buildTestIndex(t, opts, 10, 200)
	st := ix.Store()
	scale, err := query.SENormScale(st, 96, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Long queries: exactly 3 pieces (96 = 3*32) and a ragged length.
	for _, L := range []int{96, 100} {
		w := make(vec.Vector, L)
		if err := st.Window(7, 31, L, w, nil); err != nil {
			t.Fatal(err)
		}
		q := vec.Apply(w, 1.7, -8)
		for _, eps := range []float64{1e-6 * vec.Norm(w), 0.1 * scale, 0.4 * scale} {
			got, err := search(ix, q, eps, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := seqscan.Search(st, q, eps, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("L=%d eps=%v: index %d, scan %d", L, eps, len(got), len(want))
			}
			for i := range got {
				if got[i].Seq != want[i].Seq || got[i].Start != want[i].Start {
					t.Fatalf("L=%d eps=%v rank %d: alignment differs", L, eps, i)
				}
				if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
					t.Fatalf("L=%d eps=%v rank %d: dist differs", L, eps, i)
				}
			}
			// A buffer pool only replays the verifier's page fetches: the
			// same matches come back, and the pool saw the fetches.
			pool := store.NewBufferPool(4)
			pooled, _, err := run(context.Background(), ix, Query{Vec: q, Eps: eps, Pool: pool}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(pooled, got) {
				t.Fatalf("L=%d eps=%v: pooled long query returned different matches", L, eps)
			}
			if len(got) > 0 && pool.Hits()+pool.Misses() == 0 {
				t.Errorf("L=%d eps=%v: pool attached but never consulted", L, eps)
			}
		}
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

func TestStrategiesReturnIdenticalResults(t *testing.T) {
	optsEE := testOptions()
	optsBS := testOptions()
	optsBS.Strategy = geom.BoundingSpheres
	ixEE := buildTestIndex(t, optsEE, 10, 120)
	ixBS := buildTestIndex(t, optsBS, 10, 120)
	st := ixEE.Store()
	scale, err := query.SENormScale(st, 32, 100, 9)
	if err != nil {
		t.Fatal(err)
	}
	w := make(vec.Vector, 32)
	if err := st.Window(3, 40, 32, w, nil); err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0, 0.1 * scale, 0.5 * scale} {
		a, err := search(ixEE, w, eps, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := search(ixBS, w, eps, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("eps=%v: %d vs %d results", eps, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("eps=%v rank %d: %+v vs %+v", eps, i, a[i], b[i])
			}
		}
	}
}

func TestIndexSequenceErrors(t *testing.T) {
	st := store.New()
	ix, err := NewIndex(st, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.IndexSequence(0); err == nil {
		t.Error("empty store sequence accepted")
	}
	if err := ix.IndexSequence(-1); err == nil {
		t.Error("negative sequence accepted")
	}
	// Sequence shorter than the window indexes zero windows, no error.
	st.AppendSequence("tiny", []float64{1, 2, 3})
	if err := ix.IndexSequence(0); err != nil {
		t.Errorf("short sequence errored: %v", err)
	}
	freeze(t, ix)
	if ix.WindowCount() != 0 {
		t.Error("short sequence produced windows")
	}
}

func TestIndexSequenceIncrementalGrowth(t *testing.T) {
	// IndexSequence picks up windows that appeared since the last call
	// (store-level sequence growth is modelled by re-appending; here we
	// call IndexSequence twice and check idempotence instead).
	opts := testOptions()
	st := store.New()
	st.AppendSequence("a", make([]float64, 50))
	ix, err := NewIndex(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.IndexSequence(0); err != nil {
		t.Fatal(err)
	}
	freeze(t, ix)
	n1 := ix.WindowCount()
	if n1 != 50-opts.WindowLen+1 {
		t.Fatalf("indexed %d windows, want %d", n1, 50-opts.WindowLen+1)
	}
	if err := ix.IndexSequence(0); err != nil {
		t.Fatal(err)
	}
	freeze(t, ix)
	if ix.WindowCount() != n1 {
		t.Error("second IndexSequence call re-indexed windows")
	}
}

func TestBuildBulkMatchesBuild(t *testing.T) {
	opts := testOptions()
	st := store.New()
	cfg := stock.DefaultConfig()
	cfg.Companies = 12
	cfg.Days = 150
	if _, err := stock.Populate(st, cfg); err != nil {
		t.Fatal(err)
	}
	inc, err := NewIndex(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.Build(); err != nil {
		t.Fatal(err)
	}
	bulk, err := NewIndex(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := bulk.BuildBulk(); err != nil {
		t.Fatal(err)
	}
	if bulk.WindowCount() != inc.WindowCount() {
		t.Fatalf("bulk indexed %d windows, incremental %d", bulk.WindowCount(), inc.WindowCount())
	}
	if bulk.IndexPageCount() > inc.IndexPageCount() {
		t.Errorf("bulk tree larger: %d vs %d pages", bulk.IndexPageCount(), inc.IndexPageCount())
	}
	// Identical search results.
	scale, err := query.SENormScale(st, opts.WindowLen, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	w := make(vec.Vector, opts.WindowLen)
	for _, src := range []struct{ seq, start int }{{0, 5}, {7, 60}, {11, 100}} {
		if err := st.Window(src.seq, src.start, opts.WindowLen, w, nil); err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{0, 0.05 * scale, 0.3 * scale} {
			a, err := search(inc, w, eps, nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := search(bulk, w, eps, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(a) != len(b) {
				t.Fatalf("eps=%v: %d vs %d matches", eps, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("eps=%v rank %d differs", eps, i)
				}
			}
		}
	}
	// Bulk-built index is dynamic: appending still works.
	if _, err := bulk.AppendAndIndex("X", make([]float64, 60)); err != nil {
		t.Fatal(err)
	}
	// BuildBulk on a non-empty index is rejected.
	if err := bulk.BuildBulk(); err == nil {
		t.Error("BuildBulk on non-empty index accepted")
	}
}

func TestNearestNeighborsWithCosts(t *testing.T) {
	opts := testOptions()
	ix := buildTestIndex(t, opts, 12, 150)
	st := ix.Store()
	w := make(vec.Vector, opts.WindowLen)
	if err := st.Window(3, 40, opts.WindowLen, w, nil); err != nil {
		t.Fatal(err)
	}
	costs := UnboundedCosts()
	costs.ScaleMin = 0.1
	res, err := ix.Exec(context.Background(), Query{Vec: w, K: 15, Costs: costs}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Matches
	if len(got) != 15 {
		t.Fatalf("returned %d", len(got))
	}
	for _, m := range got {
		if m.Scale < 0.1 {
			t.Fatalf("cost bound leaked scale %v", m.Scale)
		}
	}
	// Oracle: brute-force k smallest among windows passing the filter.
	var oracle []float64
	st.ScanWindows(opts.WindowLen, nil, func(seq, start int, win vec.Vector) bool {
		m := vec.MinDist(w, win)
		if m.Scale >= 0.1 {
			oracle = append(oracle, m.Dist)
		}
		return true
	})
	sort.Float64s(oracle)
	for i := range got {
		if math.Abs(got[i].Dist-oracle[i]) > 1e-9 {
			t.Fatalf("rank %d: %v vs oracle %v", i, got[i].Dist, oracle[i])
		}
	}
}

func TestHaarReductionIsExactToo(t *testing.T) {
	opts := testOptions()
	opts.Reduction = ReductionHaar
	ix := buildTestIndex(t, opts, 10, 140)
	st := ix.Store()
	scale, err := query.SENormScale(st, opts.WindowLen, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	w := make(vec.Vector, opts.WindowLen)
	for _, src := range []struct{ seq, start int }{{1, 5}, {6, 70}} {
		if err := st.Window(src.seq, src.start, opts.WindowLen, w, nil); err != nil {
			t.Fatal(err)
		}
		q := vec.Apply(w, 1.5, -4)
		for _, eps := range []float64{0, 0.1 * scale} {
			got, err := search(ix, q, eps, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := seqscan.Search(st, q, eps, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("eps=%v: haar index %d, scan %d", eps, len(got), len(want))
			}
		}
	}
	// Haar requires a power-of-two window.
	bad := testOptions()
	bad.Reduction = ReductionHaar
	bad.WindowLen = 100
	if _, err := NewIndex(store.New(), bad); err == nil {
		t.Error("non-power-of-two Haar window accepted")
	}
	// Unknown reduction kind rejected.
	ugly := testOptions()
	ugly.Reduction = ReductionKind(9)
	if _, err := NewIndex(store.New(), ugly); err == nil {
		t.Error("unknown reduction accepted")
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

func TestSearchBatchMatchesSerial(t *testing.T) {
	opts := testOptions()
	ix := buildTestIndex(t, opts, 10, 120)
	st := ix.Store()
	scale, err := query.SENormScale(st, opts.WindowLen, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]vec.Vector, 12)
	w := make(vec.Vector, opts.WindowLen)
	for i := range queries {
		if err := st.Window(i%10, 7*i, opts.WindowLen, w, nil); err != nil {
			t.Fatal(err)
		}
		queries[i] = vec.Apply(w, 1.5, -2)
	}
	eps := 0.08 * scale

	var batchStats SearchStats
	batch, _, err := ix.ExecBatch(context.Background(), rangeQueries(queries, eps), 4, &batchStats)
	if err != nil {
		t.Fatal(err)
	}
	var serialStats SearchStats
	for i, q := range queries {
		want, err := search(ix, q, eps, &serialStats)
		if err != nil {
			t.Fatal(err)
		}
		got := batch[i].Matches
		if len(got) != len(want) {
			t.Fatalf("query %d: batch %d, serial %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("query %d rank %d differs", i, j)
			}
		}
	}
	if batchStats.Results != serialStats.Results || batchStats.Candidates != serialStats.Candidates {
		t.Errorf("aggregated stats differ: %+v vs %+v", batchStats, serialStats)
	}
	// Error propagation: one bad query fails the batch.
	queries[5] = make(vec.Vector, 3)
	if _, _, err := ix.ExecBatch(context.Background(), rangeQueries(queries, eps), 0, nil); err == nil {
		t.Error("bad query accepted in batch")
	}
}

func TestWriteIndexStats(t *testing.T) {
	ix := buildTestIndex(t, testOptions(), 6, 80)
	var buf bytes.Buffer
	if err := ix.WriteIndexStats(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "elongation") {
		t.Errorf("stats output malformed:\n%s", buf.String())
	}
}

// TestScaleBoundedSearchExact verifies the segment-pruned search
// returns exactly the brute-force result set under scale bounds, under
// both strategies.
func TestScaleBoundedSearchExact(t *testing.T) {
	for _, strategy := range []geom.Strategy{geom.EnteringExiting, geom.BoundingSpheres} {
		opts := testOptions()
		opts.Strategy = strategy
		ix := buildTestIndex(t, opts, 10, 130)
		st := ix.Store()
		scale, err := query.SENormScale(st, opts.WindowLen, 100, 3)
		if err != nil {
			t.Fatal(err)
		}
		w := make(vec.Vector, opts.WindowLen)
		if err := st.Window(4, 30, opts.WindowLen, w, nil); err != nil {
			t.Fatal(err)
		}
		q := vec.Apply(w, 2, 5)
		costs := UnboundedCosts()
		costs.ScaleMin, costs.ScaleMax = 0.1, 3
		for _, frac := range []float64{0.02, 0.15} {
			eps := frac * scale
			res, err := ix.Exec(context.Background(), Query{Vec: q, Eps: eps, Costs: costs}, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := res.Matches
			want, err := seqscan.Search(st, q, eps, func(a, b float64) bool {
				return a >= 0.1 && a <= 3
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("strategy=%v eps=%v: index %d, scan %d",
					strategy, eps, len(got), len(want))
			}
			for i := range got {
				if got[i].Seq != want[i].Seq || got[i].Start != want[i].Start {
					t.Fatalf("strategy=%v rank %d differs", strategy, i)
				}
			}
		}
	}
}

func TestOptionsAccessorAndSetStrategy(t *testing.T) {
	ix := buildTestIndex(t, testOptions(), 3, 60)
	if got := ix.Options().WindowLen; got != 32 {
		t.Errorf("Options().WindowLen = %d", got)
	}
	if err := ix.SetStrategy(geom.BoundingSpheres); err != nil {
		t.Fatal(err)
	}
	if ix.Options().Strategy != geom.BoundingSpheres {
		t.Error("SetStrategy did not take effect")
	}
	if err := ix.SetStrategy(geom.Strategy(7)); err == nil {
		t.Error("bad strategy accepted")
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

// TestAllVariantsAgree is the differential matrix test: every index
// configuration — feature basis × penetration strategy × split
// algorithm × X-tree — must return exactly the brute-force result set
// on the same disguised queries.
func TestAllVariantsAgree(t *testing.T) {
	st := store.New()
	cfg := stockConfigForMatrix()
	if _, err := stock.Populate(st, cfg); err != nil {
		t.Fatal(err)
	}
	scale, err := query.SENormScale(st, 32, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	w := make(vec.Vector, 32)
	if err := st.Window(4, 25, 32, w, nil); err != nil {
		t.Fatal(err)
	}
	q := vec.Apply(w, 1.8, -6)
	eps := 0.08 * scale
	oracle, err := seqscan.Search(st, q, eps, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(oracle) == 0 {
		t.Fatal("oracle found nothing; workload too tight")
	}

	type variant struct {
		name   string
		mutate func(*Options)
	}
	variants := []variant{
		{"baseline", func(o *Options) {}},
		{"spheres", func(o *Options) { o.Strategy = geom.BoundingSpheres }},
		{"haar", func(o *Options) { o.Reduction = ReductionHaar }},
		{"quadratic", func(o *Options) { o.Tree.Split = rtree.SplitQuadratic }},
		{"linear-noreinsert", func(o *Options) {
			o.Tree.Split = rtree.SplitLinear
			o.Tree.ReinsertCount = 0
		}},
		{"xtree", func(o *Options) { o.Tree.SupernodeMaxOverlap = 0.1 }},
		{"fc2", func(o *Options) { o.Coefficients = 2; o.Tree = rtree.DefaultConfig(4) }},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			opts := testOptions()
			v.mutate(&opts)
			ix, err := NewIndex(st, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := ix.Build(); err != nil {
				t.Fatal(err)
			}
			got, err := search(ix, q, eps, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(oracle) {
				t.Fatalf("%d matches, oracle %d", len(got), len(oracle))
			}
			for i := range got {
				if got[i].Seq != oracle[i].Seq || got[i].Start != oracle[i].Start ||
					math.Abs(got[i].Dist-oracle[i].Dist) > 1e-9 {
					t.Fatalf("rank %d differs from oracle", i)
				}
			}
		})
	}
}

// stockConfigForMatrix keeps the matrix test fast.
func stockConfigForMatrix() stock.Config {
	cfg := stock.DefaultConfig()
	cfg.Companies = 10
	cfg.Days = 130
	return cfg
}

// TestExtendAndIndexPointMode: samples arriving on a live series make
// the boundary-spanning windows searchable (requirement 2 of §3).
func TestExtendAndIndexPointMode(t *testing.T) {
	opts := testOptions()
	opts.WindowLen = 16
	st := store.New()
	first := make([]float64, 40)
	for i := range first {
		first[i] = float64(i % 7)
	}
	st.AppendSequence("live", first)
	ix, err := NewIndex(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Build(); err != nil {
		t.Fatal(err)
	}
	if ix.WindowCount() != 25 {
		t.Fatalf("WindowCount = %d", ix.WindowCount())
	}
	// 10 new ticks arrive.
	ticks := make([]float64, 10)
	for i := range ticks {
		ticks[i] = float64((40 + i) % 7)
	}
	if err := ix.ExtendAndIndex(0, ticks); err != nil {
		t.Fatal(err)
	}
	freeze(t, ix)
	if ix.WindowCount() != 35 {
		t.Fatalf("after extend: WindowCount = %d", ix.WindowCount())
	}
	// A window spanning the old end (start 38 covers samples 38..53) is
	// found exactly.
	w := make(vec.Vector, 16)
	if err := st.Window(0, 30, 16, w, nil); err != nil {
		t.Fatal(err)
	}
	got, err := search(ix, vec.Apply(w, 2, 1), 1e-6*(1+vec.Norm(w)), nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range got {
		if m.Start == 30 {
			found = true
		}
	}
	if !found {
		t.Fatal("boundary-spanning window not searchable after extension")
	}
	// Full agreement with brute force.
	want, err := seqscan.Search(st, w, 0.5, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := search(ix, w, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(want) {
		t.Fatalf("index %d, scan %d after extension", len(res), len(want))
	}
}

// seqVals returns [base, base+n) as floats with a varying pattern.
func seqVals(base, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		v := base + i
		out[i] = float64(v*v%23) + float64(v%5)
	}
	return out
}

// TestExtendThenUnindexPointMode is the regression test for the
// feature-reproducibility bug: features of windows indexed after an
// extension must be regenerated bit-exactly by UnindexSequence even
// though they were first computed by a slider starting mid-sequence
// (fixed by restarting the sliding DFT at absolute checkpoints).
func TestExtendThenUnindexPointMode(t *testing.T) {
	opts := testOptions()
	opts.WindowLen = 16
	st := store.New()
	st.AppendSequence("live", seqVals(0, 300)) // spans a checkpoint
	ix, err := NewIndex(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Build(); err != nil {
		t.Fatal(err)
	}
	// Extend across several increments, including past the 256-window
	// checkpoint boundary.
	for i := 0; i < 4; i++ {
		if err := ix.ExtendAndIndex(0, seqVals(300+20*i, 20)); err != nil {
			t.Fatal(err)
		}
	}
	freeze(t, ix)
	if ix.WindowCount() != 380-16+1 {
		t.Fatalf("WindowCount = %d", ix.WindowCount())
	}
	// Every stored feature must be regenerable: unindex walks them all.
	if err := ix.UnindexSequence(0); err != nil {
		t.Fatalf("unindex after extension: %v", err)
	}
	freeze(t, ix)
	if ix.WindowCount() != 0 {
		t.Fatalf("%d windows left", ix.WindowCount())
	}
}
