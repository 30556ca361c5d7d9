package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"scaleshift/internal/engine"
	"scaleshift/internal/obs"
	"scaleshift/internal/query"
	"scaleshift/internal/vec"
)

// The SearchStats ledger must balance on every path: each candidate is
// exactly one of (false alarm, cost-rejected, result).  These tests
// assert CheckInvariants across all three access paths, long queries,
// and batches — the accounting identity a dashboard
// reader relies on when the counters are exported.

// invariantQuery returns a query window and an eps wide enough to
// produce candidates and matches on the test store.
func invariantQuery(t *testing.T, ix *Index) (vec.Vector, float64) {
	t.Helper()
	n := ix.Options().WindowLen
	q := make(vec.Vector, n)
	if err := ix.Store().Window(0, 3, n, q, nil); err != nil {
		t.Fatal(err)
	}
	norm, err := query.SENormScale(ix.Store(), n, 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	return q, 0.05 * norm
}

func checkStats(t *testing.T, label string, stats SearchStats, matches int) {
	t.Helper()
	if err := stats.CheckInvariants(); err != nil {
		t.Errorf("%s: %v", label, err)
	}
	if stats.Results != matches {
		t.Errorf("%s: stats.Results = %d but %d matches returned", label, stats.Results, matches)
	}
}

func TestStatsInvariantsAcrossPaths(t *testing.T) {
	ix := buildTestIndex(t, testOptions(), 12, 120)
	q, eps := invariantQuery(t, ix)
	for _, force := range []engine.PathKind{engine.PathAuto, engine.PathRTree, engine.PathScan} {
		var stats SearchStats
		matches, ex, err := run(context.Background(), ix, Query{Vec: q, Eps: eps, Force: force}, &stats)
		if err != nil {
			t.Fatalf("path %v: %v", force, err)
		}
		checkStats(t, "path "+force.String(), stats, len(matches))
		if stats.PathProbes[ex.Chosen] != 1 {
			t.Errorf("path %v: PathProbes[%v] = %d, want 1", force, ex.Chosen, stats.PathProbes[ex.Chosen])
		}
		if stats.Candidates == 0 {
			t.Errorf("path %v: query produced no candidates; invariant check is vacuous", force)
		}
	}
}

func TestStatsInvariantsLongQuery(t *testing.T) {
	ix := buildTestIndex(t, testOptions(), 12, 120)
	n := ix.Options().WindowLen
	q := make(vec.Vector, 2*n)
	if err := ix.Store().Window(0, 3, 2*n, q, nil); err != nil {
		t.Fatal(err)
	}
	_, eps := invariantQuery(t, ix)
	for _, force := range []engine.PathKind{engine.PathAuto, engine.PathRTree, engine.PathScan} {
		var stats SearchStats
		matches, ex, err := run(context.Background(), ix, Query{Vec: q, Eps: eps, Force: force}, &stats)
		if err != nil {
			t.Fatalf("path %v: %v", force, err)
		}
		checkStats(t, "long "+force.String(), stats, len(matches))
		if ex.Pieces < 2 {
			t.Fatalf("long query ran %d pieces, want >= 2", ex.Pieces)
		}
		total := 0
		for k := engine.PathKind(0); k < engine.NumPathKinds; k++ {
			total += stats.PathProbes[k]
		}
		if total != ex.Pieces {
			t.Errorf("long %v: %d path probes recorded, want %d (one per piece)", force, total, ex.Pieces)
		}
	}
}

// TestStatsInvariantsSegmentedDelta holds the ledger, the per-segment
// plans and the exported counters on a segmented index with a populated
// delta: the delta's plan reports its window count and what its filter
// let through; its feature tests
// count as leaf entries checked; a forced scan still emits every
// window of every segment.
func TestStatsInvariantsSegmentedDelta(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	cm.once.Do(initCoreMetrics) // handles are lazily created on first record
	opts := testOptions()
	n := opts.WindowLen
	names, vals := stockSeries(t, 8, 400)
	f := growWithDelta(t, opts, names, vals, rand.New(rand.NewSource(21)))
	delta, _, frozen := f.deltaShape()
	w := f.window(t, 3, len(vals[3])-n-9, n) // a delta window
	q, eps := vec.Apply(w, 1.1, 5), 0.02*seNorm(w)
	costs := CostBounds{ScaleMin: 0.5, ScaleMax: 1.5, ShiftMin: -1, ShiftMax: 1} // rejects the source window's shift

	for _, force := range []engine.PathKind{engine.PathAuto, engine.PathRTree, engine.PathScan} {
		for _, c := range []CostBounds{UnboundedCosts(), costs} {
			label := fmt.Sprintf("%s, costs %+v", force, c)
			before := [4]int64{cm.candidates.Value(), cm.falseAlarms.Value(), cm.costRejected.Value(), cm.matches.Value()}
			var stats SearchStats
			matches, ex, err := run(context.Background(), f.g, Query{Vec: q, Eps: eps, Costs: &c, Force: force}, &stats)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			checkStats(t, label, stats, len(matches))
			after := [4]int64{cm.candidates.Value(), cm.falseAlarms.Value(), cm.costRejected.Value(), cm.matches.Value()}
			for i, want := range []int{stats.Candidates, stats.FalseAlarms, stats.CostRejected, stats.Results} {
				if got := after[i] - before[i]; got != int64(want) {
					t.Errorf("%s: exported counter %d advanced by %d, the query's ledger says %d", label, i, got, want)
				}
			}
			if len(ex.Segments) != frozen+1 {
				t.Fatalf("%s: %d segment plans for %d frozen segments and a delta", label, len(ex.Segments), frozen)
			}
			emitted, probes := 0, 0
			for _, sp := range ex.Segments {
				emitted += sp.Candidates
			}
			for _, p := range stats.PathProbes {
				probes += p
			}
			if emitted != stats.Candidates || probes != frozen+1 {
				t.Errorf("%s: segment plans emitted %d candidates over %d probes, the ledger has %d over %d segments", label, emitted, probes, stats.Candidates, frozen+1)
			}
			dp := ex.Segments[frozen]
			if dp.Kind != "delta" || dp.Windows != delta {
				t.Fatalf("%s: last plan is %+v, want the delta's with %d windows", label, dp, delta)
			}
			if force == engine.PathScan {
				if dp.Chosen != engine.PathScan || dp.Candidates != delta || stats.Candidates != f.ref.WindowCount() {
					t.Errorf("%s: forced scan emitted %d of the delta's %d windows, %d of %d overall (plan %+v)", label, dp.Candidates, delta, stats.Candidates, f.ref.WindowCount(), dp)
				}
				continue
			}
			if dp.Chosen != engine.PathRTree || dp.Candidates == 0 || dp.Candidates >= delta {
				t.Errorf("%s: the delta's filter let %d of %d windows through (plan %+v)", label, dp.Candidates, delta, dp)
			}
			if stats.LeafEntriesChecked < delta {
				t.Errorf("%s: %d leaf entries checked, fewer than the delta's %d feature tests", label, stats.LeafEntriesChecked, delta)
			}
		}
	}
}

func TestCheckInvariantsDetectsDrift(t *testing.T) {
	s := SearchStats{Candidates: 10, FalseAlarms: 4, CostRejected: 1, Results: 3}
	if err := s.CheckInvariants(); err == nil {
		t.Fatal("unbalanced ledger (10 != 4+1+3) must fail")
	} else if !strings.Contains(err.Error(), "Candidates") {
		t.Fatalf("error %q does not name the broken identity", err)
	}
	s.Results = 5
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("balanced ledger rejected: %v", err)
	}
	s.Candidates = -1
	if err := s.CheckInvariants(); err == nil {
		t.Fatal("negative counter must fail")
	}
}

func TestSearchRecordsTraceAndMetrics(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	ix := buildTestIndex(t, testOptions(), 12, 120)
	q, eps := invariantQuery(t, ix)

	tracer := obs.NewTracer(4)
	ctx, root := tracer.StartTrace(context.Background(), "test-query")
	var stats SearchStats
	cm.once.Do(initCoreMetrics) // handles are lazily created on first record
	before := cm.searches.Value()
	_, ex, err := run(ctx, ix, Query{Vec: q, Eps: eps}, &stats)
	if err != nil {
		t.Fatal(err)
	}
	root.End()

	if stats.TraceID == "" {
		t.Fatal("traced search left stats.TraceID empty")
	}
	if ex.TraceID != stats.TraceID {
		t.Fatalf("explain trace %q != stats trace %q", ex.TraceID, stats.TraceID)
	}
	snap, ok := tracer.Get(stats.TraceID)
	if !ok {
		t.Fatalf("trace %s not retained", stats.TraceID)
	}
	var names []string
	for _, s := range snap.Spans {
		names = append(names, s.Name)
	}
	for _, want := range []string{"plan", "probe", "verify"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("trace is missing a %q span (spans: %v)", want, names)
		}
	}
	if got := cm.searches.Value(); got != before+1 {
		t.Errorf("scaleshift_searches_total advanced by %d, want 1", got-before)
	}
	if err := stats.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestKNNRecordsTraceAndMetrics pins Exec's entry/exit bookkeeping for
// the k-NN kind on both index types: a completed query counts as a
// search with a latency sample and a stamped trace id, a failed one as
// a search error, and the candidate ledger — which k-NN refines without
// classifying — stays range-only.
func TestKNNRecordsTraceAndMetrics(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	ix := buildTestIndex(t, testOptions(), 12, 120)
	q, _ := invariantQuery(t, ix)
	seg := freshIndex(t, ix.Store(), testOptions())
	defer seg.Close()
	cm.once.Do(initCoreMetrics) // handles are lazily created on first record

	for name, target := range map[string]execer{"index": ix, "segmented": seg} {
		searches, errs := cm.searches.Value(), cm.searchErrors.Value()
		durs, cands, falseAlarms := cm.searchDur.Count(), cm.candidates.Value(), cm.falseAlarms.Value()

		ctx, root := obs.NewTracer(4).StartTrace(context.Background(), "test-knn")
		var stats SearchStats
		res, err := target.Exec(ctx, Query{Vec: q, K: 3}, &stats)
		root.End()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Matches) != 3 || res.Explain != nil {
			t.Fatalf("%s: k-NN returned %d matches, explain %v", name, len(res.Matches), res.Explain)
		}
		if stats.TraceID == "" || stats.TraceID != obs.TraceIDFromContext(ctx) {
			t.Errorf("%s: stats.TraceID = %q, want the query's trace id", name, stats.TraceID)
		}
		if got := cm.searches.Value() - searches; got != 1 {
			t.Errorf("%s: scaleshift_searches_total advanced by %d, want 1", name, got)
		}
		if got := cm.searchDur.Count() - durs; got != 1 {
			t.Errorf("%s: scaleshift_search_duration_seconds took %d samples, want 1", name, got)
		}
		if cm.candidates.Value() != cands || cm.falseAlarms.Value() != falseAlarms {
			t.Errorf("%s: k-NN moved the range-only candidate ledger", name)
		}

		if _, err := target.Exec(context.Background(), Query{Vec: q[:len(q)-1], K: 3}, nil); err == nil {
			t.Fatalf("%s: short k-NN query accepted", name)
		}
		if got := cm.searchErrors.Value() - errs; got != 1 {
			t.Errorf("%s: scaleshift_search_errors_total advanced by %d, want 1", name, got)
		}
		if got := cm.searches.Value() - searches; got != 1 {
			t.Errorf("%s: a failed query counted as a completed search", name)
		}
	}
}

func TestUntracedSearchHasNoTraceID(t *testing.T) {
	ix := buildTestIndex(t, testOptions(), 8, 100)
	q, eps := invariantQuery(t, ix)
	var stats SearchStats
	_, ex, err := run(context.Background(), ix, Query{Vec: q, Eps: eps}, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TraceID != "" || ex.TraceID != "" {
		t.Fatalf("untraced search set TraceID %q / %q", stats.TraceID, ex.TraceID)
	}
}
