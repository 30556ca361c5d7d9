package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"scaleshift/internal/engine"
	"scaleshift/internal/vec"
)

// forcedSearch runs one forced-path query, failing the test on error.
func forcedSearch(t *testing.T, ix *Index, q vec.Vector, eps float64, costs CostBounds, force engine.PathKind) []Match {
	t.Helper()
	out, ex, err := run(context.Background(), ix, Query{Vec: q, Eps: eps, Costs: costs, Force: force}, nil)
	if err != nil {
		t.Fatalf("forced %v search: %v", force, err)
	}
	if ex.Chosen != force || !ex.Forced {
		t.Fatalf("forced %v but explain says chosen=%v forced=%v", force, ex.Chosen, ex.Forced)
	}
	return out
}

// TestCrossPathEquivalence is the engine's core invariant: for
// randomized stores and queries, every available access path — and the
// planner's automatic choice — returns the identical sorted Match set,
// bit for bit (distances, scales, and shifts included).
func TestCrossPathEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	opts := testOptions()
	for trial := 0; trial < 3; trial++ {
		companies := 3 + rng.Intn(5)
		days := opts.WindowLen + rng.Intn(120)
		ix := buildTestIndex(t, opts, companies, days)
		st := ix.Store()

		for qi := 0; qi < 6; qi++ {
			// Half the queries are disguised database windows (so
			// matches exist), half are fresh noise.
			q := make(vec.Vector, opts.WindowLen)
			if qi%2 == 0 {
				seq := rng.Intn(st.NumSequences())
				start := rng.Intn(st.SequenceLen(seq) - opts.WindowLen + 1)
				if err := st.Window(seq, start, opts.WindowLen, q, nil); err != nil {
					t.Fatal(err)
				}
				q = vec.Apply(q, 0.5+rng.Float64()*3, rng.NormFloat64()*10)
			} else {
				for i := range q {
					q[i] = rng.NormFloat64() * 50
				}
			}
			costs := UnboundedCosts()
			if qi%3 == 0 {
				costs.ScaleMin, costs.ScaleMax = 0.1, 10
			}
			for _, eps := range []float64{0, 1, 25, 1e4} {
				rtreeOut := forcedSearch(t, ix, q, eps, costs, engine.PathRTree)
				scanOut := forcedSearch(t, ix, q, eps, costs, engine.PathScan)
				if !reflect.DeepEqual(rtreeOut, scanOut) {
					t.Fatalf("trial %d query %d eps %g: rtree %v != scan %v", trial, qi, eps, rtreeOut, scanOut)
				}
				autoOut, ex, err := run(context.Background(), ix, Query{Vec: q, Eps: eps, Costs: costs}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if ex.Forced || (ex.Chosen != engine.PathRTree && ex.Chosen != engine.PathScan) {
					t.Fatalf("auto plan chose %v forced=%v", ex.Chosen, ex.Forced)
				}
				if !reflect.DeepEqual(autoOut, rtreeOut) {
					t.Fatalf("trial %d query %d eps %g: auto (%v) differs from forced paths", trial, qi, eps, ex.Chosen)
				}
			}
		}
	}
}

// TestCrossPathEquivalenceLong checks the multipiece executor: long
// queries return identical matches whichever path serves the pieces.
func TestCrossPathEquivalenceLong(t *testing.T) {
	opts := testOptions()
	ix := buildTestIndex(t, opts, 4, 150)
	st := ix.Store()
	n := 2 * opts.WindowLen

	q := make(vec.Vector, n)
	if err := st.Window(1, 3, n, q, nil); err != nil {
		t.Fatal(err)
	}
	q = vec.Apply(q, 2, -5)
	for _, eps := range []float64{1, 50, 1e4} {
		rtreeOut, exR, err := run(context.Background(), ix, Query{Vec: q, Eps: eps, Force: engine.PathRTree}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if exR.Pieces != 2 {
			t.Errorf("explain pieces = %d, want 2", exR.Pieces)
		}
		scanOut, _, err := run(context.Background(), ix, Query{Vec: q, Eps: eps, Force: engine.PathScan}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rtreeOut, scanOut) {
			t.Fatalf("eps %g: long rtree %v != scan %v", eps, rtreeOut, scanOut)
		}
		autoOut, err := search(ix, q, eps, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(autoOut, rtreeOut) {
			t.Fatalf("eps %g: auto long result differs", eps)
		}
	}
}

// TestPlannerRegimes checks the cost model picks the expected winner
// in the two unambiguous regimes: a selective probe on a sizeable
// store (tree wins) and a degenerate everything-matches probe (scan
// wins, since the tree would read every page and then verify every
// window anyway).
func TestPlannerRegimes(t *testing.T) {
	opts := testOptions()
	ix := buildTestIndex(t, opts, 8, 200)
	q := make(vec.Vector, opts.WindowLen)
	if err := ix.Store().Window(0, 10, opts.WindowLen, q, nil); err != nil {
		t.Fatal(err)
	}

	_, exTiny, err := run(context.Background(), ix, Query{Vec: q, Eps: 1e-3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if exTiny.Chosen != engine.PathRTree {
		t.Errorf("tiny eps chose %v, want rtree", exTiny.Chosen)
	}
	_, exHuge, err := run(context.Background(), ix, Query{Vec: q, Eps: 1e9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if exHuge.Chosen != engine.PathScan {
		t.Errorf("huge eps chose %v, want scan", exHuge.Chosen)
	}
	if exTiny.PlanTime < 0 || exTiny.ProbeTime < 0 || exTiny.VerifyTime < 0 {
		t.Errorf("negative stage timings: %+v", exTiny)
	}
}

// TestPlannerEstimatesSaneOnIndex exercises the satellite fuzz
// properties against the real index paths: estimates are non-negative
// and monotone in eps, and the chosen path is always available.
func TestPlannerEstimatesSaneOnIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	opts := testOptions()
	ix := buildTestIndex(t, opts, 4, 120)
	q := make(vec.Vector, opts.WindowLen)
	for i := range q {
		q[i] = rng.NormFloat64() * 20
	}
	prev := -1.0
	for _, eps := range []float64{0, 1e-3, 0.1, 1, 10, 1e3, 1e6} {
		_, ex, err := run(context.Background(), ix, Query{Vec: q, Eps: eps}, nil)
		if err != nil {
			t.Fatal(err)
		}
		chosenAvailable := false
		for _, p := range ex.Plans {
			if p.Available && (p.Cost.Units < 0 || p.Cost.Candidates < 0 || math.IsNaN(p.Cost.Units)) {
				t.Fatalf("eps %g: bad estimate %+v", eps, p)
			}
			if p.Path == ex.Chosen {
				chosenAvailable = p.Available
			}
		}
		if !chosenAvailable {
			t.Fatalf("eps %g: chose %v, which its plan table does not list available", eps, ex.Chosen)
		}
		if ex.EstCandidates < prev && ex.Chosen != engine.PathScan {
			// Index-probe candidate estimates grow with eps; the
			// scan's is constant, so only compare within probes.
			t.Fatalf("est candidates shrank as eps grew: %v -> %v", prev, ex.EstCandidates)
		}
		if ex.Chosen != engine.PathScan {
			prev = ex.EstCandidates
		}
	}
}

// zeroTimes clears the wall-clock fields so stats comparisons are
// deterministic.
func zeroTimes(s *SearchStats) {
	s.PlanTime, s.ProbeTime, s.VerifyTime = 0, 0, 0
}

// TestSearchBatchPlannedMixedEps is the ExecBatch satellite: one
// batch holding a tiny-ε and a huge-ε query must plan per query —
// choosing different paths within a single call — and its accumulated
// stats must equal the sequential per-query totals exactly.
func TestSearchBatchPlannedMixedEps(t *testing.T) {
	opts := testOptions()
	ix := buildTestIndex(t, opts, 8, 200)
	st := ix.Store()

	q1 := make(vec.Vector, opts.WindowLen)
	if err := st.Window(2, 5, opts.WindowLen, q1, nil); err != nil {
		t.Fatal(err)
	}
	q2 := make(vec.Vector, opts.WindowLen)
	if err := st.Window(5, 40, opts.WindowLen, q2, nil); err != nil {
		t.Fatal(err)
	}
	batch := []Query{
		{Vec: q1, Eps: 1e-3},
		{Vec: q2, Eps: 1e9},
		{Vec: q1, Eps: 1e9},
	}

	var batchStats SearchStats
	results, _, err := ix.ExecBatch(context.Background(), batch, 2, &batchStats)
	if err != nil {
		t.Fatal(err)
	}
	if got := results[0].Explain.Chosen; got != engine.PathRTree {
		t.Errorf("tiny-eps query planned %v, want rtree", got)
	}
	if a, b := results[1].Explain.Chosen, results[2].Explain.Chosen; a != engine.PathScan || b != engine.PathScan {
		t.Errorf("huge-eps queries planned %v and %v, want scan", a, b)
	}
	if batchStats.PathProbes[engine.PathRTree] != 1 || batchStats.PathProbes[engine.PathScan] != 2 {
		t.Errorf("PathProbes = %v, want 1 rtree + 2 scan", batchStats.PathProbes)
	}

	// Exact accounting: the batch totals must equal running the same
	// queries one at a time (timings aside).
	var serialStats SearchStats
	for i, bq := range batch {
		out, _, err := run(context.Background(), ix, bq, &serialStats)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out, results[i].Matches) {
			t.Errorf("batch result %d differs from serial", i)
		}
	}
	zeroTimes(&batchStats)
	zeroTimes(&serialStats)
	if !reflect.DeepEqual(batchStats, serialStats) {
		t.Errorf("batch stats %+v != serial stats %+v", batchStats, serialStats)
	}
}

// TestSearchBatchStillPlansPerQuery pins that a fixed-ε batch routes
// each query through the planner (one probe counted per query).
func TestSearchBatchStillPlansPerQuery(t *testing.T) {
	opts := testOptions()
	ix := buildTestIndex(t, opts, 4, 100)
	queries := make([]vec.Vector, 5)
	rng := rand.New(rand.NewSource(5))
	for i := range queries {
		q := make(vec.Vector, opts.WindowLen)
		for j := range q {
			q[j] = rng.NormFloat64()
		}
		queries[i] = q
	}
	var stats SearchStats
	if _, _, err := ix.ExecBatch(context.Background(), rangeQueries(queries, 0.5), 0, &stats); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range stats.PathProbes {
		total += c
	}
	if total != len(queries) {
		t.Errorf("PathProbes total %d, want one probe per query (%d)", total, len(queries))
	}
}

// TestStatsAddIncludesEngineFields checks the new SearchStats fields
// accumulate.
func TestStatsAddIncludesEngineFields(t *testing.T) {
	a := SearchStats{PlanTime: 1, ProbeTime: 2, VerifyTime: 3}
	a.PathProbes[engine.PathScan] = 2
	b := SearchStats{PlanTime: 10, ProbeTime: 20, VerifyTime: 30}
	b.PathProbes[engine.PathScan] = 1
	b.PathProbes[engine.PathRTree] = 4
	a.Add(b)
	if a.PlanTime != 11 || a.ProbeTime != 22 || a.VerifyTime != 33 {
		t.Errorf("timings did not accumulate: %+v", a)
	}
	if a.PathProbes[engine.PathScan] != 3 || a.PathProbes[engine.PathRTree] != 4 {
		t.Errorf("PathProbes did not accumulate: %v", a.PathProbes)
	}
}
