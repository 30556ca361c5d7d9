package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"scaleshift/internal/engine"
	"scaleshift/internal/query"
	"scaleshift/internal/store"
	"scaleshift/internal/vec"
)

// TestAutoIsTheTree pins the default path: on a monolithic index, a
// three-segment index with a delta and a delta-only index, from a
// tight ε to one at which nearly every window matches, and under cost
// bounds, an auto query is the forced tree query — the same rows, the
// same ledger and the same segment plans.  Only the Forced flag tells
// them apart.
func TestAutoIsTheTree(t *testing.T) {
	opts := testOptions()
	n := opts.WindowLen
	st := populatedStore(t, 20, 300, 1)
	mono, err := NewIndex(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := mono.Build(); err != nil {
		t.Fatal(err)
	}
	names, vals := fullSequences(t, st)
	grown := growWithDelta(t, opts, names, vals, rand.New(rand.NewSource(36)))
	if _, _, frozen := grown.deltaShape(); frozen != 3 {
		t.Fatalf("grown fixture has %d frozen segments, want 3", frozen)
	}
	deltaOnly := freshIndex(t, store.New(), opts)
	defer deltaOnly.Close()
	for seq := range names {
		if _, err := deltaOnly.AppendAndIndex(names[seq], vals[seq]); err != nil {
			t.Fatal(err)
		}
	}

	w := make(vec.Vector, n)
	if err := st.Window(3, 40, n, w, nil); err != nil {
		t.Fatal(err)
	}
	q := vec.Apply(w, 1.4, -3)
	scale, err := query.SENormScale(st, n, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	inf := math.Inf(1)
	bounded := CostBounds{ScaleMin: 0.5, ScaleMax: 2, ShiftMin: -inf, ShiftMax: inf}
	for _, ix := range []struct {
		name string
		ix   execer
	}{{"monolithic", mono}, {"three segments and a delta", grown.g}, {"delta only", deltaOnly}} {
		for _, c := range []struct {
			frac  float64
			costs CostBounds
		}{{0.001, UnboundedCosts()}, {0.05, UnboundedCosts()}, {0.6, UnboundedCosts()}, {5, UnboundedCosts()}, {0.2, bounded}} {
			label := fmt.Sprintf("%s, eps-frac %g, costs %+v", ix.name, c.frac, c.costs)
			q := Query{Vec: q, Eps: c.frac * scale, Costs: &c.costs}
			var autoStats, treeStats SearchStats
			auto, err := ix.ix.Exec(context.Background(), q, &autoStats)
			if err != nil {
				t.Fatalf("%s: auto: %v", label, err)
			}
			q.Force = engine.PathRTree
			tree, err := ix.ix.Exec(context.Background(), q, &treeStats)
			if err != nil {
				t.Fatalf("%s: tree: %v", label, err)
			}
			zeroTimes(&autoStats)
			zeroTimes(&treeStats)
			if autoStats != treeStats {
				t.Errorf("%s: stats\n  auto %+v\n  tree %+v", label, autoStats, treeStats)
			}
			if !reflect.DeepEqual(auto.Matches, tree.Matches) || auto.Total != tree.Total {
				t.Errorf("%s: auto rows (total %d) differ from the tree's (total %d)", label, auto.Total, tree.Total)
			}
			if auto.Explain.Chosen != engine.PathRTree || auto.Explain.Forced || !reflect.DeepEqual(auto.Explain.Segments, tree.Explain.Segments) {
				t.Errorf("%s: auto plan %v forced=%v %+v, the tree's %+v", label, auto.Explain.Chosen, auto.Explain.Forced, auto.Explain.Segments, tree.Explain.Segments)
			}
		}
	}
}

// zeroTimes clears the wall-clock fields so stats comparisons are
// deterministic.
func zeroTimes(s *SearchStats) {
	s.PlanTime, s.ProbeTime, s.VerifyTime = 0, 0, 0
}

// TestSearchBatchPlannedMixedEps is the ExecBatch satellite: one
// batch holding a tiny-ε query, a huge-ε query and a huge-ε forced scan
// must run each query on its own path — the tree, the tree and the scan
// within a single call — and its accumulated stats must equal the
// sequential per-query totals exactly.
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
		{Vec: q1, Eps: 1e9, Force: engine.PathScan},
	}

	var batchStats SearchStats
	results, _, err := ix.ExecBatch(context.Background(), batch, 2, &batchStats)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []engine.PathKind{engine.PathRTree, engine.PathRTree, engine.PathScan} {
		if got := results[i].Explain.Chosen; got != want {
			t.Errorf("query %d ran %v, want %v", i, got, want)
		}
	}
	if batchStats.PathProbes[engine.PathRTree] != 2 || batchStats.PathProbes[engine.PathScan] != 1 {
		t.Errorf("PathProbes = %v, want 2 rtree + 1 scan", batchStats.PathProbes)
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

// TestSearchBatchStillPlansPerQuery pins that a fixed-ε batch honours
// each query's forced path: one probe per query, counted against the
// path that query asked for.
func TestSearchBatchStillPlansPerQuery(t *testing.T) {
	opts := testOptions()
	ix := buildTestIndex(t, opts, 4, 100)
	forces := []engine.PathKind{engine.PathAuto, engine.PathScan, engine.PathRTree, engine.PathScan, engine.PathAuto}
	rng := rand.New(rand.NewSource(5))
	batch := make([]Query, len(forces))
	for i, force := range forces {
		q := make(vec.Vector, opts.WindowLen)
		for j := range q {
			q[j] = rng.NormFloat64()
		}
		batch[i] = Query{Vec: q, Eps: 0.5, Force: force}
	}
	var stats SearchStats
	results, _, err := ix.ExecBatch(context.Background(), batch, 0, &stats)
	if err != nil {
		t.Fatal(err)
	}
	for i, force := range forces {
		want := force
		if want == engine.PathAuto {
			want = engine.PathRTree
		}
		if ex := results[i].Explain; ex.Chosen != want || ex.Forced != (force != engine.PathAuto) {
			t.Errorf("query %d forced %v: ran %v forced=%v", i, force, ex.Chosen, ex.Forced)
		}
	}
	if want := [engine.NumPathKinds]int{0, 3, 2}; stats.PathProbes != want {
		t.Errorf("PathProbes %v, want %v: one probe per query on the path it asked for", stats.PathProbes, want)
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
