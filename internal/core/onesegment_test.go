package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"scaleshift/internal/bench/rstar"
	"scaleshift/internal/engine"
	"scaleshift/internal/geom"
	"scaleshift/internal/query"
	"scaleshift/internal/seqscan"
	"scaleshift/internal/stock"
	"scaleshift/internal/store"
	"scaleshift/internal/vec"
)

// oneSegmentQuery is one column of TestIndexIsOneSegment's grid.
type oneSegmentQuery struct {
	name string
	q    Query
}

// oneSegmentQueries is the query mix: every kind, a tight and a loose
// ε on the default path, a scale-bounded (segment) probe, and every
// forced path.
func oneSegmentQueries(t *testing.T, st *store.Store, n int) []oneSegmentQuery {
	t.Helper()
	w := make(vec.Vector, 3*n)
	if err := st.Window(3, 40, len(w), w, nil); err != nil {
		t.Fatal(err)
	}
	q, long := vec.Apply(w[:n], 1.4, -3), vec.Apply(w, 0.6, 11)
	scale, err := query.SENormScale(st, n, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	longScale, err := query.SENormScale(st, len(long), 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	inf := math.Inf(1)
	return []oneSegmentQuery{
		{"tight", Query{Vec: q, Eps: 0.01 * scale}},
		{"loose", Query{Vec: q, Eps: 0.6 * scale}},
		{"bounded", Query{Vec: q, Eps: 0.2 * scale, Costs: CostBounds{ScaleMin: 0.5, ScaleMax: 2, ShiftMin: -inf, ShiftMax: inf}}},
		{"force-rtree", Query{Vec: q, Eps: 0.05 * scale, Force: engine.PathRTree}},
		{"force-scan", Query{Vec: q, Eps: 0.05 * scale, Force: engine.PathScan}},
		{"long", Query{Vec: long, Eps: 0.1 * longScale}},
		{"knn", Query{Vec: q, K: 5}},
	}
}

// oracle answers q by sequential scan.
func (c oneSegmentQuery) oracle(t *testing.T, st *store.Store) []seqscan.Result {
	t.Helper()
	var want []seqscan.Result
	var err error
	if c.q.K > 0 {
		want, err = seqscan.Nearest(st, c.q.Vec, c.q.K, nil)
	} else {
		var keep seqscan.Filter
		if c.q.Costs != (CostBounds{}) {
			keep = c.q.Costs.Allow
		}
		want, err = seqscan.Search(st, c.q.Vec, c.q.Eps, keep, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// ledger renders what a query's answer must reproduce exactly beyond
// its rows: every non-time SearchStats field and the plan the Explain
// records.  A refused query renders as its error.
func ledger(res Result, stats SearchStats, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "nodes=%d pages=%d cand=%d fa=%d cr=%d res=%d exact=%d leaf=%d pen=%v probes=%v",
		stats.IndexNodeAccesses, stats.DataPageAccesses, stats.Candidates, stats.FalseAlarms, stats.CostRejected,
		stats.Results, stats.ExactChecks, stats.LeafEntriesChecked, stats.Penetration, stats.PathProbes)
	if ex := res.Explain; ex != nil {
		fmt.Fprintf(&b, " | chosen=%s forced=%v pieces=%d actual=%d",
			ex.Chosen, ex.Forced, ex.Pieces, ex.ActualCandidates)
	}
	return b.String()
}

// oneSegmentGolden holds ledger() of every cell, recorded at the parent
// of the commit that folded Index's read path into the manifest (PR 18)
// — where Index planned through its own planner over three path
// objects and probed on its own — over the same seeded fixture.  When
// the sub-trail leaf was retired (PR 22) its rows and columns left by a
// mechanical edit — the trail8/* and */force-trail rows, the trail(…)
// plan cell, and the fourth slot of probes=[…] (engine.NumPathKinds is
// 3) — and no other character of a remaining cell moved.  When bulk
// builds went to the direction-box directory (PR 24) the bulk/* and
// spheres/* rows were recorded again, once: of their cells only the
// index-side counts moved — nodes, leaf, pen (one box test per directory
// entry; the strategy is ignored there, so spheres/* now repeats bulk/*)
// — and the planner's sampled estimates (est and the rtree(…) costs: the
// sample is every k-th point in leaf order, and leaf order changed);
// cand, fa, cr, res, exact, pages, probes and every chosen path stayed,
// as did every insert/* row (and the degraded/* rows, which left with
// degraded mode by a mechanical edit, with the degraded= columns).  When the descent began
// accepting the a ≈ 0 shell whole (a directory entry with r_hi within ε
// of an SE-line emits its leaves untested), the bulk/* and spheres/*
// rows of the three line probes that reach the shell — tight,
// force-rtree, long — were recorded again: leaf went down, and nodes
// and pen with it where an accepted entry sat above level 1; nothing
// else in them moved.  The bounded (segment) probe and
// k-NN never accept, and their rows did not change.  When the cost
// model was deleted (auto became the tree), the est= column and the
// rtree(…)/scan(…) plan-table cells left every row by a mechanical edit,
// and the four cells where auto had chosen the scan — bulk/loose,
// insert/loose, spheres/loose and insert/long, whose third piece had
// scanned — were recorded again: there nodes, pages, cand, fa, leaf,
// pen, probes and chosen moved to the tree's, and res and exact did
// not; no other row changed.
var oneSegmentGolden = map[string]string{
	"bulk/tight":          "nodes=60 pages=5 cand=99 fa=70 cr=0 res=29 exact=29 leaf=765 pen={203 0 0} probes=[0 1 0] | chosen=rtree forced=false pieces=1 actual=99",
	"bulk/loose":          "nodes=283 pages=12 cand=3525 fa=220 cr=0 res=3305 exact=3305 leaf=2431 pen={217 0 0} probes=[0 1 0] | chosen=rtree forced=false pieces=1 actual=3525",
	"bulk/bounded":        "nodes=70 pages=1 cand=2 fa=1 cr=0 res=1 exact=1 leaf=969 pen={217 0 0} probes=[0 1 0] | chosen=rtree forced=false pieces=1 actual=2",
	"bulk/force-rtree":    "nodes=138 pages=8 cand=1018 fa=129 cr=0 res=889 exact=889 leaf=1547 pen={268 0 0} probes=[0 1 0] | chosen=rtree forced=true pieces=1 actual=1018",
	"bulk/force-scan":     "nodes=0 pages=12 cand=5380 fa=4491 cr=0 res=889 exact=889 leaf=0 pen={0 0 0} probes=[0 0 1] | chosen=scan forced=true pieces=1 actual=5380",
	"bulk/long":           "nodes=718 pages=11 cand=2076 fa=1158 cr=0 res=918 exact=918 leaf=7939 pen={787 0 0} probes=[0 3 0] | chosen=rtree forced=false pieces=3 actual=2076",
	"bulk/knn":            "nodes=48 pages=4 cand=31 fa=0 cr=0 res=5 exact=6 leaf=612 pen={0 0 0} probes=[0 0 0]",
	"insert/tight":        "nodes=173 pages=5 cand=99 fa=70 cr=0 res=29 exact=29 leaf=2278 pen={386 0 0} probes=[0 1 0] | chosen=rtree forced=false pieces=1 actual=99",
	"insert/loose":        "nodes=358 pages=12 cand=3525 fa=220 cr=0 res=3305 exact=3305 leaf=4960 pen={386 0 0} probes=[0 1 0] | chosen=rtree forced=false pieces=1 actual=3525",
	"insert/bounded":      "nodes=66 pages=1 cand=2 fa=1 cr=0 res=1 exact=1 leaf=736 pen={292 0 0} probes=[0 1 0] | chosen=rtree forced=false pieces=1 actual=2",
	"insert/force-rtree":  "nodes=243 pages=8 cand=1018 fa=129 cr=0 res=889 exact=889 leaf=3298 pen={386 0 0} probes=[0 1 0] | chosen=rtree forced=true pieces=1 actual=1018",
	"insert/force-scan":   "nodes=0 pages=12 cand=5380 fa=4491 cr=0 res=889 exact=889 leaf=0 pen={0 0 0} probes=[0 0 1] | chosen=scan forced=true pieces=1 actual=5380",
	"insert/long":         "nodes=942 pages=11 cand=2076 fa=1158 cr=0 res=918 exact=918 leaf=12972 pen={1158 0 0} probes=[0 3 0] | chosen=rtree forced=false pieces=3 actual=2076",
	"insert/knn":          "nodes=153 pages=4 cand=31 fa=0 cr=0 res=5 exact=6 leaf=1976 pen={0 0 0} probes=[0 0 0]",
	"spheres/tight":       "nodes=60 pages=5 cand=99 fa=70 cr=0 res=29 exact=29 leaf=765 pen={203 0 0} probes=[0 1 0] | chosen=rtree forced=false pieces=1 actual=99",
	"spheres/loose":       "nodes=283 pages=12 cand=3525 fa=220 cr=0 res=3305 exact=3305 leaf=2431 pen={217 0 0} probes=[0 1 0] | chosen=rtree forced=false pieces=1 actual=3525",
	"spheres/bounded":     "nodes=70 pages=1 cand=2 fa=1 cr=0 res=1 exact=1 leaf=969 pen={217 0 0} probes=[0 1 0] | chosen=rtree forced=false pieces=1 actual=2",
	"spheres/force-rtree": "nodes=138 pages=8 cand=1018 fa=129 cr=0 res=889 exact=889 leaf=1547 pen={268 0 0} probes=[0 1 0] | chosen=rtree forced=true pieces=1 actual=1018",
	"spheres/force-scan":  "nodes=0 pages=12 cand=5380 fa=4491 cr=0 res=889 exact=889 leaf=0 pen={0 0 0} probes=[0 0 1] | chosen=scan forced=true pieces=1 actual=5380",
	"spheres/long":        "nodes=718 pages=11 cand=2076 fa=1158 cr=0 res=918 exact=918 leaf=7939 pen={787 0 0} probes=[0 3 0] | chosen=rtree forced=false pieces=3 actual=2076",
	"spheres/knn":         "nodes=48 pages=4 cand=31 fa=0 cr=0 res=5 exact=6 leaf=612 pen={0 0 0} probes=[0 0 0]",
}

// TestIndexIsOneSegment is the differential behind "a built index is
// one frozen segment of the one index type": over every kind of index
// and of query, the rows are bit-identical to a sequential scan's, and
// the ledger and the plan are the ones the separate Index read path
// produced before the fold (oneSegmentGolden).
func TestIndexIsOneSegment(t *testing.T) {
	newStore := func() *store.Store {
		st := store.New()
		cfg := stock.DefaultConfig()
		cfg.Companies, cfg.Days = 20, 300
		if _, err := stock.Populate(st, cfg); err != nil {
			t.Fatal(err)
		}
		return st
	}
	built := func(mutate func(*Options), build func(*Index) error) func(*store.Store) *Index {
		return func(st *store.Store) *Index {
			opts := testOptions()
			mutate(&opts)
			ix, err := NewIndex(st, opts)
			if err == nil {
				err = build(ix)
			}
			if err != nil {
				t.Fatal(err)
			}
			return ix
		}
	}
	plain := func(*Options) {}
	configs := []struct {
		name string
		open func(*store.Store) *Index
	}{
		{"bulk", built(plain, (*Index).BuildBulk)},
		{"insert", built(plain, func(ix *Index) error { return ix.BuildWith(rstar.Load) })},
		{"spheres", built(func(o *Options) { o.Strategy = geom.BoundingSpheres }, (*Index).BuildBulk)},
	}
	ctx := context.Background()
	for _, cfg := range configs {
		st := newStore()
		ix := cfg.open(st)
		cells := oneSegmentQueries(t, st, ix.Options().WindowLen)
		for _, c := range cells {
			key := cfg.name + "/" + c.name
			var stats SearchStats
			res, err := ix.Exec(ctx, c.q, &stats)
			if got, want := ledger(res, stats, err), oneSegmentGolden[key]; got != want {
				t.Errorf("%s: ledger\n  got  %q\n  want %q", key, got, want)
			}
			if err != nil {
				continue
			}
			if err := sameAsScan(res.Matches, c.oracle(t, st)); err != nil || res.Total != len(res.Matches) {
				t.Errorf("%s: total %d: %v", key, res.Total, err)
			}
		}
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
