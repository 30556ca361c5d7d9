package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
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

// oneSegmentQueries is the query mix: every kind, the planner on both
// sides of its crossover, a scale-bounded (segment) probe, and every
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
// records, floats in round-trip form.  A refused query renders as its
// error.
func ledger(res Result, stats SearchStats, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	g := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	var b strings.Builder
	fmt.Fprintf(&b, "nodes=%d pages=%d cand=%d fa=%d cr=%d res=%d exact=%d leaf=%d pen=%v probes=%v",
		stats.IndexNodeAccesses, stats.DataPageAccesses, stats.Candidates, stats.FalseAlarms, stats.CostRejected,
		stats.Results, stats.ExactChecks, stats.LeafEntriesChecked, stats.Penetration, stats.PathProbes)
	if ex := res.Explain; ex != nil {
		fmt.Fprintf(&b, " | chosen=%s forced=%v pieces=%d est=%s actual=%d",
			ex.Chosen, ex.Forced, ex.Pieces, g(ex.EstCandidates), ex.ActualCandidates)
		for _, p := range ex.Plans {
			if p.Available {
				fmt.Fprintf(&b, " %s(%s %s %s)", p.Path, g(p.Cost.Units), g(p.Cost.Candidates), g(p.Cost.NodeReads))
			} else {
				fmt.Fprintf(&b, " %s(%s)", p.Path, p.Reason)
			}
		}
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
// k-NN never accept, and their rows did not change.
var oneSegmentGolden = map[string]string{
	"bulk/tight":          "nodes=60 pages=5 cand=99 fa=70 cr=0 res=29 exact=29 leaf=765 pen={203 0 0} probes=[0 1 0] | chosen=rtree forced=false pieces=1 est=142.15447154471545 actual=99 rtree(833.5593175712931 142.15447154471545 57.61707050221481) scan(5380 5380 0)",
	"bulk/loose":          "nodes=0 pages=12 cand=5380 fa=2075 cr=0 res=3305 exact=3305 leaf=0 pen={0 0 0} probes=[0 0 1] | chosen=scan forced=false pieces=1 est=5380 actual=5380 rtree(6770.885891555579 3488.252032520325 273.5528215862712) scan(5380 5380 0)",
	"bulk/bounded":        "nodes=70 pages=1 cand=2 fa=1 cr=0 res=1 exact=1 leaf=969 pen={217 0 0} probes=[0 1 0] | chosen=rtree forced=false pieces=1 est=10.934959349593496 actual=2 rtree(228.71155769854784 10.934959349593496 18.14804986241286) scan(5380 5380 0)",
	"bulk/force-rtree":    "nodes=138 pages=8 cand=1018 fa=129 cr=0 res=889 exact=889 leaf=1547 pen={268 0 0} probes=[0 1 0] | chosen=rtree forced=true pieces=1 est=1104.4308943089432 actual=1018 rtree(2967.2630985463834 1104.4308943089432 155.2360170197867) scan(5380 5380 0)",
	"bulk/force-scan":     "nodes=0 pages=12 cand=5380 fa=4491 cr=0 res=889 exact=889 leaf=0 pen={0 0 0} probes=[0 0 1] | chosen=scan forced=true pieces=1 est=5380 actual=5380 rtree(2967.2630985463834 1104.4308943089432 155.2360170197867) scan(5380 5380 0)",
	"bulk/long":           "nodes=718 pages=11 cand=2076 fa=1158 cr=0 res=918 exact=918 leaf=7939 pen={787 0 0} probes=[0 3 0] | chosen=rtree forced=false pieces=3 est=2110.4471544715448 actual=2076 rtree(4671.768365627107 2110.4471544715448 213.4434342629635) scan(5380 5380 0)",
	"bulk/knn":            "nodes=48 pages=4 cand=31 fa=0 cr=0 res=5 exact=6 leaf=612 pen={0 0 0} probes=[0 0 0]",
	"insert/tight":        "nodes=173 pages=5 cand=99 fa=70 cr=0 res=29 exact=29 leaf=2278 pen={386 0 0} probes=[0 1 0] | chosen=rtree forced=false pieces=1 est=87.54437869822485 actual=99 rtree(726.4138413492329 87.54437869822485 53.23912188758401) scan(5380 5380 0)",
	"insert/loose":        "nodes=0 pages=12 cand=5380 fa=2075 cr=0 res=3305 exact=3305 leaf=0 pen={0 0 0} probes=[0 0 1] | chosen=scan forced=false pieces=1 est=5380 actual=5380 rtree(7372.080543214561 3557.4852071005917 317.8829446761641) scan(5380 5380 0)",
	"insert/bounded":      "nodes=66 pages=1 cand=2 fa=1 cr=0 res=1 exact=1 leaf=736 pen={292 0 0} probes=[0 1 0] | chosen=rtree forced=false pieces=1 est=7.958579881656805 actual=2 rtree(234.11242603550298 7.958579881656805 18.846153846153847) scan(5380 5380 0)",
	"insert/force-rtree":  "nodes=243 pages=8 cand=1018 fa=129 cr=0 res=889 exact=889 leaf=3298 pen={386 0 0} probes=[0 1 0] | chosen=rtree forced=true pieces=1 est=1026.6568047337278 actual=1018 rtree(3098.0955322527175 1026.6568047337278 172.6198939599158) scan(5380 5380 0)",
	"insert/force-scan":   "nodes=0 pages=12 cand=5380 fa=4491 cr=0 res=889 exact=889 leaf=0 pen={0 0 0} probes=[0 0 1] | chosen=scan forced=true pieces=1 est=5380 actual=5380 rtree(3098.0955322527175 1026.6568047337278 172.6198939599158) scan(5380 5380 0)",
	"insert/long":         "nodes=599 pages=12 cand=4100 fa=3182 cr=0 res=918 exact=918 leaf=8239 pen={772 0 0} probes=[0 2 1] | chosen=rtree forced=false pieces=3 est=2156.775147928994 actual=4100 rtree(5137.5575939586415 2156.775147928994 248.3985371691373) scan(5380 5380 0)",
	"insert/knn":          "nodes=153 pages=4 cand=31 fa=0 cr=0 res=5 exact=6 leaf=1976 pen={0 0 0} probes=[0 0 0]",
	"spheres/tight":       "nodes=60 pages=5 cand=99 fa=70 cr=0 res=29 exact=29 leaf=765 pen={203 0 0} probes=[0 1 0] | chosen=rtree forced=false pieces=1 est=142.15447154471545 actual=99 rtree(833.5593175712931 142.15447154471545 57.61707050221481) scan(5380 5380 0)",
	"spheres/loose":       "nodes=0 pages=12 cand=5380 fa=2075 cr=0 res=3305 exact=3305 leaf=0 pen={0 0 0} probes=[0 0 1] | chosen=scan forced=false pieces=1 est=5380 actual=5380 rtree(6770.885891555579 3488.252032520325 273.5528215862712) scan(5380 5380 0)",
	"spheres/bounded":     "nodes=70 pages=1 cand=2 fa=1 cr=0 res=1 exact=1 leaf=969 pen={217 0 0} probes=[0 1 0] | chosen=rtree forced=false pieces=1 est=10.934959349593496 actual=2 rtree(228.71155769854784 10.934959349593496 18.14804986241286) scan(5380 5380 0)",
	"spheres/force-rtree": "nodes=138 pages=8 cand=1018 fa=129 cr=0 res=889 exact=889 leaf=1547 pen={268 0 0} probes=[0 1 0] | chosen=rtree forced=true pieces=1 est=1104.4308943089432 actual=1018 rtree(2967.2630985463834 1104.4308943089432 155.2360170197867) scan(5380 5380 0)",
	"spheres/force-scan":  "nodes=0 pages=12 cand=5380 fa=4491 cr=0 res=889 exact=889 leaf=0 pen={0 0 0} probes=[0 0 1] | chosen=scan forced=true pieces=1 est=5380 actual=5380 rtree(2967.2630985463834 1104.4308943089432 155.2360170197867) scan(5380 5380 0)",
	"spheres/long":        "nodes=718 pages=11 cand=2076 fa=1158 cr=0 res=918 exact=918 leaf=7939 pen={787 0 0} probes=[0 3 0] | chosen=rtree forced=false pieces=3 est=2110.4471544715448 actual=2076 rtree(4671.768365627107 2110.4471544715448 213.4434342629635) scan(5380 5380 0)",
	"spheres/knn":         "nodes=48 pages=4 cand=31 fa=0 cr=0 res=5 exact=6 leaf=612 pen={0 0 0} probes=[0 0 0]",
}

// TestIndexIsOneSegment is the differential behind "an Index is the
// one-segment, empty-delta manifest": over every kind of index and of
// query, the rows are bit-identical to a sequential scan's, the ledger
// and the plan are the ones the separate Index read path produced
// before the fold (oneSegmentGolden), and — where a SegmentedIndex can
// wrap the index — wrapping it changes nothing a caller can observe.
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
		results := make([]Result, len(cells))
		ledgers := make([]SearchStats, len(cells))
		errs := make([]error, len(cells))
		for i, c := range cells {
			key := cfg.name + "/" + c.name
			var stats SearchStats
			res, err := ix.Exec(ctx, c.q, &stats)
			results[i], ledgers[i], errs[i] = res, stats, err
			if got, want := ledger(res, stats, err), oneSegmentGolden[key]; got != want {
				t.Errorf("%s: ledger\n  got  %q\n  want %q", key, got, want)
			}
			if err != nil {
				if !errors.Is(err, engine.ErrUnsupported) {
					t.Errorf("%s: refused with %v, want an engine.ErrUnsupported", key, err)
				}
				continue
			}
			if err := sameAsScan(res.Matches, c.oracle(t, st)); err != nil || res.Total != len(res.Matches) {
				t.Errorf("%s: total %d: %v", key, res.Total, err)
			}
		}
		seg, err := NewSegmentedFromIndex(ix)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range cells {
			key := cfg.name + "/" + c.name + " segmented"
			var stats SearchStats
			res, err := seg.Exec(ctx, c.q, &stats)
			if err != nil || errs[i] != nil {
				if fmt.Sprint(err) != fmt.Sprint(errs[i]) {
					t.Errorf("%s: error %v, the wrapped index's is %v", key, err, errs[i])
				}
				continue
			}
			zeroTimes(&stats)
			zeroTimes(&ledgers[i])
			if err := sameMatches(res.Matches, results[i].Matches); err != nil || res.Total != results[i].Total {
				t.Errorf("%s: rows differ from the wrapped index's: %v", key, err)
			}
			if stats != ledgers[i] {
				t.Errorf("%s: stats\n  got  %+v\n  want %+v", key, stats, ledgers[i])
			}
			if got, want := res.Explain, results[i].Explain; got != nil && want != nil {
				got.PlanTime, got.ProbeTime, got.VerifyTime = 0, 0, 0
				want.PlanTime, want.ProbeTime, want.VerifyTime = 0, 0, 0
			}
			if !reflect.DeepEqual(res.Explain, results[i].Explain) {
				t.Errorf("%s: explain\n  got  %+v\n  want %+v", key, res.Explain, results[i].Explain)
			}
		}
		if err := seg.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
