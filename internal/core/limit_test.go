package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"scaleshift/internal/vec"
)

// TestLimitDifferential holds Query.Limit to its contract: the limited
// answer is the unlimited answer's prefix, bit for bit, Total is the
// unlimited answer's size, and the ledger classifies every candidate
// the same way, reading at most the unlimited query's data pages (the
// same ones once a cost bound is finite: only then must every window be
// fetched) — on an Index and on a SegmentedIndex with a populated
// delta, sequentially and fanned out, for range and multipiece queries,
// unbounded and finite cost bounds, constant queries and constant
// windows, and with ε and a cost bound placed exactly on a window's
// exact distance and scale and on the floats either side, where the
// certified bound must hand the decision to the exact pass.
func TestLimitDifferential(t *testing.T) {
	opts := testOptions()
	n := opts.WindowLen
	names, vals := stockSeries(t, 6, 420)
	// A flat stretch: constant windows, and windows that leave it.
	for i := 150; i < 150+2*n; i++ {
		vals[4][i] = vals[4][150]
	}
	ctx := context.Background()
	for trial := 0; trial < 2; trial++ {
		rng := rand.New(rand.NewSource(int64(9100 + trial)))
		f := growWithDelta(t, opts, names, vals, rng)

		type testQuery struct {
			what  string
			q     vec.Vector
			eps   float64
			costs CostBounds
		}
		var queries []testQuery
		add := func(what string, q vec.Vector, eps float64, costs CostBounds) {
			queries = append(queries, testQuery{what, q, eps, costs})
		}
		straddling := f.window(t, 1, f.packed[1]-n/2, n)
		frozen := f.window(t, 2, 3+rng.Intn(50), n)
		long := f.window(t, 3, 10+rng.Intn(50), 2*n)
		flat := f.window(t, 4, 150, n)
		scaleBounded := CostBounds{ScaleMin: 0.5, ScaleMax: 2, ShiftMin: math.Inf(-1), ShiftMax: math.Inf(1)}
		shiftBounded := CostBounds{ScaleMin: math.Inf(-1), ScaleMax: math.Inf(1), ShiftMin: -20, ShiftMax: 5}
		for _, frac := range []float64{0.05, 0.4, 3} {
			add(fmt.Sprintf("straddling, eps %g", frac), vec.Apply(straddling, 1.3, -2), frac*seNorm(straddling), UnboundedCosts())
			add(fmt.Sprintf("frozen, eps %g", frac), vec.Apply(frozen, 0.7, 11), frac*seNorm(frozen), UnboundedCosts())
			add(fmt.Sprintf("frozen, scale-bounded, eps %g", frac), vec.Apply(frozen, 0.7, 11), frac*seNorm(frozen), scaleBounded)
			add(fmt.Sprintf("frozen, shift-bounded, eps %g", frac), frozen, frac*seNorm(frozen), shiftBounded)
			add(fmt.Sprintf("long, eps %g", frac), vec.Apply(long, 2, 1), frac*seNorm(long), UnboundedCosts())
			add(fmt.Sprintf("long, scale-bounded, eps %g", frac), long, frac*seNorm(long), scaleBounded)
		}
		add("constant query", flat, 0.5*seNorm(frozen), UnboundedCosts())
		add("constant query, eps 0", flat, 0, UnboundedCosts())
		add("eps 0", frozen, 0, UnboundedCosts())
		// Thresholds on the boundary: ε at the exact distance of a window
		// in the middle of a loose answer, a scale bound at its exact scale.
		loose, err := f.ref.Exec(ctx, Query{Vec: frozen, Eps: 0.4 * seNorm(frozen)}, nil)
		if err != nil || len(loose.Matches) < 20 {
			t.Fatalf("trial %d: boundary query: %d matches, err %v", trial, len(loose.Matches), err)
		}
		pivot := loose.Matches[len(loose.Matches)/2]
		for _, side := range []float64{math.Inf(-1), 0, math.Inf(1)} {
			eps, scale := pivot.Dist, pivot.Scale
			if side != 0 {
				eps, scale = math.Nextafter(eps, side), math.Nextafter(scale, side)
			}
			add(fmt.Sprintf("eps at a window's distance %+g", side), frozen, eps, UnboundedCosts())
			add(fmt.Sprintf("scale bound at a window's scale %+g", side), frozen, 0.4*seNorm(frozen),
				CostBounds{ScaleMin: scale, ScaleMax: math.Inf(1), ShiftMin: math.Inf(-1), ShiftMax: math.Inf(1)})
		}

		counted := 0   // candidates classified without the exact pass
		unfetched := 0 // of them, matches counted from their norm alone
		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			for _, ix := range []struct {
				what string
				ix   execer
			}{{"index", f.ref}, {"segmented", f.g}} {
				for _, tq := range queries {
					label := fmt.Sprintf("trial %d, GOMAXPROCS %d, %s, %s", trial, procs, ix.what, tq.what)
					var fullStats SearchStats
					full, err := ix.ix.Exec(ctx, Query{Vec: tq.q, Eps: tq.eps, Costs: tq.costs}, &fullStats)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if full.Total != len(full.Matches) || fullStats.Results != full.Total {
						t.Fatalf("%s: unlimited answer of %d rows has Total %d, Results %d", label, len(full.Matches), full.Total, fullStats.Results)
					}
					for _, limit := range []int{1, 7, 100, 1e6} {
						var stats SearchStats
						got, err := ix.ix.Exec(ctx, Query{Vec: tq.q, Eps: tq.eps, Costs: tq.costs, Limit: limit}, &stats)
						if err != nil {
							t.Fatalf("%s, limit %d: %v", label, limit, err)
						}
						if got.Total != full.Total {
							t.Fatalf("%s, limit %d: Total %d, the unlimited answer has %d rows", label, limit, got.Total, full.Total)
						}
						if err := sameMatches(got.Matches, full.Matches[:min(limit, full.Total)]); err != nil {
							t.Fatalf("%s, limit %d: rows vs the unlimited answer's prefix: %v", label, limit, err)
						}
						if err := stats.CheckInvariants(); err != nil {
							t.Fatalf("%s, limit %d: %v", label, limit, err)
						}
						if stats.Candidates != fullStats.Candidates || stats.FalseAlarms != fullStats.FalseAlarms ||
							stats.CostRejected != fullStats.CostRejected || stats.Results != fullStats.Results ||
							stats.DataPageAccesses > fullStats.DataPageAccesses {
							t.Fatalf("%s, limit %d: ledger %+v, unlimited %+v", label, limit, stats, fullStats)
						}
						if tq.costs != UnboundedCosts() && (stats.NormCertified != 0 || stats.DataPageAccesses != fullStats.DataPageAccesses) {
							t.Fatalf("%s, limit %d: finite cost bounds need every window's (a, b), yet %d were not fetched (%d data pages, unlimited %d)",
								label, limit, stats.NormCertified, stats.DataPageAccesses, fullStats.DataPageAccesses)
						}
						if stats.ExactChecks+stats.NormCertified > stats.Candidates || stats.ExactChecks < len(got.Matches) || fullStats.NormCertified != 0 {
							t.Fatalf("%s, limit %d: %d exact checks and %d norm-certified for %d candidates and %d rows (%d norm-certified unlimited)",
								label, limit, stats.ExactChecks, stats.NormCertified, stats.Candidates, len(got.Matches), fullStats.NormCertified)
						}
						counted += stats.Candidates - stats.ExactChecks
						unfetched += stats.NormCertified
					}
				}
			}
			runtime.GOMAXPROCS(prev)
		}
		if counted == 0 || unfetched == 0 {
			t.Fatalf("trial %d: %d candidates classified from the bounds alone, %d of them without being fetched", trial, counted, unfetched)
		}
	}
}
