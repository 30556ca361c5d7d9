// Stocks is the paper's motivating application (§1): find companies
// whose price movement has the same *trend* as a reference stock, even
// when the absolute price level (shift) and the fluctuation amplitude
// (scale) differ.
//
// It builds a synthetic Hong Kong market of 200 companies, takes a
// quarter-long window of one company's price history as the query, and
// retrieves every window in the market with the same trend — first
// unrestricted, then with cost bounds that keep only positively
// correlated trends (scale factor a > 0), and finally as a top-10
// nearest-neighbour ranking.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"scaleshift/internal/core"
	"scaleshift/internal/stock"
	"scaleshift/internal/store"
	"scaleshift/internal/vec"
)

func main() {
	// A synthetic market: 200 companies, 650 trading days.
	st := store.New()
	cfg := stock.DefaultConfig()
	cfg.Companies = 200
	companies, err := stock.Populate(st, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("market: %d companies, %d closing prices (%d data pages)\n",
		len(companies), st.TotalValues(), st.PageCount())

	opts := core.DefaultOptions() // n = 128, f_c = 3, paper's R*-tree
	ix, err := core.NewIndex(st, opts)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	if err := ix.Build(); err != nil { // STR bulk load: ~20x faster than insertion
		log.Fatal(err)
	}
	fmt.Printf("index: %d windows in %v\n\n", ix.WindowCount(), time.Since(start).Round(time.Millisecond))

	// The query: one quarter (~128 trading days) of company 17.
	const refSeq, refStart = 17, 300
	q := make(vec.Vector, opts.WindowLen)
	if err := st.Window(refSeq, refStart, opts.WindowLen, q, nil); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query: %s days [%d, %d), price range ~%.2f..%.2f\n",
		st.SequenceName(refSeq), refStart, refStart+opts.WindowLen, minOf(q), maxOf(q))

	// Calibrate epsilon to the query's own fluctuation: accept windows
	// whose shape differs by at most a 25 % residual.
	eps := 0.25 * vec.Norm(vec.SETransform(q))
	fmt.Printf("eps: %.3f (25%% of the query's fluctuation norm)\n\n", eps)

	// 1. Unrestricted scale/shift search.
	var stats core.SearchStats
	res, err := ix.Exec(context.Background(), core.Query{Vec: q, Eps: eps}, &stats)
	if err != nil {
		log.Fatal(err)
	}
	all := res.Matches
	fmt.Printf("same-trend windows (any scale/shift): %d matches, %d index + %d data pages\n",
		len(all), stats.IndexNodeAccesses, stats.DataPageAccesses)

	// 2. Only positively correlated trends with bounded amplification:
	// 0.2 <= a <= 5 rejects inverse (a < 0) and degenerate (a ~ 0)
	// matches; |b| <= 100 keeps the price level within HK$100.
	costs := core.UnboundedCosts()
	costs.ScaleMin, costs.ScaleMax = 0.2, 5
	costs.ShiftMin, costs.ShiftMax = -100, 100
	stats = core.SearchStats{}
	res, err = ix.Exec(context.Background(), core.Query{Vec: q, Eps: eps, Costs: &costs}, &stats)
	if err != nil {
		log.Fatal(err)
	}
	positive := res.Matches
	checkCosts(positive, costs)
	fmt.Printf("with cost bounds 0.2<=a<=5, |b|<=100:     %d matches (%d rejected by cost)\n\n",
		len(positive), stats.CostRejected)

	// 3. The ten most similar windows from OTHER companies.  Without
	// cost bounds the ranking is dominated by near-flat penny-stock
	// windows that "match" any query via a ≈ 0 — bounding the scale
	// factor keeps only genuine trend-alikes.
	res, err = ix.Exec(context.Background(), core.Query{Vec: q, K: 60, Costs: &costs}, nil)
	if err != nil {
		log.Fatal(err)
	}
	checkCosts(res.Matches, costs)
	fmt.Println("top trend-alikes from other companies (cost-bounded):")
	printed := 0
	for _, m := range res.Matches {
		if m.Seq == refSeq {
			continue // skip self-overlapping windows
		}
		fmt.Printf("  %-8s days [%3d, %3d)  dist=%7.3f  a=%+.3f  b=%+8.2f\n",
			m.Name, m.Start, m.Start+opts.WindowLen, m.Dist, m.Scale, m.Shift)
		printed++
		if printed == 10 {
			break
		}
	}
}

// checkCosts exits non-zero when a cost-bounded match lies outside the
// bounds it was searched under.
func checkCosts(matches []core.Match, costs core.CostBounds) {
	for _, m := range matches {
		if m.Scale < costs.ScaleMin || m.Scale > costs.ScaleMax || m.Shift < costs.ShiftMin || m.Shift > costs.ShiftMax {
			log.Fatalf("%s day %d matched at a=%g, b=%g, outside the cost bounds", m.Name, m.Start, m.Scale, m.Shift)
		}
	}
}

func minOf(v vec.Vector) float64 {
	m := v[0]
	for _, x := range v[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func maxOf(v vec.Vector) float64 {
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
