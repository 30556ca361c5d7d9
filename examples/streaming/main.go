// Streaming demonstrates requirement 2 of the paper's problem
// statement (§3): the index must cope with frequent, regular data
// insertion, because time series are collected continuously.
//
// A live market feed is simulated: the index starts with one month of
// history for 50 tickers, then new tickers list (AppendAndIndex) while
// a monitoring query runs after every batch.  Each batch lands in the
// index's delta and is searchable when the call returns; Freeze, once
// at the end of the session, folds what accumulated into the arena.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"

	"scaleshift/internal/core"
	"scaleshift/internal/stock"
	"scaleshift/internal/store"
	"scaleshift/internal/vec"
)

const window = 64

func main() {
	// Bootstrap: 50 tickers of history.
	st := store.New()
	cfg := stock.DefaultConfig()
	cfg.Companies = 50
	cfg.Days = 250
	if _, err := stock.Populate(st, cfg); err != nil {
		log.Fatal(err)
	}

	opts := core.DefaultOptions()
	opts.WindowLen = window
	ix, err := core.NewIndex(st, opts)
	if err != nil {
		log.Fatal(err)
	}
	if err := ix.Build(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bootstrap: %d tickers, %d windows indexed\n\n", st.NumSequences(), ix.WindowCount())

	// The pattern we watch for: a sharp V-shaped reversal.
	pattern := make(vec.Vector, window)
	for i := range pattern {
		pattern[i] = math.Abs(float64(i) - window/2)
	}
	eps := 0.25 * vec.Norm(vec.SETransform(pattern))
	costs := core.UnboundedCosts()
	costs.ScaleMin = 0.5 // only upright, materially-sized reversals

	r := rand.New(rand.NewSource(99))
	for batch := 1; batch <= 5; batch++ {
		// A new ticker lists with 120 days of history; one of the
		// batches hides a planted reversal.
		prices := make([]float64, 120)
		p := 20 + r.Float64()*30
		for i := range prices {
			p *= math.Exp(r.NormFloat64() * 0.01)
			prices[i] = p
		}
		name := fmt.Sprintf("IPO%02d", batch)
		if batch == 3 {
			// Plant a scaled, shifted copy of the pattern.
			for i := 0; i < window; i++ {
				prices[30+i] = 3*pattern[i] + 45
			}
			name = "IPO03*"
		}
		seq, err := ix.AppendAndIndex(name, prices)
		if err != nil {
			log.Fatal(err)
		}

		var stats core.SearchStats
		res, err := ix.Exec(context.Background(), core.Query{Vec: pattern, Eps: eps, Costs: &costs}, &stats)
		if err != nil {
			log.Fatal(err)
		}
		matches := res.Matches
		// Report only hits on the just-listed ticker.
		fresh := 0
		for _, m := range matches {
			if m.Seq == seq {
				if fresh == 0 {
					fmt.Printf("batch %d: reversal alert on %s at day %d (a=%.2f, b=%.2f, dist=%.2f)\n",
						batch, m.Name, m.Start, m.Scale, m.Shift, m.Dist)
				}
				fresh++
			}
		}
		if planted := batch == 3; planted != (fresh > 0) {
			log.Fatalf("batch %d: %d alerts on %s, but the reversal is planted in batch 3 only", batch, fresh, name)
		}
		if fresh == 0 {
			fmt.Printf("batch %d: %s indexed, no reversal (total windows %d, %d matches elsewhere)\n",
				batch, name, ix.WindowCount(), len(matches))
		}
	}

	// Live ticks: the most recent ticker keeps trading; every batch of
	// new samples is indexed incrementally — windows spanning the old
	// end are searchable at once (requirement 2 of §3).
	fmt.Println()
	live := st.NumSequences() - 1
	lastPrice := 30.0
	for tick := 0; tick < 3; tick++ {
		batch := make([]float64, 20)
		for i := range batch {
			lastPrice *= math.Exp(r.NormFloat64() * 0.01)
			batch[i] = lastPrice
		}
		before := ix.WindowCount()
		if err := ix.AppendValues(live, batch); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("tick batch %d: +20 samples on %s, %d new windows indexed (total %d)\n",
			tick+1, st.SequenceName(live), ix.WindowCount()-before, ix.WindowCount())
	}

	// End of session: fold the day's delta into the arena, then remove a
	// delisted ticker from the index.
	if err := ix.Freeze(); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	before := ix.WindowCount()
	if err := ix.UnindexSequence(0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("delisted %s: %d windows removed, %d remain searchable\n",
		st.SequenceName(0), before-ix.WindowCount(), ix.WindowCount())
}
