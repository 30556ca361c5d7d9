// Longquery demonstrates the multipiece method of the paper's
// concluding remarks (§7): a query longer than the extracting window n
// is split into ⌊len/n⌋ disjoint sub-queries, each searched
// independently with a reduced error bound ε/√k, and the proposed
// alignments are verified on the full length — provably without
// missing a qualified subsequence.
//
// The demo indexes a market with window n = 64, then searches for a
// full half-year pattern (256 days = 4 pieces) disguised by scale and
// shift, and cross-checks the result against a brute-force scan.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"scaleshift/internal/core"
	"scaleshift/internal/seqscan"
	"scaleshift/internal/stock"
	"scaleshift/internal/store"
	"scaleshift/internal/vec"
)

func main() {
	st := store.New()
	cfg := stock.DefaultConfig()
	cfg.Companies = 100
	if _, err := stock.Populate(st, cfg); err != nil {
		log.Fatal(err)
	}

	opts := core.DefaultOptions()
	opts.WindowLen = 64 // the index knows nothing about 256-day queries
	ix, err := core.NewIndex(st, opts)
	if err != nil {
		log.Fatal(err)
	}
	if err := ix.Build(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index: window n=%d, %d windows\n", opts.WindowLen, ix.WindowCount())

	// The query: 256 consecutive days of company 42, disguised.
	const qLen = 256
	src := make(vec.Vector, qLen)
	if err := st.Window(42, 200, qLen, src, nil); err != nil {
		log.Fatal(err)
	}
	q := vec.Apply(src, 0.8, 12)
	eps := 0.05 * vec.Norm(vec.SETransform(q))
	fmt.Printf("query: %d days (%d pieces), disguised by a=0.8 b=12, eps=%.3f\n\n",
		qLen, qLen/opts.WindowLen, eps)

	// Multipiece index search.
	var stats core.SearchStats
	start := time.Now()
	// A query longer than the window runs as a multipiece search.
	res, err := ix.Exec(context.Background(), core.Query{Vec: q, Eps: eps}, &stats)
	if err != nil {
		log.Fatal(err)
	}
	matches := res.Matches
	indexTime := time.Since(start)
	fmt.Printf("multipiece search: %d matches in %v (%d candidates, %d false alarms)\n",
		len(matches), indexTime.Round(time.Microsecond), stats.Candidates, stats.FalseAlarms)
	for i, m := range matches {
		if i == 8 {
			fmt.Printf("  ... %d more\n", len(matches)-8)
			break
		}
		fmt.Printf("  %-8s days [%3d, %3d)  dist=%7.3f  a=%+.3f  b=%+7.2f\n",
			m.Name, m.Start, m.Start+qLen, m.Dist, m.Scale, m.Shift)
	}

	// Ground truth by brute force.
	start = time.Now()
	oracle, err := seqscan.Search(st, q, eps, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	scanTime := time.Since(start)
	fmt.Printf("\nbrute-force scan: %d matches in %v\n", len(oracle), scanTime.Round(time.Microsecond))

	if len(matches) != len(oracle) {
		log.Fatalf("MISMATCH: index %d vs scan %d", len(matches), len(oracle))
	}
	for i := range matches {
		if matches[i].Seq != oracle[i].Seq || matches[i].Start != oracle[i].Start {
			log.Fatalf("MISMATCH at rank %d", i)
		}
	}
	fmt.Printf("result sets identical (no false dismissals); index %.1fx faster\n",
		float64(scanTime)/float64(indexTime))
}
