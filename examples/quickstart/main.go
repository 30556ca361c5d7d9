// Quickstart reproduces the worked example of the paper's introduction
// (Figure 1): sequences A, B and C look different, but B = 2·A and
// C = A + 20, so under scale/shift similarity they are the same
// sequence.  It then indexes a toy database and shows that searching
// with A as the query retrieves both B and C with the transformations
// that map A onto them.
package main

import (
	"context"
	"fmt"
	"log"

	"scaleshift/internal/core"
	"scaleshift/internal/store"
	"scaleshift/internal/vec"
)

func main() {
	a := vec.Vector{5, 10, 6, 12, 4}
	b := vec.Vector{10, 20, 12, 24, 8}
	c := vec.Vector{25, 30, 26, 32, 24}

	fmt.Println("Figure 1 sequences:")
	fmt.Println("  A =", a)
	fmt.Println("  B =", b)
	fmt.Println("  C =", c)
	fmt.Println()

	// Pairwise minimum scale/shift distances (Theorem 1 closed forms).
	for _, pair := range []struct {
		name string
		u, v vec.Vector
	}{
		{"A ~ B", a, b},
		{"A ~ C", a, c},
		{"B ~ C", b, c},
	} {
		m := vec.MinDist(pair.u, pair.v)
		fmt.Printf("  %s: dist=%.2g with scale a=%.3g, shift b=%.3g\n",
			pair.name, m.Dist, m.Scale, m.Shift)
	}
	fmt.Println()

	// Index a small database containing B, C, and some decoys, then
	// search with A.
	st := store.New()
	st.AppendSequence("B", b)
	st.AppendSequence("C", c)
	st.AppendSequence("decoy-1", []float64{1, 9, 2, 8, 3})
	st.AppendSequence("decoy-2", []float64{7, 7, 8, 7, 7})

	opts := core.DefaultOptions()
	opts.WindowLen = 5    // match the example's sequence length
	opts.Coefficients = 2 // 2·fc < n requires fc <= 2 at n = 5
	ix, err := core.NewIndex(st, opts)
	if err != nil {
		log.Fatal(err)
	}
	if err := ix.Build(); err != nil {
		log.Fatal(err)
	}

	// A query is a value; a nil Costs accepts every (a, b).
	res, err := ix.Exec(context.Background(), core.Query{Vec: a, Eps: 0.001}, nil)
	if err != nil {
		log.Fatal(err)
	}
	matches := res.Matches
	if len(matches) != 2 {
		log.Fatalf("query A found %d matches, want B and C", len(matches))
	}
	fmt.Printf("query A with eps=0.001 finds %d matches:\n", len(matches))
	for _, m := range matches {
		fmt.Printf("  %-8s  F_{a,b}(A) = %.3g*A + %.3g  (dist %.2g)\n",
			m.Name, m.Scale, m.Shift, m.Dist)
	}
}
