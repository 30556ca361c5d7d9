package core_test

import (
	"context"
	"fmt"
	"log"

	"scaleshift/internal/core"
	"scaleshift/internal/store"
	"scaleshift/internal/vec"
)

// Index a toy database and search for a sequence that only matches
// after scaling and shifting.
func ExampleIndex_Exec() {
	st := store.New()
	st.AppendSequence("up-down", []float64{1, 3, 2, 4, 1, 3, 2, 4})
	st.AppendSequence("flatline", []float64{5, 5, 5, 5, 5, 5, 5, 5})

	opts := core.DefaultOptions()
	opts.WindowLen = 8
	opts.Coefficients = 2
	ix, err := core.NewIndex(st, opts)
	if err != nil {
		log.Fatal(err)
	}
	if err := ix.Build(); err != nil {
		log.Fatal(err)
	}

	// The query is "up-down" scaled by 10 and shifted by 100.
	q := vec.Apply(vec.Vector{1, 3, 2, 4, 1, 3, 2, 4}, 10, 100)
	costs := core.UnboundedCosts()
	costs.ScaleMin = 0.01 // exclude degenerate a≈0 matches
	res, err := ix.Exec(context.Background(), core.Query{Vec: q, Eps: 0.001, Costs: costs}, nil)
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range res.Matches {
		fmt.Printf("%s matches with a=%.1f b=%.0f\n", m.Name, m.Scale, m.Shift)
	}
	// Output: up-down matches with a=0.1 b=-10
}

// Recover the k most similar windows with their transformations.
func ExampleIndex_Exec_nearestNeighbors() {
	st := store.New()
	st.AppendSequence("w", []float64{0, 1, 0, -1, 0, 1, 0, -1, 0, 1})

	opts := core.DefaultOptions()
	opts.WindowLen = 8
	opts.Coefficients = 2
	ix, err := core.NewIndex(st, opts)
	if err != nil {
		log.Fatal(err)
	}
	if err := ix.Build(); err != nil {
		log.Fatal(err)
	}

	q := vec.Vector{0, 5, 0, -5, 0, 5, 0, -5} // the same wave, amplified
	res, err := ix.Exec(context.Background(), core.Query{Vec: q, K: 1}, nil)
	if err != nil {
		log.Fatal(err)
	}
	nn := res.Matches
	fmt.Printf("best window starts at %d, exact=%v\n", nn[0].Start, nn[0].Dist < 1e-6)
	// Output: best window starts at 0, exact=true
}
