package rtree

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"scaleshift/internal/vec"
)

// TestProbeFrontierIsTheDescent: the subtrees Probe.Frontier returns,
// run in order through the probe, are LineSearchIDs/SegmentSearchIDs —
// the same ids in the same order and the same SearchStats — and run in
// reverse order through forks, each counting on its own, the same ids as
// a set and the same counts summed; over an arena tall enough to have a
// frontier, where some subtrees are accepted whole.
func TestProbeFrontierIsTheDescent(t *testing.T) {
	const n, dim = 20000, 4
	rng := rand.New(rand.NewSource(11))
	ids, cols := make([]int64, n), make([]float64, dim*n)
	for i := range ids {
		ids[i] = int64(i)
		for d := 0; d < dim; d++ {
			cols[d*n+i] = rng.NormFloat64()
		}
	}
	cone, err := BulkLoadFlat(DefaultConfig(dim), ids, cols, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cone.Height() < 4 {
		t.Fatalf("height %d: the frontier needs levels above level 1", cone.Height())
	}
	line := vec.Line{P: make(vec.Vector, dim), D: vec.Vector{1, 0.5, -0.25, 2}}
	ctx := context.Background()
	var wide, accepted int
	for _, tree := range []struct {
		name string
		f    *FlatTree
	}{{"direction-box", cone}} {
		f := tree.f
		for _, eps := range []float64{0.05, 0.3, 1.5} {
			for _, segment := range []bool{false, true} {
				var want []int64
				var wantStats, stats SearchStats
				var p Probe
				if segment {
					want, err = f.SegmentSearchIDs(ctx, line, -1, 1, eps, &wantStats, nil)
					p = f.SegmentProbe(line, -1, 1, eps, &stats)
				} else {
					want, err = f.LineSearchIDs(ctx, line, eps, &wantStats, nil)
					p = f.LineProbe(line, eps, &stats)
				}
				if err != nil {
					t.Fatal(err)
				}
				tasks, err := p.Frontier(ctx, &stats, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(tasks) > 1 {
					wide++
				}
				frontier := stats
				var got []int64
				for _, task := range tasks {
					if task.accept {
						accepted++
					}
					if got, err = p.Descend(ctx, task, &stats, got); err != nil {
						t.Fatal(err)
					}
				}
				if !slices.Equal(got, want) || stats != wantStats {
					t.Fatalf("%s ε %g segment %v: %d subtrees in order gave %d ids and %+v, the descent %d and %+v",
						tree.name, eps, segment, len(tasks), len(got), stats, len(want), wantStats)
				}
				sum, got := frontier, got[:0]
				for i := len(tasks) - 1; i >= 0; i-- {
					fork := p.Fork()
					var own SearchStats
					if got, err = fork.Descend(ctx, tasks[i], &own, got); err != nil {
						t.Fatal(err)
					}
					fork.Release()
					sum.Add(own)
				}
				p.Release()
				slices.Sort(got)
				sorted := slices.Clone(want)
				slices.Sort(sorted)
				if !slices.Equal(got, sorted) || sum != wantStats {
					t.Fatalf("%s ε %g segment %v: forks gave %d ids and %+v, the descent %d and %+v",
						tree.name, eps, segment, len(got), sum, len(want), wantStats)
				}
			}
		}
	}
	if wide == 0 || accepted == 0 {
		t.Fatalf("%d probes had more than one subtree and %d subtrees were accepted whole: the test needs both", wide, accepted)
	}
}
