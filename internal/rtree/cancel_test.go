package rtree

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"scaleshift/internal/geom"
	"scaleshift/internal/vec"
)

func buildCancelTree(t *testing.T, n int) (*FlatTree, vec.Line) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	ids, cols := make([]int64, n), make([]float64, 4*n)
	for i := range ids {
		ids[i] = int64(i)
		for d := 0; d < 4; d++ {
			cols[d*n+i] = rng.NormFloat64()
		}
	}
	f, err := BulkLoadFlat(DefaultConfig(4), ids, cols, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := vec.Vector{1, 0.5, -0.25, 2}
	return mbrTwin(t, f), vec.Line{P: make(vec.Vector, 4), D: d}
}

// TestContextSearchesMatchPlain asserts the ctx variants return
// exactly what the plain searches return when the context stays live.
func TestContextSearchesMatchPlain(t *testing.T) {
	tree, line := buildCancelTree(t, 600)
	ctx := context.Background()
	const eps = 1.2

	plain := tree.LineSearch(line, eps, geom.EnteringExiting, nil)
	// The IDs are appended after whatever the caller's buffer holds.
	got, err := tree.LineSearchIDs(ctx, line, eps, geom.EnteringExiting, nil, []int64{-7})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(plain)+1 || got[0] != -7 {
		t.Fatalf("line: %d ids after the prefix vs %d items", len(got)-1, len(plain))
	}
	for i, id := range got[1:] {
		if id != plain[i].ID {
			t.Fatalf("line item %d differs", i)
		}
	}

	plainSeg := tree.SegmentSearch(line, -0.5, 2, eps, geom.EnteringExiting, nil)
	gotSeg, err := tree.SegmentSearchIDs(ctx, line, -0.5, 2, eps, geom.EnteringExiting, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotSeg) != len(plainSeg) {
		t.Fatalf("segment: %d vs %d items", len(gotSeg), len(plainSeg))
	}
	for i, id := range gotSeg {
		if id != plainSeg[i].ID {
			t.Fatalf("segment item %d differs", i)
		}
	}
}

// dyingContext is a context that reports cancellation from its nth
// Err call on: the descent polls once per node, so it dies n-1 nodes in.
type dyingContext struct {
	context.Context
	polls, n int
}

func (c *dyingContext) Err() error {
	if c.polls++; c.polls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestContextSearchesStopWhenCancelled asserts the serving descent's
// cancellation contract on every ctx variant: a context already dead
// stops it before the first page, and one that dies mid-descent stops it
// within one node — exactly the pages polled so far are read — returning
// the hits found until then (a prefix of the full answer) with ctx.Err().
func TestContextSearchesStopWhenCancelled(t *testing.T) {
	tree, line := buildCancelTree(t, 600)
	const eps = 1.2
	ee := geom.EnteringExiting
	searches := map[string]func(ctx context.Context, stats *SearchStats) ([]int64, error){
		"line": func(ctx context.Context, stats *SearchStats) ([]int64, error) {
			return tree.LineSearchIDs(ctx, line, eps, ee, stats, nil)
		},
		"segment": func(ctx context.Context, stats *SearchStats) ([]int64, error) {
			return tree.SegmentSearchIDs(ctx, line, -1, 1, eps, ee, stats, nil)
		},
	}
	for name, search := range searches {
		var full SearchStats
		want, err := search(context.Background(), &full)
		if err != nil || len(want) == 0 || full.NodeAccesses < 10 {
			t.Fatalf("%s: full search: %d hits over %d pages, err %v", name, len(want), full.NodeAccesses, err)
		}

		dead, cancel := context.WithCancel(context.Background())
		cancel()
		var stats SearchStats
		if got, err := search(dead, &stats); !errors.Is(err, context.Canceled) || len(got) != 0 || stats.NodeAccesses != 0 {
			t.Errorf("%s: cancelled before the start: %d hits, %d pages, err %v", name, len(got), stats.NodeAccesses, err)
		}

		for _, n := range []int{2, full.NodeAccesses / 2, full.NodeAccesses} {
			stats = SearchStats{}
			got, err := search(&dyingContext{Context: context.Background(), n: n}, &stats)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: dying at poll %d: err = %v", name, n, err)
			}
			if stats.NodeAccesses != n-1 {
				t.Errorf("%s: dying at poll %d: read %d pages, want %d", name, n, stats.NodeAccesses, n-1)
			}
			if len(got) > len(want) {
				t.Fatalf("%s: dying at poll %d: %d hits, the full answer has %d", name, n, len(got), len(want))
			}
			for i, id := range got {
				if id != want[i] {
					t.Fatalf("%s: dying at poll %d: hit %d is %d, want %d", name, n, i, id, want[i])
				}
			}
		}
	}
}
