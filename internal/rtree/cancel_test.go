package rtree

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"scaleshift/internal/geom"
	"scaleshift/internal/vec"
)

func buildCancelTree(t *testing.T, n int) (*Tree, vec.Line) {
	t.Helper()
	tree, err := New(DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		p := make(vec.Vector, 4)
		for d := range p {
			p[d] = rng.NormFloat64()
		}
		tree.Insert(p, int64(i))
	}
	d := vec.Vector{1, 0.5, -0.25, 2}
	return tree, vec.Line{P: make(vec.Vector, 4), D: d}
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

	plainR := tree.LineSearchRects(line, eps, geom.EnteringExiting, nil)
	gotR, err := tree.LineSearchRectsContext(ctx, line, eps, geom.EnteringExiting, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotR) != len(plainR) {
		t.Fatalf("rects: %d vs %d items", len(gotR), len(plainR))
	}

	plainSR := tree.SegmentSearchRects(line, -0.5, 2, eps, geom.EnteringExiting, nil)
	gotSR, err := tree.SegmentSearchRectsContext(ctx, line, -0.5, 2, eps, geom.EnteringExiting, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotSR) != len(plainSR) {
		t.Fatalf("segment rects: %d vs %d items", len(gotSR), len(plainSR))
	}
}

// TestContextSearchesStopWhenCancelled asserts a dead context stops
// every variant with ctx.Err() and stats untouched beyond the partial
// visit.
func TestContextSearchesStopWhenCancelled(t *testing.T) {
	tree, line := buildCancelTree(t, 600)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	var stats SearchStats
	if _, err := tree.LineSearchIDs(ctx, line, 1.2, geom.EnteringExiting, &stats, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("line err = %v", err)
	}
	if stats.NodeAccesses != 0 {
		t.Errorf("cancelled-before-start search visited %d pages", stats.NodeAccesses)
	}
	if _, err := tree.SegmentSearchIDs(ctx, line, -1, 1, 1.2, geom.EnteringExiting, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("segment err = %v", err)
	}
	if _, err := tree.LineSearchRectsContext(ctx, line, 1.2, geom.EnteringExiting, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("rects err = %v", err)
	}
	if _, err := tree.SegmentSearchRectsContext(ctx, line, -1, 1, 1.2, geom.EnteringExiting, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("segment rects err = %v", err)
	}
}
