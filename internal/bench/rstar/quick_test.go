package rstar

import (
	"testing"
	"testing/quick"

	"scaleshift/internal/geom"
	"scaleshift/internal/rtree"
	"scaleshift/internal/vec"
)

// TestQuickInsertedPointsAreRetrievable is a testing/quick property on
// the tree as a whole: any finite batch of 2-d points, inserted one by
// one, is fully retrievable by a whole-bounds range query and the tree
// invariants hold.
func TestQuickInsertedPointsAreRetrievable(t *testing.T) {
	f := func(xs, ys []float64) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		if n == 0 || n > 300 {
			return true
		}
		cfg := Config{Config: rtree.Config{Dim: 2, MaxEntries: 6, MinEntries: 2}, ReinsertCount: 1, Split: SplitRStar}
		tr, err := New(cfg)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			x, y := xs[i], ys[i]
			if x != x || y != y || x > 1e12 || x < -1e12 || y > 1e12 || y < -1e12 {
				return true // reject NaN/huge inputs
			}
			tr.Insert(vec.Vector{x, y}, int64(i))
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Logf("invariants: %v", err)
			return false
		}
		return len(tr.Freeze().RangeSearch(tr.root.mbr(), nil)) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestQuickLineSearchSupersetOfTightened checks monotonicity in eps:
// results at a smaller epsilon are a subset of results at a larger one.
func TestQuickLineSearchSupersetOfTightened(t *testing.T) {
	f := func(xs, ys []float64, rawEps float64) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		if n == 0 || n > 200 {
			return true
		}
		if rawEps != rawEps {
			return true
		}
		eps := rawEps
		if eps < 0 {
			eps = -eps
		}
		if eps > 1e6 {
			return true
		}
		cfg := Config{Config: rtree.Config{Dim: 2, MaxEntries: 6, MinEntries: 2}, Split: SplitQuadratic}
		tr, err := New(cfg)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			x, y := xs[i], ys[i]
			if x != x || y != y || x > 1e6 || x < -1e6 || y > 1e6 || y < -1e6 {
				return true
			}
			tr.Insert(vec.Vector{x, y}, int64(i))
		}
		l := vec.Line{P: vec.Vector{0, 0}, D: vec.Vector{1, 1}}
		s := tr.Freeze()
		small := s.LineSearchIDs(l, eps/2, geom.EnteringExiting, nil, nil)
		in := idSet(s.LineSearchIDs(l, eps, geom.EnteringExiting, nil, nil))
		for _, id := range small {
			if !in[id] {
				return false
			}
		}
		return len(small) <= len(in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
