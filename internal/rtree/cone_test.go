package rtree

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"scaleshift/internal/binio"
	"scaleshift/internal/geom"
	"scaleshift/internal/vec"
)

// boxTree bulk loads n points whose norms spread over decades and whose
// directions cluster — the shape feature points have — into a small-fanout
// tree, and returns it with the points as it stores them, by id.
func boxTree(t testing.TB, rng *rand.Rand, cfg Config, n int) (*FlatTree, []vec.Vector) {
	t.Helper()
	ids, cols := make([]int64, n), make([]float64, n*cfg.Dim)
	centres := make([]vec.Vector, 5)
	for c := range centres {
		centres[c] = randPoint(rng, cfg.Dim, 1)
	}
	for i := 0; i < n; i++ {
		ids[i] = int64(i)
		scale := math.Pow(10, -4*rng.Float64())
		if rng.Intn(2) == 0 {
			scale = -scale
		}
		for j, c := range centres[rng.Intn(len(centres))] {
			cols[j*n+i] = scale * (c + 0.2*rng.NormFloat64())
		}
		if i%97 == 0 {
			for j := 0; j < cfg.Dim; j++ {
				cols[j*n+i] = 0 // the zero point
			}
		}
	}
	f, err := BulkLoadFlat(cfg, ids, cols, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	stored := make([]vec.Vector, n)
	for _, it := range f.All() {
		stored[it.ID] = it.Point
	}
	return f, stored
}

// TestDirectionBoxNoDismissal is Theorem 3 for the cone test, by
// exhaustion: over bulk-loaded trees, for lines through the origin (the
// served case) and off it, and for segments bounded on both sides, on
// one, and empty, at ε from nothing to everything and on every stored
// point's own distance, the candidates are a superset of the stored
// points a scan puts within ε — and exactly the points an MBR directory
// over the same leaves returns, give or take the kernel's own rounding.
func TestDirectionBoxNoDismissal(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	ctx := context.Background()
	for _, cfg := range []Config{
		{Dim: 6, MaxEntries: 8, MinEntries: 3, ReinsertCount: 2, Split: SplitRStar},
		{Dim: 2, MaxEntries: 4, MinEntries: 2, Split: SplitRStar},
		DefaultConfig(3),
	} {
		f, stored := boxTree(t, rng, cfg, 1500)
		if f.Directory() != DirectoryBox || f.Height() < 3 {
			t.Fatalf("bulk load built a %s directory of height %d", f.Directory(), f.Height())
		}
		mbr := mbrTwin(t, f)
		// What the one-pass leaf kernel may lose to cancellation, which
		// callers cover (core's numericSlack).
		kernel := 1e-7 * math.Sqrt(float64(cfg.Dim))
		for q := 0; q < 12; q++ {
			l := vec.Line{P: make(vec.Vector, cfg.Dim), D: randPoint(rng, cfg.Dim, 1)}
			switch q % 4 {
			case 1:
				l.D = stored[rng.Intn(len(stored))].Clone() // straight through a stored point
			case 2:
				l.P = randPoint(rng, cfg.Dim, 0.05)
			}
			dist := make([]float64, len(stored))
			for i, p := range stored {
				dist[i], _ = vec.PLD(p, l)
			}
			sorted := append([]float64(nil), dist...)
			sort.Float64s(sorted)
			for _, eps := range []float64{0, 1e-12, sorted[1], sorted[len(sorted)/50], sorted[len(sorted)/4], math.Nextafter(sorted[len(sorted)/2], 0), 100} {
				for _, seg := range [][2]float64{{math.Inf(-1), math.Inf(1)}, {0.2, 3}, {-2, -0.01}, {0, math.Inf(1)}, {1, 0.5}} {
					segment := !math.IsInf(seg[0], -1)
					var got, ref []int64
					var gs, rs SearchStats
					if segment {
						got, _ = f.SegmentSearchIDs(ctx, l, seg[0], seg[1], eps+kernel, geom.BoundingSpheres, &gs, nil)
						ref, _ = mbr.SegmentSearchIDs(ctx, l, seg[0], seg[1], eps+kernel, geom.EnteringExiting, &rs, nil)
					} else {
						got, _ = f.LineSearchIDs(ctx, l, eps+kernel, geom.BoundingSpheres, &gs, nil)
						ref, _ = mbr.LineSearchIDs(ctx, l, eps+kernel, geom.EnteringExiting, &rs, nil)
					}
					found := make(map[int64]bool, len(got))
					for _, id := range got {
						found[id] = true
					}
					for i, p := range stored {
						d := dist[i]
						if segment {
							d = segDist(p, l, seg[0], seg[1])
							if seg[0] > seg[1] {
								d = math.Inf(1)
							}
						}
						if d <= eps && !found[int64(i)] {
							t.Fatalf("dim %d query %d eps %g segment %v: stored point %d at distance %g dismissed", cfg.Dim, q, eps, seg, i, d)
						}
					}
					if gs.Penetration.SphereTests != 0 || gs.Penetration.SlabTests == 0 && f.Height() > 1 {
						t.Fatalf("direction-box descent counted %+v: one box test per directory entry, whatever the strategy", gs.Penetration)
					}
					// Both directories hand the same leaves' points to the same
					// kernel: what one returns and the other does not sits on
					// the kernel's rounding edge, and is rare.
					if diff := symmetricDiff(got, ref); diff > 2 {
						t.Fatalf("dim %d query %d eps %g segment %v: %d candidates differ between the two directories (%d vs %d)", cfg.Dim, q, eps, seg, diff, len(got), len(ref))
					}
				}
			}
		}
	}
}

func symmetricDiff(a, b []int64) int {
	in := make(map[int64]int, len(a))
	for _, id := range a {
		in[id]++
	}
	for _, id := range b {
		in[id]--
	}
	n := 0
	for _, c := range in {
		if c != 0 {
			n++
		}
	}
	return n
}

// TestDirectionBoxNearestStream drains the best-first stream of bulk-
// loaded trees: every stored point exactly once, distances never
// decreasing, each the leaf kernel's own distance for the point (raised,
// at most by the kernel's rounding, to the bound of the node it came
// from), and the order the sorted brute force gives.
func TestDirectionBoxNearestStream(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	cfg := Config{Dim: 6, MaxEntries: 8, MinEntries: 3, ReinsertCount: 2, Split: SplitRStar}
	f, stored := boxTree(t, rng, cfg, 2000)
	kernel := 1e-7 * math.Sqrt(float64(cfg.Dim))
	for q := 0; q < 10; q++ {
		l := vec.Line{P: make(vec.Vector, cfg.Dim), D: randPoint(rng, cfg.Dim, 1)}
		if q%3 == 2 {
			l.P = randPoint(rng, cfg.Dim, 0.1)
		}
		want := make([]float64, len(stored))
		for i, p := range stored {
			want[i] = vec.PLDFast(p, l)
		}
		sorted := append([]float64(nil), want...)
		sort.Float64s(sorted)
		seen := make([]bool, len(stored))
		prev, rank := math.Inf(-1), 0
		var stats SearchStats
		f.NearestToLineFunc(l, &stats, func(it ItemDist) bool {
			if seen[it.Item.ID] {
				t.Fatalf("query %d: point %d streamed twice", q, it.Item.ID)
			}
			seen[it.Item.ID] = true
			if it.Dist < prev {
				t.Fatalf("query %d rank %d: stream went from %g back to %g", q, rank, prev, it.Dist)
			}
			if d := want[it.Item.ID]; it.Dist < d-kernel || it.Dist > d+kernel {
				t.Fatalf("query %d rank %d: point %d streamed at %g, its distance is %g", q, rank, it.Item.ID, it.Dist, d)
			}
			if math.Abs(it.Dist-sorted[rank]) > kernel {
				t.Fatalf("query %d rank %d: streamed %g, the sorted scan has %g", q, rank, it.Dist, sorted[rank])
			}
			prev = it.Dist
			rank++
			return true
		})
		if rank != len(stored) {
			t.Fatalf("query %d: stream emitted %d of %d points", q, rank, len(stored))
		}
		// A short prefix must not cost the whole tree.
		var ks SearchStats
		if got := f.NearestToLine(l, 5, &ks); len(got) != 5 || (q%3 != 2 && ks.NodeAccesses > f.NodeCount()/2) {
			t.Fatalf("query %d: 5-NN returned %d items over %d of %d nodes", q, len(got), ks.NodeAccesses, f.NodeCount())
		}
	}
}

// boxCorruptions returns arenas that differ from the valid direction-box
// arena of f in one directory value each, all of which Validate must
// refuse: the first entry of the last level-1 node with its direction
// box shrunk under a point it covers, its least norm raised over one, its
// greatest norm lowered under one; and the root's first entry moved
// inside the extent of the node it references.
func boxCorruptions(t testing.TB, f *FlatTree) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	mutate := func(what string, node, row int, hi bool, steps int) {
		g, err := FlatFromArena(f.AppendArena(nil))
		if err != nil {
			t.Fatal(err)
		}
		pl := g.nodePlanes(node)
		cell := &pl.LRow(row)[0]
		if hi {
			cell = &pl.HRow(row)[0]
		}
		for ; steps > 0; steps-- {
			*cell = above32(*cell)
		}
		for ; steps < 0; steps++ {
			*cell = below32(*cell)
		}
		out[what] = g.AppendArena(nil)
	}
	level1 := -1
	for i := range f.meta {
		if f.nodeLevel(i) == 1 {
			level1 = i // the last one: the largest norms
		}
	}
	if level1 < 0 || f.nodeLevel(0) < 2 {
		t.Fatal("tree too flat to corrupt a directory level")
	}
	// A leaf-level bound is the extreme key stepped once outward: two
	// steps back put it inside.  A bound above is its child's own.
	mutate("shrunk direction box", level1, 2, true, -2)
	mutate("raised r_lo", level1, 0, false, 2)
	mutate("lowered r_hi", level1, 0, true, -2)
	mutate("root entry inside its child", 0, 1, false, 1)
	return out
}

// TestValidateDirectionBox requires Validate to refuse each of
// boxCorruptions, children out of pre-order and an unknown directory
// kind, and FlatFromArena to refuse a header that names one.
func TestValidateDirectionBox(t *testing.T) {
	f, _ := boxTree(t, rand.New(rand.NewSource(79)), Config{Dim: 3, MaxEntries: 5, MinEntries: 2, Split: SplitRStar}, 300)
	for what, arena := range boxCorruptions(t, f) {
		g, err := FlatFromArena(arena)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		err = g.Validate()
		if err == nil {
			t.Fatalf("%s passed Validate", what)
		}
		t.Logf("%s: %v", what, err)
	}
	// Two children swapped: every extent still holds, but the subtree an
	// accepted entry emits is a node range, which is right only pre-order.
	g, err := FlatFromArena(f.AppendArena(nil))
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.meta {
		if s, e := g.nodeEntries(i); g.nodeLevel(i) == 1 && e-s >= 2 {
			g.refs[s], g.refs[s+1] = g.refs[s+1], g.refs[s]
			break
		}
	}
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "pre-order") {
		t.Fatalf("children out of pre-order: Validate says %v", err)
	}
	g, err = FlatFromArena(f.AppendArena(nil))
	if err != nil {
		t.Fatal(err)
	}
	g.dir = 3
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "unknown directory kind 3") {
		t.Fatalf("directory kind 3: Validate says %v", err)
	}
	if _, err := FlatFromArena(withLeafKind(f.AppendArena(nil), 3)); !errors.Is(err, binio.ErrVersion) || !strings.Contains(err.Error(), "unsupported directory kind 3") {
		t.Fatalf("header word 9 = 3: %v, want a version error naming the directory kind", err)
	}
}

// TestRangeSearchNeedsMBRs: a rectangle query over a direction-box
// directory is a caller's bug and says so; over a lone leaf, which has no
// directory, it is answered.
func TestRangeSearchNeedsMBRs(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	cfg := Config{Dim: 2, MaxEntries: 4, MinEntries: 2, Split: SplitRStar}
	everything := geom.Rect{L: vec.Vector{-100, -100}, H: vec.Vector{100, 100}}
	leaf, _ := boxTree(t, rng, cfg, 3)
	if got := leaf.RangeSearch(everything, nil); len(got) != 3 {
		t.Fatalf("lone leaf: %d of 3 points", len(got))
	}
	f, _ := boxTree(t, rng, cfg, 100)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("RangeSearch over a direction-box directory returned")
		}
	}()
	f.RangeSearch(everything, nil)
}
