package rtree

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"scaleshift/internal/binio"
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
	for _, it := range storedItems(f) {
		stored[it.ID] = it.Point
	}
	return f, stored
}

// TestDirectionBoxNoDismissal is Theorem 3 for the cone test, by
// exhaustion: over bulk-loaded trees, for lines through the origin (the
// served case) and off it, and for segments bounded on both sides, on
// one, and empty, at ε from nothing to everything and on every stored
// point's own distance, the candidates are a superset of the stored
// points a scan puts within ε, and every directory entry tested is one
// box test.  (The same leaves under the insert-built tree's MBRs return
// the same points: internal/bench/rstar, TestBulkLoadSearchMatchesInsertBuilt.)
func TestDirectionBoxNoDismissal(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	ctx := context.Background()
	for _, cfg := range []Config{
		{Dim: 6, MaxEntries: 8, MinEntries: 3},
		{Dim: 2, MaxEntries: 4, MinEntries: 2},
		DefaultConfig(3),
	} {
		f, stored := boxTree(t, rng, cfg, 1500)
		if f.Height() < 3 {
			t.Fatalf("bulk load built a tree of height %d", f.Height())
		}
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
					var got []int64
					var gs SearchStats
					if segment {
						got, _ = f.SegmentSearchIDs(ctx, l, seg[0], seg[1], eps+kernel, &gs, nil)
					} else {
						got, _ = f.LineSearchIDs(ctx, l, eps+kernel, &gs, nil)
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
						t.Fatalf("direction-box descent counted %+v: one box test per directory entry", gs.Penetration)
					}
				}
			}
		}
	}
}

// TestDirectionBoxNearestStream walks the k-NN seeds' descent over a
// bulk-loaded (direction-box) tree: at every directory node it enters
// the entry whose cone bound, by the scalar reference Cone.LowerSq, is
// smallest (the first on a tie), so it ends at that level-1 node; the
// seeds are that node's leaf entries in slot order, each at the leaf
// kernel's distance bit for bit; and only that path and those leaves are
// read.
func TestDirectionBoxNearestStream(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	cfg := Config{Dim: 6, MaxEntries: 8, MinEntries: 3}
	f, _ := boxTree(t, rng, cfg, 2000)
	items := storedItems(f)
	lo, hi, p := make([]float64, cfg.Dim), make([]float64, cfg.Dim), make(vec.Vector, cfg.Dim)
	for q := 0; q < 12; q++ {
		l := vec.Line{P: make(vec.Vector, cfg.Dim), D: randPoint(rng, cfg.Dim, 1)}
		switch q % 3 {
		case 1:
			// Through a stored point, as a disguised query's line passes
			// through its source: the point's path is bounded by 0 all the
			// way down, and its leaf is tied at 0.
			l.D = items[rng.Intn(len(items))].Point.Clone()
		case 2:
			l.P = randPoint(rng, cfg.Dim, 0.1)
		}
		aq := arenaUnits(f, lineQuery{l: l})
		var want SearchStats
		var wantIDs, gotIDs []int64
		var wantD, gotD []float64
		// The scalar reference of the descent: Cone.LowerSq for the
		// batched kernel.
		nearest := func(front []int, skip int) []int {
			var next []int
			bestD := math.Inf(1)
			for _, ni := range front {
				if ni == skip {
					continue
				}
				want.NodeAccesses += f.nodePages(ni)
				s, e := f.nodeEntries(ni)
				pl := f.nodePlanes(ni)
				for k := 0; k < e-s; k++ {
					for j := range lo {
						lo[j], hi[j] = float64(pl.LRow(1 + j)[k]), float64(pl.HRow(1 + j)[k])
					}
					d := aq.cone.Bound(aq.cone.LowerSq(float64(pl.LRow(0)[k]), lo, hi))
					switch {
					case d < bestD || len(next) == 0:
						next, bestD = []int{f.child(ni, s+k)}, d
					case d == bestD && len(next) < seedFrontier:
						next = append(next, f.child(ni, s+k))
					}
				}
			}
			return next
		}
		leaf := func(ni int) {
			want.NodeAccesses += f.nodePages(ni)
			ls, le := f.nodeEntries(ni)
			pl := f.nodePlanes(ni)
			for k := 0; k < le-ls; k++ {
				for j := range p {
					p[j] = float64(pl.LRow(j)[k])
				}
				wantIDs = append(wantIDs, int64(f.refs[ls+k]))
				wantD = append(wantD, vec.PLDFast(p, aq.l)*f.q.scale)
				want.LeafEntriesChecked++
			}
		}
		front := []int{0}
		for f.nodeLevel(front[0]) > 1 {
			front = nearest(front, -1)
		}
		first := front[0]
		want.NodeAccesses += f.nodePages(first)
		s, e := f.nodeEntries(first)
		for ei := s; ei < e; ei++ {
			leaf(f.child(first, ei))
		}
		for _, ni := range nearest(front, first) {
			leaf(ni)
		}
		var stats SearchStats
		f.Seeds(l, &stats, func(id int64, d float64) { gotIDs, gotD = append(gotIDs, id), append(gotD, d) })
		if !reflect.DeepEqual(gotIDs, wantIDs) || stats != want {
			t.Fatalf("query %d: seeded %v %+v, the descent to %v reports %v %+v", q, gotIDs, stats, front, wantIDs, want)
		}
		for i := range gotD {
			if math.Float64bits(gotD[i]) != math.Float64bits(wantD[i]) {
				t.Fatalf("query %d: seed %d at %v, the leaf kernel's distance is %v", q, gotIDs[i], gotD[i], wantD[i])
			}
		}
		if q%3 == 1 {
			nearestD := math.Inf(1)
			for _, d := range gotD {
				nearestD = min(nearestD, d)
			}
			if exact := vec.PLDFast(l.D, l); nearestD > exact {
				t.Fatalf("query %d: the nearest seed is at %v, the stored point on the line at %v", q, nearestD, exact)
			}
		}
		// The root, at most seedFrontier nodes a level below it, and the
		// leaves of the first level-1 node and the tied ones.
		if most := 1 + seedFrontier*(f.height-2) + cfg.MaxEntries + seedFrontier; stats.NodeAccesses > most {
			t.Fatalf("query %d: seeding read %d nodes, more than the frontier's %d", q, stats.NodeAccesses, most)
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
// boxCorruptions and children out of pre-order, and FlatFromArena to
// refuse a header that names an unknown directory kind.
func TestValidateDirectionBox(t *testing.T) {
	f, _ := boxTree(t, rand.New(rand.NewSource(79)), Config{Dim: 3, MaxEntries: 5, MinEntries: 2}, 300)
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
	if _, err := FlatFromArena(withDirKind(f.AppendArena(nil), 3)); !errors.Is(err, binio.ErrVersion) || !strings.Contains(err.Error(), "unsupported directory kind 3") {
		t.Fatalf("header word 6 = 3: %v, want a version error naming the directory kind", err)
	}
}
