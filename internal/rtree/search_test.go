package rtree

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"scaleshift/internal/vec"
)

// Searches of bulk-loaded arenas held to brute force over the points as
// the arena stores them (storedItems), and the arena's configuration.

// newBulkTree bulk loads n random points into a small-fanout tree, so
// that modest counts produce several levels, and returns it with its
// stored points.
func newBulkTree(t testing.TB, r *rand.Rand, dim, n int) (*FlatTree, []Item) {
	t.Helper()
	ids, cols := columnsOf(bulkItems(r, n, dim), dim)
	f, err := BulkLoadFlat(Config{Dim: dim, MaxEntries: 8, MinEntries: 3}, ids, cols, 1)
	if err != nil {
		t.Fatal(err)
	}
	return f, storedItems(f)
}

// lineIDs runs LineSearchIDs with a live context.
func lineIDs(t testing.TB, f *FlatTree, l vec.Line, eps float64, stats *SearchStats) map[int64]bool {
	t.Helper()
	ids, err := f.LineSearchIDs(context.Background(), l, eps, stats, nil)
	if err != nil {
		t.Fatal(err)
	}
	return idsSet(ids)
}

func idsSet(ids []int64) map[int64]bool {
	m := make(map[int64]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return m
}

func sameIDSet(a, b map[int64]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name   string
		cfg    Config
		wantOK bool
	}{
		{"default", DefaultConfig(6), true},
		{"zero dim", Config{Dim: 0, MaxEntries: 8, MinEntries: 3}, false},
		{"M too small", Config{Dim: 2, MaxEntries: 1, MinEntries: 1}, false},
		{"m zero", Config{Dim: 2, MaxEntries: 8, MinEntries: 0}, false},
		{"m too large", Config{Dim: 2, MaxEntries: 8, MinEntries: 5}, false},
		{"m at half", Config{Dim: 2, MaxEntries: 8, MinEntries: 4}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := BulkLoadFlat(tc.cfg, nil, nil, 1)
			if (err == nil) != tc.wantOK || (tc.cfg.Validate() == nil) != tc.wantOK {
				t.Errorf("BulkLoadFlat(%+v): err=%v wantOK=%v", tc.cfg, err, tc.wantOK)
			}
		})
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig(6)
	if cfg.MaxEntries != 20 || cfg.MinEntries != 8 || cfg.Dim != 6 {
		t.Errorf("paper settings M=20 m=8, got %+v", cfg)
	}
	if cfg.MinEntries*100 != 40*cfg.MaxEntries {
		t.Error("m is not 40% of M")
	}
}

func TestLineSearchMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	f, items := newBulkTree(t, r, 3, 400)
	for q := 0; q < 30; q++ {
		l := vec.Line{P: randVec(r, 3), D: randVec(r, 3)}
		if q%2 == 0 {
			l.P = make(vec.Vector, 3) // through the origin, the served case
		}
		for _, eps := range []float64{0, 0.5, 2, 5} {
			var stats SearchStats
			got := lineIDs(t, f, l, eps, &stats)
			want := map[int64]bool{}
			for _, it := range items {
				if vec.PLDFast(it.Point, l) <= eps {
					want[it.ID] = true
				}
			}
			if !sameIDSet(got, want) {
				t.Fatalf("query %d eps=%v: got %d, want %d", q, eps, len(got), len(want))
			}
			if stats.NodeAccesses < 1 || stats.NodeAccesses > f.NodeCount() {
				t.Fatalf("implausible NodeAccesses %d (tree has %d nodes)", stats.NodeAccesses, f.NodeCount())
			}
		}
	}
}

func TestLineSearchDegenerateLine(t *testing.T) {
	// A zero-direction line degenerates to a point query: results are
	// the points within eps of l.P.
	r := rand.New(rand.NewSource(4))
	f, items := newBulkTree(t, r, 2, 200)
	for _, p := range []vec.Vector{{0, 0}, {3, -2}} {
		l := vec.Line{P: p, D: vec.Vector{0, 0}}
		eps := 3.0
		got := lineIDs(t, f, l, eps, nil)
		want := map[int64]bool{}
		for _, it := range items {
			if vec.Dist(it.Point, p) <= eps {
				want[it.ID] = true
			}
		}
		if len(want) == 0 || !sameIDSet(got, want) {
			t.Fatalf("degenerate line at %v: got %d, want %d", p, len(got), len(want))
		}
	}
}

func TestSegmentSearchMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(95))
	f, items := newBulkTree(t, r, 3, 400)
	ctx := context.Background()
	for q := 0; q < 25; q++ {
		l := vec.Line{P: randVec(r, 3), D: randVec(r, 3)}
		tMin := r.Float64()*4 - 2
		tMax := tMin + r.Float64()*3
		for _, eps := range []float64{0.5, 2} {
			ids, err := f.SegmentSearchIDs(ctx, l, tMin, tMax, eps, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := map[int64]bool{}
			for _, it := range items {
				if vec.PSegDFast(it.Point, l, tMin, tMax) <= eps {
					want[it.ID] = true
				}
			}
			if got := idsSet(ids); !sameIDSet(got, want) {
				t.Fatalf("eps=%v: got %d, want %d", eps, len(got), len(want))
			}
		}
	}
	// Empty parameter range returns nothing.
	if got, _ := f.SegmentSearchIDs(ctx, vec.Line{P: randVec(r, 3), D: randVec(r, 3)}, 2, 1, 10, nil, nil); len(got) != 0 {
		t.Errorf("inverted range returned %d items", len(got))
	}
	// A huge range reproduces the full line search.
	l := vec.Line{P: randVec(r, 3), D: randVec(r, 3)}
	seg, _ := f.SegmentSearchIDs(ctx, l, -1e9, 1e9, 1, nil, nil)
	if !sameIDSet(lineIDs(t, f, l, 1, nil), idsSet(seg)) {
		t.Error("wide segment differs from full line search")
	}
}

// TestNearestToLineMatchesBruteForce holds the k-NN seeds of a bulk-built
// tree to its stored items: every seed is a distinct stored item,
// reported at the leaf kernel's distance to the line bit for bit (the
// arena's units differ from the caller's by a power of two), and the descent
// reads at least a root-to-leaf path.
func TestNearestToLineMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	f, items := newBulkTree(t, r, 3, 300)
	stored := map[int64]vec.Vector{}
	for _, it := range items {
		stored[it.ID] = it.Point
	}
	for q := 0; q < 20; q++ {
		l := vec.Line{P: randVec(r, 3), D: randVec(r, 3)}
		seen := map[int64]bool{}
		var stats SearchStats
		f.Seeds(l, &stats, func(id int64, d float64) {
			p, ok := stored[id]
			if !ok || seen[id] {
				t.Fatalf("query %d: seed %d (stored %v, repeated %v)", q, id, ok, seen[id])
			}
			seen[id] = true
			if want := vec.PLDFast(p, l); math.Float64bits(d) != math.Float64bits(want) {
				t.Fatalf("query %d: seed %d at %v, the leaf kernel's distance is %v", q, id, d, want)
			}
		})
		if len(seen) == 0 || stats.LeafEntriesChecked != len(seen) || stats.NodeAccesses < f.Height() {
			t.Fatalf("query %d: %d seeds, stats %+v", q, len(seen), stats)
		}
	}
}

// TestNearestToLineEdgeCases: an empty tree has no seeds, and a
// one-item tree — its root a leaf — seeds that item.
func TestNearestToLineEdgeCases(t *testing.T) {
	cfg := Config{Dim: 2, MaxEntries: 8, MinEntries: 3}
	l := vec.Line{P: vec.Vector{0, 0}, D: vec.Vector{1, 0}}
	var ids []int64
	var dists []float64
	seed := func(id int64, d float64) { ids, dists = append(ids, id), append(dists, d) }
	empty, err := BulkLoadFlat(cfg, nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	empty.Seeds(l, nil, seed)
	if len(ids) != 0 {
		t.Errorf("empty tree seeded %v", ids)
	}
	one, err := BulkLoadFlat(cfg, []int64{1}, []float64{1, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var stats SearchStats
	one.Seeds(l, &stats, seed)
	if len(ids) != 1 || ids[0] != 1 || dists[0] != 1 || stats.NodeAccesses != 1 || stats.LeafEntriesChecked != 1 {
		t.Errorf("one-item tree seeded %v at %v, stats %+v", ids, dists, stats)
	}
}

func TestDuplicatePoints(t *testing.T) {
	const n = 60
	ids, cols := make([]int64, n), make([]float64, 2*n)
	for i := range ids {
		ids[i], cols[i], cols[n+i] = int64(i), 1, 1
	}
	f, err := BulkLoadFlat(Config{Dim: 2, MaxEntries: 8, MinEntries: 3}, ids, cols, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	got := lineIDs(t, f, vec.Line{P: vec.Vector{0, 0}, D: vec.Vector{1, 1}}, 0, nil)
	if len(got) != n {
		t.Errorf("retrieved %d of %d duplicates", len(got), n)
	}
}

func TestSearchStatsAccumulate(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	f, _ := newBulkTree(t, r, 3, 300)
	var total, sum SearchStats
	for q := 0; q < 5; q++ {
		var s SearchStats
		lineIDs(t, f, vec.Line{P: make(vec.Vector, 3), D: randVec(r, 3)}, 1, &s)
		if s.NodeAccesses == 0 || s.Penetration.SlabTests == 0 {
			t.Errorf("query %d recorded %+v", q, s)
		}
		total.Add(s)
		sum.NodeAccesses += s.NodeAccesses
		sum.LeafEntriesChecked += s.LeafEntriesChecked
		sum.SubtreesAccepted += s.SubtreesAccepted
		sum.LeafEntriesAccepted += s.LeafEntriesAccepted
		sum.Penetration.Add(s.Penetration)
	}
	if total != sum {
		t.Errorf("accumulated %+v, field by field %+v", total, sum)
	}
}

func TestLineSearchStatsVsSeqScanShape(t *testing.T) {
	// With a selective query the tree should visit far fewer leaf
	// entries than the database size — the heart of the paper's claim.
	r := rand.New(rand.NewSource(12))
	const nPts = 5000
	ids, cols := columnsOf(bulkItems(r, nPts, 4), 4)
	f, err := BulkLoadFlat(DefaultConfig(4), ids, cols, 1)
	if err != nil {
		t.Fatal(err)
	}
	var s SearchStats
	lineIDs(t, f, vec.Line{P: make(vec.Vector, 4), D: randVec(r, 4)}, 0.1, &s)
	if s.LeafEntriesChecked+s.LeafEntriesAccepted >= nPts/2 {
		t.Errorf("tree checked %d of %d entries; pruning ineffective", s.LeafEntriesChecked+s.LeafEntriesAccepted, nPts)
	}
}

// TestQuickLineSearchSupersetOfTightened checks monotonicity in eps:
// results at a smaller epsilon are a subset of results at a larger one.
func TestQuickLineSearchSupersetOfTightened(t *testing.T) {
	f := func(xs, ys []float64, rawEps float64) bool {
		n := min(len(xs), len(ys))
		if n == 0 || n > 200 || rawEps != rawEps {
			return true
		}
		eps := math.Abs(rawEps)
		if eps > 1e6 {
			return true
		}
		ids, cols := make([]int64, n), make([]float64, 2*n)
		for i := 0; i < n; i++ {
			x, y := xs[i], ys[i]
			if x != x || y != y || math.Abs(x) > 1e6 || math.Abs(y) > 1e6 {
				return true
			}
			ids[i], cols[i], cols[n+i] = int64(i), x, y
		}
		tree, err := BulkLoadFlat(Config{Dim: 2, MaxEntries: 6, MinEntries: 2}, ids, cols, 1)
		if err != nil {
			return false
		}
		l := vec.Line{P: vec.Vector{0, 0}, D: vec.Vector{1, 1}}
		small, large := lineIDs(t, tree, l, eps/2, nil), lineIDs(t, tree, l, eps, nil)
		for id := range small {
			if !large[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkLineSearchDim6(b *testing.B) {
	r := rand.New(rand.NewSource(14))
	ids, cols := columnsOf(bulkItems(r, 20000, 6), 6)
	f, err := BulkLoadFlat(DefaultConfig(6), ids, cols, 1)
	if err != nil {
		b.Fatal(err)
	}
	l := vec.Line{P: make(vec.Vector, 6), D: randVec(r, 6)}
	ctx := context.Background()
	var buf []int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = f.LineSearchIDs(ctx, l, 0.5, nil, buf[:0])
	}
	b.ReportMetric(float64(len(buf)), "hits")
}
