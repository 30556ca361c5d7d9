package rtree_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"scaleshift/internal/bench/rstar"
	"scaleshift/internal/geom"
	"scaleshift/internal/rtree"
	"scaleshift/internal/vec"
)

// The tests of this file, xtree_test.go and quick_test.go grow their
// fixtures by insertion.  The tree that does lives in internal/bench/rstar,
// which imports this package — so they are an external test package, and
// what they assert is the seam between the two: whatever rstar grows,
// rtree freezes (FlatFromNodes) and searches correctly.

var (
	randVec   = rtree.RandVec
	idSet     = rtree.IDSet
	randItems = rtree.BulkItems
)

func randRect(r *rand.Rand, n int) geom.Rect {
	rect := geom.RectFromPoint(randVec(r, n))
	rect.Extend(geom.RectFromPoint(randVec(r, n)))
	return rect
}

// allSplits enumerates the split algorithms under test.
var allSplits = []rtree.SplitAlgorithm{rtree.SplitRStar, rtree.SplitQuadratic, rtree.SplitLinear}

// newTestTree builds a tree with small fanout so that modest item
// counts produce several levels.
func newTestTree(t testing.TB, dim int, split rtree.SplitAlgorithm) *rstar.Tree {
	t.Helper()
	cfg := rtree.Config{Dim: dim, MaxEntries: 8, MinEntries: 3, ReinsertCount: 2, Split: split}
	tr, err := rstar.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name   string
		cfg    rtree.Config
		wantOK bool
	}{
		{"default", rtree.DefaultConfig(6), true},
		{"zero dim", rtree.Config{Dim: 0, MaxEntries: 8, MinEntries: 3}, false},
		{"M too small", rtree.Config{Dim: 2, MaxEntries: 1, MinEntries: 1}, false},
		{"m zero", rtree.Config{Dim: 2, MaxEntries: 8, MinEntries: 0}, false},
		{"m too large", rtree.Config{Dim: 2, MaxEntries: 8, MinEntries: 5}, false},
		{"m at half", rtree.Config{Dim: 2, MaxEntries: 8, MinEntries: 4}, true},
		{"p negative", rtree.Config{Dim: 2, MaxEntries: 8, MinEntries: 3, ReinsertCount: -1}, false},
		{"p too large", rtree.Config{Dim: 2, MaxEntries: 8, MinEntries: 3, ReinsertCount: 6}, false},
		{"p zero ok", rtree.Config{Dim: 2, MaxEntries: 8, MinEntries: 3, ReinsertCount: 0}, true},
		{"bad split", rtree.Config{Dim: 2, MaxEntries: 8, MinEntries: 3, Split: rtree.SplitAlgorithm(9)}, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := rstar.New(tc.cfg)
			if (err == nil) != tc.wantOK {
				t.Errorf("rstar.New(%+v): err=%v wantOK=%v", tc.cfg, err, tc.wantOK)
			}
		})
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := rtree.DefaultConfig(6)
	if cfg.MaxEntries != 20 || cfg.MinEntries != 8 || cfg.ReinsertCount != 6 {
		t.Errorf("paper settings M=20 m=8 p=6, got %+v", cfg)
	}
	if cfg.MinEntries*100 != 40*cfg.MaxEntries {
		t.Error("m is not 40% of M")
	}
	if cfg.ReinsertCount*100 != 30*cfg.MaxEntries {
		t.Error("p is not 30% of M")
	}
}

func TestInsertGrowsAndStaysValid(t *testing.T) {
	for _, split := range allSplits {
		t.Run(split.String(), func(t *testing.T) {
			tr := newTestTree(t, 3, split)
			r := rand.New(rand.NewSource(1))
			for i := 0; i < 500; i++ {
				tr.Insert(randVec(r, 3), int64(i))
				if i%50 == 0 {
					if err := tr.CheckInvariants(); err != nil {
						t.Fatalf("after %d inserts: %v", i+1, err)
					}
				}
			}
			if tr.Len() != 500 {
				t.Errorf("Len = %d", tr.Len())
			}
			if tr.Height() < 2 {
				t.Errorf("tree did not grow: height %d", tr.Height())
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if got := len(tr.Freeze().All()); got != 500 {
				t.Errorf("All() returned %d items", got)
			}
		})
	}
}

func TestInsertPanicsOnWrongDim(t *testing.T) {
	tr := newTestTree(t, 3, rtree.SplitRStar)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.Insert(vec.Vector{1, 2}, 0)
}

func TestInsertCopiesPoint(t *testing.T) {
	tr := newTestTree(t, 2, rtree.SplitRStar)
	p := vec.Vector{1, 2}
	tr.Insert(p, 7)
	p[0] = 99
	items := tr.Freeze().All()
	if items[0].Point[0] != 1 {
		t.Error("tree shares caller's slice")
	}
}

func TestRangeSearchMatchesBruteForce(t *testing.T) {
	for _, split := range allSplits {
		t.Run(split.String(), func(t *testing.T) {
			tr := newTestTree(t, 3, split)
			r := rand.New(rand.NewSource(2))
			pts := make([]vec.Vector, 400)
			for i := range pts {
				pts[i] = randVec(r, 3)
				tr.Insert(pts[i], int64(i))
			}
			for q := 0; q < 50; q++ {
				rect := randRect(r, 3)
				got := idSet(tr.Freeze().RangeSearch(rect, nil))
				want := map[int64]bool{}
				for i, p := range pts {
					if rect.Contains(p) {
						want[int64(i)] = true
					}
				}
				if !sameIDSet(got, want) {
					t.Fatalf("range query %d: got %d ids, want %d", q, len(got), len(want))
				}
			}
		})
	}
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

func TestLineSearchMatchesBruteForce(t *testing.T) {
	for _, split := range allSplits {
		for _, strategy := range []geom.Strategy{geom.EnteringExiting, geom.BoundingSpheres} {
			t.Run(fmt.Sprintf("%v/%v", split, strategy), func(t *testing.T) {
				tr := newTestTree(t, 3, split)
				r := rand.New(rand.NewSource(3))
				pts := make([]vec.Vector, 400)
				for i := range pts {
					pts[i] = randVec(r, 3)
					tr.Insert(pts[i], int64(i))
				}
				for q := 0; q < 30; q++ {
					l := vec.Line{P: randVec(r, 3), D: randVec(r, 3)}
					for _, eps := range []float64{0, 0.5, 2, 5} {
						var stats rtree.SearchStats
						got := idSet(tr.Freeze().LineSearch(l, eps, strategy, &stats))
						want := map[int64]bool{}
						for i, p := range pts {
							if d, _ := vec.PLD(p, l); d <= eps {
								want[int64(i)] = true
							}
						}
						if !sameIDSet(got, want) {
							t.Fatalf("eps=%v: got %d, want %d", eps, len(got), len(want))
						}
						if stats.NodeAccesses < 1 || stats.NodeAccesses > tr.NodeCount() {
							t.Fatalf("implausible NodeAccesses %d (tree has %d nodes)",
								stats.NodeAccesses, tr.NodeCount())
						}
					}
				}
			})
		}
	}
}

func TestLineSearchDegenerateLine(t *testing.T) {
	// A zero-direction line degenerates to a point query: results are
	// the points within eps of l.P.
	tr := newTestTree(t, 2, rtree.SplitRStar)
	r := rand.New(rand.NewSource(4))
	pts := make([]vec.Vector, 200)
	for i := range pts {
		pts[i] = randVec(r, 2)
		tr.Insert(pts[i], int64(i))
	}
	l := vec.Line{P: vec.Vector{0, 0}, D: vec.Vector{0, 0}}
	eps := 3.0
	got := idSet(tr.Freeze().LineSearch(l, eps, geom.EnteringExiting, nil))
	want := map[int64]bool{}
	for i, p := range pts {
		if vec.Norm(p) <= eps {
			want[int64(i)] = true
		}
	}
	if !sameIDSet(got, want) {
		t.Fatalf("degenerate line search: got %d, want %d", len(got), len(want))
	}
}

func TestNearestToLineMatchesBruteForce(t *testing.T) {
	tr := newTestTree(t, 3, rtree.SplitRStar)
	r := rand.New(rand.NewSource(5))
	pts := make([]vec.Vector, 300)
	for i := range pts {
		pts[i] = randVec(r, 3)
		tr.Insert(pts[i], int64(i))
	}
	for q := 0; q < 20; q++ {
		l := vec.Line{P: randVec(r, 3), D: randVec(r, 3)}
		for _, k := range []int{1, 5, 17} {
			got := tr.Freeze().NearestToLine(l, k, nil)
			// Brute force: k smallest PLDs.
			type pd struct {
				id int64
				d  float64
			}
			all := make([]pd, len(pts))
			for i, p := range pts {
				d, _ := vec.PLD(p, l)
				all[i] = pd{int64(i), d}
			}
			sort.Slice(all, func(i, j int) bool { return all[i].d < all[j].d })
			if len(got) != k {
				t.Fatalf("k=%d: returned %d items", k, len(got))
			}
			for i := range got {
				// The arena ranks the float32-rounded points.
				if diff := got[i].Dist - all[i].d; diff > 1e-5 || diff < -1e-5 {
					t.Fatalf("k=%d rank %d: dist %v, want %v", k, i, got[i].Dist, all[i].d)
				}
			}
		}
	}
}

func TestNearestToLineEdgeCases(t *testing.T) {
	tr := newTestTree(t, 2, rtree.SplitRStar)
	l := vec.Line{P: vec.Vector{0, 0}, D: vec.Vector{1, 0}}
	if got := tr.Freeze().NearestToLine(l, 3, nil); got != nil {
		t.Errorf("empty tree returned %v", got)
	}
	tr.Insert(vec.Vector{1, 1}, 1)
	if got := tr.Freeze().NearestToLine(l, 0, nil); got != nil {
		t.Errorf("k=0 returned %v", got)
	}
	got := tr.Freeze().NearestToLine(l, 10, nil)
	if len(got) != 1 || got[0].Item.ID != 1 {
		t.Errorf("k larger than size: %v", got)
	}
}

func TestDuplicatePoints(t *testing.T) {
	tr := newTestTree(t, 2, rtree.SplitRStar)
	p := vec.Vector{1, 1}
	for i := 0; i < 60; i++ {
		tr.Insert(p, int64(i))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got := idSet(tr.Freeze().RangeSearch(geom.RectFromPoint(p), nil))
	if len(got) != 60 {
		t.Errorf("retrieved %d of 60 duplicates", len(got))
	}
}

func TestNoReinsertConfig(t *testing.T) {
	// p = 0 (classic R-tree behaviour) must still produce a valid tree.
	cfg := rtree.Config{Dim: 2, MaxEntries: 8, MinEntries: 3, ReinsertCount: 0, Split: rtree.SplitQuadratic}
	tr, err := rstar.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 400; i++ {
		tr.Insert(randVec(r, 2), int64(i))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPaperFanoutConfig(t *testing.T) {
	// The exact paper configuration at dimension 6.
	tr, err := rstar.New(rtree.DefaultConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(10))
	for i := 0; i < 3000; i++ {
		tr.Insert(randVec(r, 6), int64(i))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Height() < 3 {
		t.Errorf("height %d, expected >= 3 for 3000 items at M=20", tr.Height())
	}
}

func TestSearchStatsAccumulate(t *testing.T) {
	tr := newTestTree(t, 3, rtree.SplitRStar)
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		tr.Insert(randVec(r, 3), int64(i))
	}
	var total rtree.SearchStats
	for q := 0; q < 5; q++ {
		var s rtree.SearchStats
		l := vec.Line{P: randVec(r, 3), D: randVec(r, 3)}
		tr.Freeze().LineSearch(l, 1, geom.BoundingSpheres, &s)
		if s.NodeAccesses == 0 {
			t.Error("no node accesses recorded")
		}
		total.Add(s)
	}
	if total.NodeAccesses < 5 {
		t.Errorf("accumulated NodeAccesses = %d", total.NodeAccesses)
	}
	if total.Penetration.SphereTests == 0 {
		t.Error("bounding-spheres strategy recorded no sphere tests")
	}
}

func TestLineSearchStatsVsSeqScanShape(t *testing.T) {
	// With a selective query the tree should visit far fewer leaf
	// entries than the database size — the heart of the paper's claim.
	tr, err := rstar.New(rtree.DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(12))
	const nPts = 5000
	for i := 0; i < nPts; i++ {
		tr.Insert(randVec(r, 4), int64(i))
	}
	var s rtree.SearchStats
	l := vec.Line{P: randVec(r, 4), D: randVec(r, 4)}
	tr.Freeze().LineSearch(l, 0.1, geom.EnteringExiting, &s)
	if s.LeafEntriesChecked >= nPts/2 {
		t.Errorf("tree checked %d of %d entries; pruning ineffective",
			s.LeafEntriesChecked, nPts)
	}
}

func BenchmarkInsertDim6(b *testing.B) {
	tr, err := rstar.New(rtree.DefaultConfig(6))
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(13))
	pts := make([]vec.Vector, b.N)
	for i := range pts {
		pts[i] = randVec(r, 6)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(pts[i], int64(i))
	}
}

func BenchmarkLineSearchDim6(b *testing.B) {
	tr, err := rstar.New(rtree.DefaultConfig(6))
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(14))
	for i := 0; i < 20000; i++ {
		tr.Insert(randVec(r, 6), int64(i))
	}
	l := vec.Line{P: make(vec.Vector, 6), D: randVec(r, 6)}
	f := tr.Freeze()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.LineSearch(l, 0.5, geom.EnteringExiting, nil)
	}
}

func TestStats(t *testing.T) {
	tr := newTestTree(t, 3, rtree.SplitRStar)
	r := rand.New(rand.NewSource(90))
	for i := 0; i < 600; i++ {
		tr.Insert(randVec(r, 3), int64(i))
	}
	stats := tr.Freeze().Stats()
	if len(stats) != tr.Height() {
		t.Fatalf("%d levels reported, height %d", len(stats), tr.Height())
	}
	if stats[0].Level != 0 {
		t.Errorf("levels not leaves-first: %+v", stats[0])
	}
	totalEntries := 0
	totalPages := 0
	for _, ls := range stats {
		totalPages += ls.Pages
		if ls.Level == 0 {
			totalEntries = ls.Entries
		}
		if ls.AvgOccupancy <= 0 || ls.AvgOccupancy > 1 {
			t.Errorf("level %d occupancy %v", ls.Level, ls.AvgOccupancy)
		}
		if ls.AvgElongation < 1 {
			t.Errorf("level %d elongation %v < 1", ls.Level, ls.AvgElongation)
		}
		// Sphere gap is at least elongation-ish and at least sqrt(d)... at
		// minimum it must be >= 1.
		if ls.AvgSphereGap < 1 {
			t.Errorf("level %d sphere gap %v < 1", ls.Level, ls.AvgSphereGap)
		}
	}
	if totalEntries != 600 {
		t.Errorf("leaf entries %d", totalEntries)
	}
	if totalPages != tr.NodeCount() {
		t.Errorf("stats pages %d, tree pages %d", totalPages, tr.NodeCount())
	}
	var buf bytes.Buffer
	if err := tr.Freeze().WriteStats(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "sphere-gap") {
		t.Errorf("stats table malformed:\n%s", buf.String())
	}
}

func TestStatsDegenerate(t *testing.T) {
	// Identical points: MBRs are points, elongation and gap degrade to 1.
	tr := newTestTree(t, 2, rtree.SplitQuadratic)
	for i := 0; i < 30; i++ {
		tr.Insert(vec.Vector{1, 1}, int64(i))
	}
	for _, ls := range tr.Freeze().Stats() {
		if ls.Level == 0 && (ls.AvgElongation != 1 || ls.AvgSphereGap != 1) {
			t.Errorf("degenerate stats: %+v", ls)
		}
	}
}

func TestSegmentSearchMatchesBruteForce(t *testing.T) {
	for _, strategy := range []geom.Strategy{geom.EnteringExiting, geom.BoundingSpheres} {
		tr := newTestTree(t, 3, rtree.SplitRStar)
		r := rand.New(rand.NewSource(95))
		pts := make([]vec.Vector, 400)
		for i := range pts {
			pts[i] = randVec(r, 3)
			tr.Insert(pts[i], int64(i))
		}
		for q := 0; q < 25; q++ {
			l := vec.Line{P: randVec(r, 3), D: randVec(r, 3)}
			tMin := r.Float64()*4 - 2
			tMax := tMin + r.Float64()*3
			for _, eps := range []float64{0.5, 2} {
				got := idSet(tr.Freeze().SegmentSearch(l, tMin, tMax, eps, strategy, nil))
				want := map[int64]bool{}
				for i, p := range pts {
					if vec.PSegDFast(p, l, tMin, tMax) <= eps {
						want[int64(i)] = true
					}
				}
				if !sameIDSet(got, want) {
					t.Fatalf("strategy %v eps=%v: got %d, want %d", strategy, eps, len(got), len(want))
				}
			}
		}
		// Empty parameter range returns nothing.
		if got := tr.Freeze().SegmentSearch(vec.Line{P: randVec(r, 3), D: randVec(r, 3)}, 2, 1, 10, strategy, nil); len(got) != 0 {
			t.Errorf("inverted range returned %d items", len(got))
		}
		// A huge range reproduces the full line search.
		l := vec.Line{P: randVec(r, 3), D: randVec(r, 3)}
		full := idSet(tr.Freeze().LineSearch(l, 1, strategy, nil))
		seg := idSet(tr.Freeze().SegmentSearch(l, -1e9, 1e9, 1, strategy, nil))
		if !sameIDSet(full, seg) {
			t.Error("wide segment differs from full line search")
		}
	}
}

// flatConfigs is the structural matrix TestFlatEquivalencePoints sweeps:
// low/high dimension, tiny/default fanout, R* and Guttman splits, with
// and without X-tree supernodes.
func flatConfigs() []rtree.Config {
	return []rtree.Config{
		{Dim: 2, MaxEntries: 4, MinEntries: 2, Split: rtree.SplitRStar},
		{Dim: 2, MaxEntries: 6, MinEntries: 2, ReinsertCount: 2, Split: rtree.SplitRStar},
		{Dim: 3, MaxEntries: 5, MinEntries: 2, Split: rtree.SplitQuadratic},
		{Dim: 6, MaxEntries: 8, MinEntries: 3, ReinsertCount: 2, Split: rtree.SplitRStar},
		{Dim: 4, MaxEntries: 4, MinEntries: 2, Split: rtree.SplitRStar, SupernodeMaxOverlap: 0.2},
	}
}

// TestFlatEquivalencePoints freezes insert-built trees of every shape
// and holds every search of the arena to the scalar references over its
// nodes (rtree.CheckSearchEquivalence), and the arena to the tree's size
// and shape; rstar.Load is the same trip.
func TestFlatEquivalencePoints(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for ci, cfg := range flatConfigs() {
		for _, n := range []int{0, 1, 7, 300} {
			tr, err := rstar.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			items := randItems(rng, n, cfg.Dim)
			for _, it := range items {
				tr.Insert(it.Point, it.ID)
			}
			f := tr.Freeze()
			if err := f.Validate(); err != nil {
				t.Fatalf("cfg %d n %d: frozen tree invalid: %v", ci, n, err)
			}
			if f.Directory() != rtree.DirectoryMBR || tr.Len() != f.Len() || tr.Height() != f.Height() || tr.NodeCount() != f.NodeCount() {
				t.Fatalf("cfg %d n %d: a %s directory, len %d/%d height %d/%d nodes %d/%d",
					ci, n, f.Directory(), tr.Len(), f.Len(), tr.Height(), f.Height(), tr.NodeCount(), f.NodeCount())
			}
			rtree.CheckSearchEquivalence(t, f, rng)
			ids, cols := rtree.ColumnsOf(items, cfg.Dim)
			loaded, err := rstar.Load(cfg, ids, cols)
			if err != nil || !bytes.Equal(loaded.AppendArena(nil), f.AppendArena(nil)) {
				t.Fatalf("cfg %d n %d: rstar.Load differs from Insert and Freeze (err %v)", ci, n, err)
			}
		}
	}
}

// TestBuilderExportsNoSearch keeps one tree on the query path: the
// builder is grown and frozen, and only the arena is searched.
func TestBuilderExportsNoSearch(t *testing.T) {
	query := regexp.MustCompile(`Search|Nearest`)
	typ := reflect.TypeOf(&rstar.Tree{})
	for i := 0; i < typ.NumMethod(); i++ {
		if name := typ.Method(i).Name; query.MatchString(name) {
			t.Errorf("*rstar.Tree exports %s; searches belong to rtree.FlatTree", name)
		}
	}
}

func TestBulkLoadSearchMatchesInsertBuilt(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	items := randItems(r, 2000, 3)
	cfg := rtree.Config{Dim: 3, MaxEntries: 8, MinEntries: 3, ReinsertCount: 2, Split: rtree.SplitRStar}
	ids, cols := rtree.ColumnsOf(items, cfg.Dim)
	fb, err := rtree.BulkLoadFlat(cfg, ids, cols, 1)
	if err != nil {
		t.Fatal(err)
	}
	fb = rtree.MBRTwin(t, fb) // a rectangle query needs MBRs
	inc, err := rstar.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		inc.Insert(it.Point, it.ID)
	}
	fi := inc.Freeze()
	for q := 0; q < 25; q++ {
		rect := randRect(r, 3)
		if !sameIDSet(idSet(fb.RangeSearch(rect, nil)), idSet(fi.RangeSearch(rect, nil))) {
			t.Fatal("range results differ between bulk and incremental trees")
		}
		l := vec.Line{P: randVec(r, 3), D: randVec(r, 3)}
		if !sameIDSet(idSet(fb.LineSearch(l, 1.5, geom.EnteringExiting, nil)),
			idSet(fi.LineSearch(l, 1.5, geom.EnteringExiting, nil))) {
			t.Fatal("line results differ between bulk and incremental trees")
		}
	}
}

func TestBulkLoadPackingQuality(t *testing.T) {
	// Packing guarantees a smaller tree, and — tiled and summarised for
	// lines through the origin — one that such a line reads fewer pages
	// of than an insert-built R*-tree's MBR directory, even on uniform
	// data, where R* insertion is at its best.
	r := rand.New(rand.NewSource(43))
	items := randItems(r, 5000, 4)
	cfg := rtree.DefaultConfig(4)
	ids, cols := rtree.ColumnsOf(items, 4)
	fb, err := rtree.BulkLoadFlat(cfg, ids, cols, 1)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := rstar.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		inc.Insert(it.Point, it.ID)
	}
	if fb.NodeCount() > inc.NodeCount() {
		t.Errorf("bulk tree has %d nodes, incremental %d", fb.NodeCount(), inc.NodeCount())
	}
	var bulkAcc, incAcc int
	fi := inc.Freeze()
	for q := 0; q < 40; q++ {
		l := vec.Line{P: make(vec.Vector, 4), D: randVec(r, 4)}
		var sb, si rtree.SearchStats
		got := fb.LineSearch(l, 0.3, geom.EnteringExiting, &sb)
		want := fi.LineSearch(l, 0.3, geom.EnteringExiting, &si)
		if !sameIDSet(idSet(got), idSet(want)) {
			t.Fatalf("query %d: the two trees return different points", q)
		}
		bulkAcc += sb.NodeAccesses
		incAcc += si.NodeAccesses
	}
	t.Logf("node accesses: bulk-loaded %d, insert-built %d", bulkAcc, incAcc)
	if bulkAcc > incAcc {
		t.Errorf("bulk tree accesses %d vs incremental %d; the tiling hurt", bulkAcc, incAcc)
	}
}
