package rtree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"scaleshift/internal/geom"
	"scaleshift/internal/vec"
)

func randVec(r *rand.Rand, n int) vec.Vector {
	v := make(vec.Vector, n)
	for i := range v {
		v[i] = r.Float64()*20 - 10
	}
	return v
}

func randRect(r *rand.Rand, n int) geom.Rect {
	rect := geom.RectFromPoint(randVec(r, n))
	rect.Extend(geom.RectFromPoint(randVec(r, n)))
	return rect
}

// allSplits enumerates the split algorithms under test.
var allSplits = []SplitAlgorithm{SplitRStar, SplitQuadratic, SplitLinear}

// newTestTree builds a tree with small fanout so that modest item
// counts produce several levels.
func newTestTree(t testing.TB, dim int, split SplitAlgorithm) *Tree {
	t.Helper()
	cfg := Config{Dim: dim, MaxEntries: 8, MinEntries: 3, ReinsertCount: 2, Split: split}
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
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
		{"p negative", Config{Dim: 2, MaxEntries: 8, MinEntries: 3, ReinsertCount: -1}, false},
		{"p too large", Config{Dim: 2, MaxEntries: 8, MinEntries: 3, ReinsertCount: 6}, false},
		{"p zero ok", Config{Dim: 2, MaxEntries: 8, MinEntries: 3, ReinsertCount: 0}, true},
		{"bad split", Config{Dim: 2, MaxEntries: 8, MinEntries: 3, Split: SplitAlgorithm(9)}, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.cfg)
			if (err == nil) != tc.wantOK {
				t.Errorf("New(%+v): err=%v wantOK=%v", tc.cfg, err, tc.wantOK)
			}
		})
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig(6)
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
	tr := newTestTree(t, 3, SplitRStar)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.Insert(vec.Vector{1, 2}, 0)
}

func TestInsertCopiesPoint(t *testing.T) {
	tr := newTestTree(t, 2, SplitRStar)
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

func idSet(items []Item) map[int64]bool {
	s := map[int64]bool{}
	for _, it := range items {
		s[it.ID] = true
	}
	return s
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
						var stats SearchStats
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
	tr := newTestTree(t, 2, SplitRStar)
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
	tr := newTestTree(t, 3, SplitRStar)
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
	tr := newTestTree(t, 2, SplitRStar)
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

func TestDelete(t *testing.T) {
	for _, split := range allSplits {
		t.Run(split.String(), func(t *testing.T) {
			tr := newTestTree(t, 3, split)
			r := rand.New(rand.NewSource(6))
			pts := make([]vec.Vector, 300)
			for i := range pts {
				pts[i] = randVec(r, 3)
				tr.Insert(pts[i], int64(i))
			}
			// Delete a random half.
			perm := r.Perm(300)
			deleted := map[int64]bool{}
			for _, i := range perm[:150] {
				if !tr.Delete(pts[i], int64(i)) {
					t.Fatalf("Delete(%d) failed", i)
				}
				deleted[int64(i)] = true
			}
			if tr.Len() != 150 {
				t.Errorf("Len = %d after deletions", tr.Len())
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			// Deleted items are gone; survivors remain findable.
			for i, p := range pts {
				// Around the float32 the arena keeps for p.
				rect := geom.RectFromPoint(p).Enlarge(1e-5)
				found := false
				for _, it := range tr.Freeze().RangeSearch(rect, nil) {
					if it.ID == int64(i) {
						found = true
					}
				}
				if found == deleted[int64(i)] {
					t.Fatalf("item %d: found=%v deleted=%v", i, found, deleted[int64(i)])
				}
			}
			// Double delete fails.
			if tr.Delete(pts[perm[0]], int64(perm[0])) {
				t.Error("second delete of same item succeeded")
			}
			// Absent item fails.
			if tr.Delete(vec.Vector{999, 999, 999}, 12345) {
				t.Error("delete of absent item succeeded")
			}
		})
	}
}

func TestDeleteAllEmptiesTree(t *testing.T) {
	tr := newTestTree(t, 2, SplitRStar)
	r := rand.New(rand.NewSource(7))
	pts := make([]vec.Vector, 120)
	for i := range pts {
		pts[i] = randVec(r, 2)
		tr.Insert(pts[i], int64(i))
	}
	for i, p := range pts {
		if !tr.Delete(p, int64(i)) {
			t.Fatalf("delete %d failed", i)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("after deleting %d: %v", i, err)
		}
	}
	if tr.Len() != 0 || tr.Height() != 1 || tr.NodeCount() != 1 {
		t.Errorf("not fully shrunk: len=%d height=%d nodes=%d",
			tr.Len(), tr.Height(), tr.NodeCount())
	}
}

func TestInterleavedInsertDeleteProperty(t *testing.T) {
	for _, split := range allSplits {
		t.Run(split.String(), func(t *testing.T) {
			tr := newTestTree(t, 2, split)
			r := rand.New(rand.NewSource(8))
			live := map[int64]vec.Vector{}
			next := int64(0)
			for step := 0; step < 2000; step++ {
				if len(live) == 0 || r.Float64() < 0.6 {
					p := randVec(r, 2)
					tr.Insert(p, next)
					live[next] = p
					next++
				} else {
					// Delete a random live id.
					var id int64
					for k := range live {
						id = k
						break
					}
					if !tr.Delete(live[id], id) {
						t.Fatalf("step %d: delete %d failed", step, id)
					}
					delete(live, id)
				}
				if step%200 == 0 {
					if err := tr.CheckInvariants(); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					if tr.Len() != len(live) {
						t.Fatalf("step %d: Len=%d live=%d", step, tr.Len(), len(live))
					}
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			// Final: all live items retrievable.
			got := idSet(tr.Freeze().All())
			if len(got) != len(live) {
				t.Fatalf("All=%d live=%d", len(got), len(live))
			}
			for id := range live {
				if !got[id] {
					t.Fatalf("live id %d missing", id)
				}
			}
		})
	}
}

func TestDuplicatePoints(t *testing.T) {
	tr := newTestTree(t, 2, SplitRStar)
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
	// Delete them all.
	for i := 0; i < 60; i++ {
		if !tr.Delete(p, int64(i)) {
			t.Fatalf("delete duplicate %d failed", i)
		}
	}
	if tr.Len() != 0 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestNoReinsertConfig(t *testing.T) {
	// p = 0 (classic R-tree behaviour) must still produce a valid tree.
	cfg := Config{Dim: 2, MaxEntries: 8, MinEntries: 3, ReinsertCount: 0, Split: SplitQuadratic}
	tr, err := New(cfg)
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
	tr, err := New(DefaultConfig(6))
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
	tr := newTestTree(t, 3, SplitRStar)
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		tr.Insert(randVec(r, 3), int64(i))
	}
	var total SearchStats
	for q := 0; q < 5; q++ {
		var s SearchStats
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
	tr, err := New(DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(12))
	const nPts = 5000
	for i := 0; i < nPts; i++ {
		tr.Insert(randVec(r, 4), int64(i))
	}
	var s SearchStats
	l := vec.Line{P: randVec(r, 4), D: randVec(r, 4)}
	tr.Freeze().LineSearch(l, 0.1, geom.EnteringExiting, &s)
	if s.LeafEntriesChecked >= nPts/2 {
		t.Errorf("tree checked %d of %d entries; pruning ineffective",
			s.LeafEntriesChecked, nPts)
	}
}

func BenchmarkInsertDim6(b *testing.B) {
	tr, err := New(DefaultConfig(6))
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
	tr, err := New(DefaultConfig(6))
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
	tr := newTestTree(t, 3, SplitRStar)
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
	tr := newTestTree(t, 2, SplitQuadratic)
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
		tr := newTestTree(t, 3, SplitRStar)
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
