package rstar

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"scaleshift/internal/geom"
	"scaleshift/internal/rtree"
	"scaleshift/internal/vec"
)

// allSplits enumerates the split algorithms under test.
var allSplits = []SplitAlgorithm{SplitRStar, SplitQuadratic, SplitLinear}

// newTestTree builds a tree with small fanout so that modest item
// counts produce several levels.
func newTestTree(t testing.TB, dim int, split SplitAlgorithm) *Tree {
	t.Helper()
	tr, err := New(Config{Config: rtree.Config{Dim: dim, MaxEntries: 8, MinEntries: 3}, ReinsertCount: 2, Split: split})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// everything is a rectangle holding every point randVec draws.
func everything(dim int) geom.Rect {
	r := geom.Rect{L: make(vec.Vector, dim), H: make(vec.Vector, dim)}
	for j := range r.L {
		r.L[j], r.H[j] = -10, 10
	}
	return r
}

func TestConfigValidation(t *testing.T) {
	shape := func(dim, M, m int) Config {
		return Config{Config: rtree.Config{Dim: dim, MaxEntries: M, MinEntries: m}}
	}
	tests := []struct {
		name   string
		cfg    Config
		wantOK bool
	}{
		{"default", DefaultConfig(6), true},
		{"zero dim", shape(0, 8, 3), false},
		{"M too small", shape(2, 1, 1), false},
		{"m zero", shape(2, 8, 0), false},
		{"m too large", shape(2, 8, 5), false},
		{"m at half", shape(2, 8, 4), true},
		{"p negative", Config{Config: rtree.Config{Dim: 2, MaxEntries: 8, MinEntries: 3}, ReinsertCount: -1}, false},
		{"p too large", Config{Config: rtree.Config{Dim: 2, MaxEntries: 8, MinEntries: 3}, ReinsertCount: 6}, false},
		{"p zero ok", shape(2, 8, 3), true},
		{"bad split", Config{Config: rtree.Config{Dim: 2, MaxEntries: 8, MinEntries: 3}, Split: SplitAlgorithm(9)}, false},
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
	if cfg.MaxEntries != 20 || cfg.MinEntries != 8 || cfg.ReinsertCount != 6 || cfg.Config != rtree.DefaultConfig(6) {
		t.Errorf("paper settings M=20 m=8 p=6, got %+v", cfg)
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
			if got := len(idSet(tr.Freeze().RangeSearch(everything(3), nil))); got != 500 {
				t.Errorf("a range search over everything returned %d items", got)
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
	if got := tr.Freeze().RangeSearch(geom.RectFromPoint(vec.Vector{1, 2}), nil); len(got) != 1 || got[0] != 7 {
		t.Errorf("tree shares caller's slice: the point at (1, 2) is %v", got)
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
			s := tr.Freeze()
			for q := 0; q < 50; q++ {
				rect := randRect(r, 3)
				got := idSet(s.RangeSearch(rect, nil))
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
				s := tr.Freeze()
				for q := 0; q < 30; q++ {
					l := vec.Line{P: randVec(r, 3), D: randVec(r, 3)}
					for _, eps := range []float64{0, 0.5, 2, 5} {
						var stats rtree.SearchStats
						got := idSet(s.LineSearchIDs(l, eps, strategy, &stats, nil))
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
	got := idSet(tr.Freeze().LineSearchIDs(l, eps, geom.EnteringExiting, nil, nil))
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
}

func TestNoReinsertConfig(t *testing.T) {
	// p = 0 (classic R-tree behaviour) must still produce a valid tree.
	cfg := Config{Config: rtree.Config{Dim: 2, MaxEntries: 8, MinEntries: 3}, ReinsertCount: 0, Split: SplitQuadratic}
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
	s := tr.Freeze()
	var total rtree.SearchStats
	for q := 0; q < 5; q++ {
		var st rtree.SearchStats
		l := vec.Line{P: randVec(r, 3), D: randVec(r, 3)}
		s.LineSearchIDs(l, 1, geom.BoundingSpheres, &st, nil)
		if st.NodeAccesses == 0 {
			t.Error("no node accesses recorded")
		}
		total.Add(st)
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
	var s rtree.SearchStats
	l := vec.Line{P: randVec(r, 4), D: randVec(r, 4)}
	tr.Freeze().LineSearchIDs(l, 0.1, geom.EnteringExiting, &s, nil)
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
	s := tr.Freeze()
	var ids []int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids = s.LineSearchIDs(l, 0.5, geom.EnteringExiting, nil, ids[:0])
	}
}

func TestStats(t *testing.T) {
	tr := newTestTree(t, 3, SplitRStar)
	r := rand.New(rand.NewSource(90))
	for i := 0; i < 600; i++ {
		tr.Insert(randVec(r, 3), int64(i))
	}
	s := tr.Freeze()
	stats := s.Stats()
	if len(stats) != tr.Height() {
		t.Fatalf("%d levels reported, height %d", len(stats), tr.Height())
	}
	if stats[0].Level != 0 {
		t.Errorf("levels not leaves-first: %+v", stats[0])
	}
	totalEntries, totalPages, totalBytes := 0, 0, 0
	for _, ls := range stats {
		totalPages += ls.Pages
		totalBytes += ls.Bytes
		if ls.Level == 0 {
			totalEntries = ls.Entries
		}
		if ls.AvgOccupancy <= 0 || ls.AvgOccupancy > 1 {
			t.Errorf("level %d occupancy %v", ls.Level, ls.AvgOccupancy)
		}
		if ls.AvgElongation < 1 {
			t.Errorf("level %d elongation %v < 1", ls.Level, ls.AvgElongation)
		}
		// The outer radius is at least the inner one.
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
	// The levels hold everything but the node array's sentinel.
	if totalBytes+32 != s.Bytes() {
		t.Errorf("levels hold %d bytes, the slab %d", totalBytes, s.Bytes())
	}
	var buf bytes.Buffer
	if err := s.WriteStats(&buf); err != nil {
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
