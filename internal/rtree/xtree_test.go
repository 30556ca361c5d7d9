package rtree_test

import (
	"math/rand"
	"testing"

	"scaleshift/internal/bench/rstar"
	"scaleshift/internal/geom"
	"scaleshift/internal/rtree"
	"scaleshift/internal/vec"
)

// xtreeConfig enables supernodes with a tight overlap threshold so
// clustered high-dimensional data actually produces them.
func xtreeConfig(dim int) rtree.Config {
	cfg := rtree.DefaultConfig(dim)
	cfg.SupernodeMaxOverlap = 0.02
	return cfg
}

// clusteredVec draws points in tight clusters along a shared diagonal,
// the regime where directory MBRs overlap heavily.
func clusteredVec(r *rand.Rand, dim int) vec.Vector {
	center := float64(r.Intn(4))
	v := make(vec.Vector, dim)
	for i := range v {
		v[i] = center + r.NormFloat64()*0.05
	}
	return v
}

func TestXtreeConfigValidation(t *testing.T) {
	cfg := rtree.DefaultConfig(4)
	cfg.SupernodeMaxOverlap = -0.1
	if _, err := rstar.New(cfg); err == nil {
		t.Error("negative threshold accepted")
	}
	cfg.SupernodeMaxOverlap = 1
	if _, err := rstar.New(cfg); err == nil {
		t.Error("threshold 1 accepted")
	}
	cfg.SupernodeMaxOverlap = 0.2
	if _, err := rstar.New(cfg); err != nil {
		t.Errorf("valid threshold rejected: %v", err)
	}
}

func TestXtreeBuildsValidTreeWithSupernodes(t *testing.T) {
	r := rand.New(rand.NewSource(50))
	tr, err := rstar.New(xtreeConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6000; i++ {
		tr.Insert(clusteredVec(r, 8), int64(i))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !hasSupernode(tr) {
		t.Log("no supernodes formed on clustered data; threshold may be loose (informational)")
	}
	// Page count exceeds node count when supernodes exist.
	if tr.NodeCount() < tr.Height() {
		t.Errorf("implausible page count %d", tr.NodeCount())
	}
}

// hasSupernode reports whether some node of tr spans several pages: a
// level of the frozen tree then counts more pages than nodes.
func hasSupernode(tr *rstar.Tree) bool {
	for _, ls := range tr.Freeze().Stats() {
		if ls.Pages > ls.Nodes {
			return true
		}
	}
	return false
}

func TestXtreeSearchMatchesRStarTree(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	x, err := rstar.New(xtreeConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := rstar.New(rtree.DefaultConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]vec.Vector, 4000)
	for i := range pts {
		pts[i] = clusteredVec(r, 6)
		x.Insert(pts[i], int64(i))
		plain.Insert(pts[i], int64(i))
	}
	if err := x.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	fx, fp := x.Freeze(), plain.Freeze()
	for q := 0; q < 25; q++ {
		rect := geom.RectFromPoint(clusteredVec(r, 6))
		rect.Extend(geom.RectFromPoint(clusteredVec(r, 6)))
		if !sameIDSet(idSet(fx.RangeSearch(rect, nil)), idSet(fp.RangeSearch(rect, nil))) {
			t.Fatal("range results differ between X-tree and R*-tree")
		}
		l := vec.Line{P: make(vec.Vector, 6), D: clusteredVec(r, 6)}
		if !sameIDSet(idSet(fx.LineSearch(l, 0.2, geom.EnteringExiting, nil)),
			idSet(fp.LineSearch(l, 0.2, geom.EnteringExiting, nil))) {
			t.Fatal("line results differ between X-tree and R*-tree")
		}
	}
}

func TestXtreeSupernodePageAccounting(t *testing.T) {
	// Force a supernode deterministically: internal entries all
	// overlapping so no split passes the threshold.
	cfg := rtree.Config{Dim: 2, MaxEntries: 4, MinEntries: 2, Split: rtree.SplitRStar, SupernodeMaxOverlap: 0.01}
	tr, err := rstar.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Near-identical points: every directory rectangle is a tiny box
	// around (1, 1), so any split of an internal node leaves halves
	// overlapping by ~50 % of their area — far above the threshold —
	// and overflow must produce supernodes rather than splits.
	r := rand.New(rand.NewSource(53))
	for i := 0; i < 200; i++ {
		p := vec.Vector{1 + r.NormFloat64()*1e-6, 1 + r.NormFloat64()*1e-6}
		tr.Insert(p, int64(i))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !hasSupernode(tr) {
		t.Fatal("duplicate-point workload produced no supernode")
	}
	// All duplicates retrievable, and a line query through the point
	// charges the supernode's full page span.
	var stats rtree.SearchStats
	got := tr.Freeze().LineSearch(vec.Line{P: vec.Vector{0, 0}, D: vec.Vector{1, 1}}, 1e-3, geom.EnteringExiting, &stats)
	if len(got) != 200 {
		t.Errorf("retrieved %d of 200 near-duplicates", len(got))
	}
	if stats.NodeAccesses < tr.Height()+1 {
		t.Errorf("NodeAccesses %d too small for supernode traversal", stats.NodeAccesses)
	}
}
