package rstar

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"scaleshift/internal/geom"
	"scaleshift/internal/rtree"
	"scaleshift/internal/vec"
)

// The slab is held to the textbook recursion over the tree it was frozen
// from, every value rounded as the slab stores it (storedTree), with the
// scalar geometry (geom.PenetratesEnlarged, vec.PLDFast,
// geom.Rect.Intersects and Contains): the batched kernels evaluate the
// same float64 expressions on the same values, so the two agree on every
// ID, its order and every count.

// randVec returns a point with coordinates in [-10, 10).
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

func idSet(ids []int64) map[int64]bool {
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

// storedTree returns a copy of the nodes under n with every rectangle as
// s stores it.
func storedTree(n *node, s *Slab) *node {
	out := &node{level: n.level, super: n.super}
	for _, e := range n.entries {
		r := geom.Rect{L: make(vec.Vector, len(e.rect.L)), H: make(vec.Vector, len(e.rect.H))}
		for j := range r.L {
			r.L[j], r.H[j] = s.round.of(e.rect.L[j]), s.round.of(e.rect.H[j])
		}
		ce := &entry{rect: r, id: e.id}
		if e.child != nil {
			ce.child = storedTree(e.child, s)
		}
		out.entries = append(out.entries, ce)
	}
	return out
}

// refLine is LineSearchIDs over the nodes under n.
func refLine(n *node, l vec.Line, eps float64, strategy geom.Strategy, stats *rtree.SearchStats, ids []int64) []int64 {
	stats.NodeAccesses += n.pages()
	for _, e := range n.entries {
		if !n.isLeaf() {
			if geom.PenetratesEnlarged(strategy, e.rect, eps, l, &stats.Penetration) {
				ids = refLine(e.child, l, eps, strategy, stats, ids)
			}
			continue
		}
		stats.LeafEntriesChecked++
		if vec.PLDFast(e.rect.L, l) <= eps {
			ids = append(ids, e.id)
		}
	}
	return ids
}

// refRange is RangeSearch over the nodes under n.
func refRange(n *node, r geom.Rect, stats *rtree.SearchStats, ids []int64) []int64 {
	stats.NodeAccesses += n.pages()
	for _, e := range n.entries {
		if !n.isLeaf() {
			if r.Intersects(e.rect) {
				ids = refRange(e.child, r, stats, ids)
			}
			continue
		}
		stats.LeafEntriesChecked++
		if r.Contains(e.rect.L) {
			ids = append(ids, e.id)
		}
	}
	return ids
}

// slabConfigs is the structural matrix TestSlabMatchesTree sweeps:
// low/high dimension, tiny/default fanout, R* and Guttman splits, with
// and without X-tree supernodes.
func slabConfigs() []Config {
	shape := func(dim, M, m int) rtree.Config { return rtree.Config{Dim: dim, MaxEntries: M, MinEntries: m} }
	return []Config{
		{Config: shape(2, 4, 2), Split: SplitRStar},
		{Config: shape(2, 6, 2), ReinsertCount: 2, Split: SplitRStar},
		{Config: shape(3, 5, 2), Split: SplitQuadratic},
		{Config: shape(3, 5, 2), Split: SplitLinear},
		{Config: shape(6, 8, 3), ReinsertCount: 2, Split: SplitRStar},
		{Config: shape(4, 4, 2), Split: SplitRStar, SupernodeMaxOverlap: 0.2},
	}
}

// TestSlabMatchesTree freezes insert-built trees of every shape and
// holds every search of the slab to the reference over the tree's nodes
// — the same IDs in the same order and the same SearchStats, under both
// strategies — and the slab to the tree's size and shape; Load is the
// same trip as Insert and Freeze.
func TestSlabMatchesTree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for ci, cfg := range slabConfigs() {
		for _, n := range []int{0, 1, 7, 300} {
			tr, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ids, cols := make([]int64, n), make([]float64, n*cfg.Dim)
			for i := range ids {
				ids[i] = int64(3 * i)
				for j, x := range randVec(rng, cfg.Dim) {
					cols[j*n+i] = x
				}
			}
			p := make(vec.Vector, cfg.Dim)
			for i, id := range ids {
				for j := range p {
					p[j] = cols[j*n+i]
				}
				tr.Insert(p, id)
			}
			s := tr.Freeze()
			stored := storedTree(tr.root, s)
			if tr.Len() != s.Len() || tr.Height() != s.Height() || tr.NodeCount() != s.NodeCount() {
				t.Fatalf("cfg %d n %d: len %d/%d height %d/%d nodes %d/%d",
					ci, n, tr.Len(), s.Len(), tr.Height(), s.Height(), tr.NodeCount(), s.NodeCount())
			}
			for q := 0; q < 20; q++ {
				l := vec.Line{P: randVec(rng, cfg.Dim), D: randVec(rng, cfg.Dim)}
				if q%2 == 0 {
					l.P = make(vec.Vector, cfg.Dim)
				}
				eps := rng.Float64() * 6
				for _, strategy := range []geom.Strategy{geom.EnteringExiting, geom.BoundingSpheres} {
					var want, got rtree.SearchStats
					wantIDs := refLine(stored, l, eps, strategy, &want, nil)
					gotIDs := s.LineSearchIDs(l, eps, strategy, &got, []int64{-1})
					if !reflect.DeepEqual(append([]int64{-1}, wantIDs...), gotIDs) || want != got {
						t.Fatalf("cfg %d n %d query %d %v: %d ids %+v, the tree's %d %+v", ci, n, q, strategy, len(gotIDs)-1, got, len(wantIDs), want)
					}
				}
				r := randRect(rng, cfg.Dim)
				var want, got rtree.SearchStats
				wantIDs := refRange(stored, r, &want, nil)
				if gotIDs := s.RangeSearch(r, &got); !reflect.DeepEqual(wantIDs, gotIDs) || want != got {
					t.Fatalf("cfg %d n %d range %d: %d ids %+v, the tree's %d %+v", ci, n, q, len(gotIDs), got, len(wantIDs), want)
				}
			}
			loaded, err := Load(cfg, ids, cols)
			if err != nil || !reflect.DeepEqual(loaded.nodes, s.nodes) || !reflect.DeepEqual(loaded.refs, s.refs) || !reflect.DeepEqual(loaded.planes, s.planes) {
				t.Fatalf("cfg %d n %d: Load differs from Insert and Freeze (err %v)", ci, n, err)
			}
		}
	}
}

// TestBulkLoadSearchMatchesInsertBuilt is the differential of the two
// directories over the same points: the serving arena (rtree.BulkLoadFlat,
// direction boxes under the cone test), this slab (the R*-tree's MBRs
// under the slab test) and brute force return the same points for lines
// through the origin — the served case — and off it.  The coordinates
// are float32 values, so the arena and the slab store every point
// exactly.
func TestBulkLoadSearchMatchesInsertBuilt(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	const n, dim = 2000, 3
	cfg := Config{Config: rtree.Config{Dim: dim, MaxEntries: 8, MinEntries: 3}, ReinsertCount: 2, Split: SplitRStar}
	ids, cols := make([]int64, n), make([]float64, n*dim)
	points := make([]vec.Vector, n)
	for i := range points {
		ids[i], points[i] = int64(i), randVec(r, dim)
		for j := range points[i] {
			points[i][j] = float64(float32(points[i][j]))
			cols[j*n+i] = points[i][j]
		}
	}
	arena, err := rtree.BulkLoadFlat(cfg.Config, ids, cols, 1)
	if err != nil {
		t.Fatal(err)
	}
	slab, err := Load(cfg, ids, cols)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 25; q++ {
		l := vec.Line{P: randVec(r, dim), D: randVec(r, dim)}
		if q%2 == 0 {
			l.P = make(vec.Vector, dim)
		}
		want := map[int64]bool{}
		for i, p := range points {
			if vec.PLDFast(p, l) <= 1.5 {
				want[int64(i)] = true
			}
		}
		cone, err := arena.LineSearchIDs(context.Background(), l, 1.5, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		mbr := slab.LineSearchIDs(l, 1.5, geom.EnteringExiting, nil, nil)
		if !sameIDSet(idSet(cone), want) || !sameIDSet(idSet(mbr), want) {
			t.Fatalf("query %d: the arena returns %d points, the slab %d, brute force %d", q, len(cone), len(mbr), len(want))
		}
	}
}

// TestBulkLoadPackingQuality: packing guarantees a smaller tree, and —
// tiled and summarised for lines through the origin — one that such a
// line reads fewer pages of than an insert-built R*-tree's MBRs, even on
// uniform data, where R* insertion is at its best.
func TestBulkLoadPackingQuality(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	const n, dim = 5000, 4
	ids, cols := make([]int64, n), make([]float64, n*dim)
	for i := range ids {
		ids[i] = int64(i)
		for j, x := range randVec(r, dim) {
			cols[j*n+i] = float64(float32(x))
		}
	}
	fb, err := rtree.BulkLoadFlat(rtree.DefaultConfig(dim), ids, cols, 1)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := Load(DefaultConfig(dim), ids, cols)
	if err != nil {
		t.Fatal(err)
	}
	if fb.NodeCount() > fi.NodeCount() {
		t.Errorf("bulk tree has %d nodes, incremental %d", fb.NodeCount(), fi.NodeCount())
	}
	var bulkAcc, incAcc int
	for q := 0; q < 40; q++ {
		l := vec.Line{P: make(vec.Vector, dim), D: randVec(r, dim)}
		var sb, si rtree.SearchStats
		got, err := fb.LineSearchIDs(context.Background(), l, 0.3, &sb, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := fi.LineSearchIDs(l, 0.3, geom.EnteringExiting, &si, nil)
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

// FuzzSlabSearch grows a tree by inserting random points under each
// split, X-tree supernodes on or off, and runs random lines — through
// the origin and off it — and ε through the slab under both strategies:
// no point the leaf kernel puts within ε is dismissed when the search
// allows for the kernel's cancellation and the slab's rounding, nothing
// farther than twice that allowance is returned, and Entering/Exiting and
// Bounding-Spheres return the same IDs after the same node reads.
func FuzzSlabSearch(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(0), false, 0.5)
	f.Add(int64(2), uint16(900), uint8(1), true, 2.0)
	f.Add(int64(3), uint16(40), uint8(2), false, 0.0)
	f.Add(int64(4), uint16(1500), uint8(0), true, 7.5)
	// X-tree growths whose split supernode left a half more entries over
	// its capacity than forced reinsertion, or one page more, made room
	// for: CheckInvariants found them over capacity until both were
	// rechecked.
	f.Add(int64(246), uint16(900), uint8('S'), true, 2.0)
	f.Add(int64(-24), uint16(900), uint8(1), true, 2.0)
	f.Fuzz(func(t *testing.T, seed int64, n16 uint16, split uint8, super bool, eps float64) {
		if !(eps >= 0 && eps <= 100) {
			t.Skip("ε outside [0, 100]")
		}
		rng := rand.New(rand.NewSource(seed))
		dim := 2 + rng.Intn(5)
		cfg := Config{Config: rtree.Config{Dim: dim, MaxEntries: 8, MinEntries: 3}, ReinsertCount: 2, Split: SplitAlgorithm(int(split) % 3)}
		if super {
			cfg.SupernodeMaxOverlap = 0.05
		}
		tr, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := 1 + int(n16)%1500
		points := make([]vec.Vector, n)
		var maxAbs float64
		for i := range points {
			points[i] = randVec(rng, dim)
			if i%7 == 0 && i > 0 {
				points[i] = points[i-1].Clone() // duplicates
			}
			for _, x := range points[i] {
				maxAbs = max(maxAbs, math.Abs(x))
			}
			tr.Insert(points[i], int64(i))
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		s := tr.Freeze()
		// What the one-pass leaf kernel may lose to cancellation, and what
		// the slab's float32 rounding moves a point (core's numericSlack).
		slack := (1e-7 + 0x1p-24) * (maxAbs + 10) * math.Sqrt(float64(dim))
		for q := 0; q < 8; q++ {
			l := vec.Line{P: randVec(rng, dim), D: randVec(rng, dim)}
			switch q % 4 {
			case 0:
				l.P = make(vec.Vector, dim)
			case 1:
				l.D = points[rng.Intn(n)].Clone() // through a stored point
				l.P = make(vec.Vector, dim)
			}
			var ee, bs rtree.SearchStats
			got := s.LineSearchIDs(l, eps+slack, geom.EnteringExiting, &ee, nil)
			alt := s.LineSearchIDs(l, eps+slack, geom.BoundingSpheres, &bs, nil)
			if !reflect.DeepEqual(got, alt) || ee.NodeAccesses != bs.NodeAccesses || ee.LeafEntriesChecked != bs.LeafEntriesChecked {
				t.Fatalf("query %d: entering/exiting %d ids after %d node reads, bounding spheres %d after %d", q, len(got), ee.NodeAccesses, len(alt), bs.NodeAccesses)
			}
			found := idSet(got)
			for i, p := range points {
				d := vec.PLDFast(p, l)
				if d <= eps && !found[int64(i)] {
					t.Fatalf("query %d, n=%d dim=%d %v: point %d at distance %g dismissed at ε %g", q, n, dim, cfg.Split, i, d, eps)
				}
				if d > eps+2*slack && found[int64(i)] {
					t.Fatalf("query %d: point %d at distance %g returned at ε %g", q, i, d, eps+slack)
				}
			}
		}
	})
}
