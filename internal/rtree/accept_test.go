package rtree

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"scaleshift/internal/geom"
	"scaleshift/internal/vec"
)

// leafScan is the brute force the accepting descent must equal: every
// leaf of f in node order — pre-order, the order the descent meets them
// — swept by the leaf kernel at q's ε, in arena units.
func leafScan(f *FlatTree, q lineQuery) []int64 {
	sc := f.getScratch()
	defer f.putScratch(sc)
	aq := f.arenaQuery(q, sc)
	var ids []int64
	for i := range f.meta {
		if f.nodeLevel(i) != 0 {
			continue
		}
		s, e := f.nodeEntries(i)
		c := e - s
		pl := f.nodePlanes(i)
		if aq.segment {
			vec.PSegDFastBatch(pl.Data, c, c, aq.l, aq.tMin, aq.tMax, sc.qpD, sc.qpQp, sc.dist)
		} else {
			vec.PLDFastBatch(pl.Data, c, c, aq.l, sc.qpD, sc.qpQp, sc.dist)
		}
		for k, d := range sc.dist[:c] {
			if d <= aq.eps {
				ids = append(ids, int64(f.refs[s+k]))
			}
		}
	}
	return ids
}

// testingDescent runs q over f the way searchIDs does, with or without
// subtree acceptance.
func testingDescent(f *FlatTree, q lineQuery, accept bool, stats *SearchStats) []int64 {
	sc := f.getScratch()
	defer f.putScratch(sc)
	q = f.arenaQuery(q, sc)
	if !accept {
		q.accept = math.Inf(-1)
	}
	var ids []int64
	_ = f.descend(context.Background(), 0, len(f.meta), &q, stats, sc, func(_ geom.Planes[float32], s, from, to int) {
		for _, ref := range f.refs[s+from : s+to] {
			ids = append(ids, int64(ref))
		}
	})
	return ids
}

// tightenRHi lowers every directory entry's r_hi of f to the largest
// stored norm beneath it — no outward step: the tightest bound Validate
// accepts, and the arena on which the acceptance margin is all that
// keeps a point the kernel puts past ε out.  Nodes are visited children
// first (pre-order, reversed).
func tightenRHi(t *testing.T, f *FlatTree) {
	t.Helper()
	for i := len(f.meta) - 1; i >= 0; i-- {
		if f.nodeLevel(i) == 0 {
			continue
		}
		s, _ := f.nodeEntries(i)
		rHi := f.nodePlanes(i).HRow(0)
		for k := range rHi {
			child := f.nodePlanes(int(f.refs[s+k]))
			var top float32
			if f.nodeLevel(i) == 1 {
				for p := 0; p < child.Count; p++ {
					var v float64
					for j := 0; j < child.Dim; j++ {
						x := float64(child.LRow(j)[p])
						v += x * x
					}
					r, _ := polarOf(v, child.LRow(0)[p])
					top = max(top, r)
				}
			} else {
				top = slices.Max(child.HRow(0))
			}
			rHi[k] = top
		}
	}
	if err := f.Validate(); err != nil {
		t.Fatalf("tightened arena: %v", err)
	}
}

// farthest returns, of the leaf entries under directory entry k of node
// ni, the stored point with the largest norm.
func farthest(f *FlatTree, ni, k int) vec.Vector {
	s, e := f.nodeEntries(ni)
	from, to := int(f.refs[s+k]), f.subtreeEnd(ni, s, e, k)
	var best vec.Vector
	bestSq := -1.0
	for i := from; i < to; i++ {
		if f.nodeLevel(i) != 0 {
			continue
		}
		pl := f.nodePlanes(i)
		for p := 0; p < pl.Count; p++ {
			pt := make(vec.Vector, pl.Dim)
			for j := range pt {
				pt[j] = float64(pl.LRow(j)[p])
			}
			if sq := vec.NormSq(pt); sq > bestSq {
				best, bestSq = pt, sq
			}
		}
	}
	return best
}

// subtreeEnd is the node after the subtree under entry k of node ni,
// whose entries are [s, e), in a pre-order arena.
func (f *FlatTree) subtreeEnd(ni, s, e, k int) int {
	if k+1 < e-s {
		return int(f.refs[s+k+1])
	}
	end := len(f.meta)
	for p := 0; p < ni; p++ { // the parent's own end: its next sibling, or further up
		ps, pe := f.nodeEntries(p)
		for x := ps; x < pe && f.nodeLevel(p) > 0; x++ {
			if int(f.refs[x]) == ni {
				return f.subtreeEnd(p, ps, pe, x-ps)
			}
		}
	}
	return end
}

// FuzzShellAccept holds the subtree acceptance of the direction-box
// descent to the leaf kernel: over arenas whose norms spread over decades
// (a low-norm shell, the zero point) at magnitudes 1e-150 to 1e75, built
// or with every r_hi lowered to the stored norm it covers, for lines
// through the origin and off it — perpendicular to the largest point
// under the chosen directory entry, so that point's distance is its norm
// — through a stored point, and segments, with ε exactly on the entry's
// r_hi, one float either side of it, on that point's kernel distance and
// one float either side of that, and just past the acceptance margin,
// the ids a search returns are exactly — the same ids in the same order
// — those a leaf-by-leaf PLDFastBatch sweep of the same arena admits.  A
// superset would be a filter; acceptance claims the kernel's verdict.
func FuzzShellAccept(f *testing.F) {
	f.Add(int64(1), uint16(600), int16(0), uint8(0), uint16(0))
	f.Add(int64(2), uint16(1400), int16(-150), uint8(1), uint16(40))
	f.Add(int64(3), uint16(900), int16(75), uint8(6), uint16(7))
	f.Add(int64(4), uint16(300), int16(3), uint8(11), uint16(500))
	f.Add(int64(5), uint16(17), int16(-40), uint8(18), uint16(3))
	f.Add(int64(6), uint16(800), int16(0), uint8(0x20), uint16(9))
	f.Add(int64(7), uint16(1200), int16(-7), uint8(0x26), uint16(77))
	// ε on a tightened r_hi where the kernel puts the point one ulp past
	// it: accepting at r_hi ≤ ε with no margin returns one id too many.
	f.Add(int64(-61), uint16(900), int16(-52), uint8(0x38), uint16(368))
	f.Fuzz(func(t *testing.T, seed int64, n16 uint16, exp10 int16, kind uint8, pick uint16) {
		if exp10 < -150 || exp10 > 75 {
			t.Skip("magnitude outside the tested range")
		}
		dim := 2 + int(kind>>2)%5
		n := 1 + int(n16)%1500
		mag := math.Pow(10, float64(exp10))
		rng := rand.New(rand.NewSource(seed))
		ids, cols := make([]int64, n), make([]float64, n*dim)
		centres := make([]vec.Vector, 4)
		for c := range centres {
			centres[c] = randPoint(rng, dim, 1)
		}
		for i := 0; i < n; i++ {
			ids[i] = int64(i)
			scale := mag * math.Pow(10, -4*rng.Float64())
			for j, c := range centres[rng.Intn(len(centres))] {
				cols[j*n+i] = scale * (c + 0.2*rng.NormFloat64())
				if i%97 == 0 {
					cols[j*n+i] = 0
				}
			}
		}
		cfg := Config{Dim: dim, MaxEntries: 6, MinEntries: 2, Split: SplitRStar}
		arena, err := BulkLoadFlat(cfg, ids, cols, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := arena.Validate(); err != nil {
			t.Fatal(err)
		}
		if kind&0x20 != 0 {
			tightenRHi(t, arena)
		}

		// The directory entry ε is placed around, and its largest point.
		type slot struct{ node, k int }
		var entries []slot
		for i := range arena.meta {
			if arena.nodeLevel(i) > 0 {
				s, e := arena.nodeEntries(i)
				for k := 0; k < e-s; k++ {
					entries = append(entries, slot{i, k})
				}
			}
		}
		var rHi float64
		var top vec.Vector
		if len(entries) > 0 {
			at := entries[int(pick)%len(entries)]
			rHi = arena.q.wide(arena.nodePlanes(at.node).HRow(0)[at.k])
			top = farthest(arena, at.node, at.k)
		}

		q := lineQuery{l: vec.Line{P: make(vec.Vector, dim), D: make(vec.Vector, dim)}}
		for j := range q.l.D {
			q.l.D[j] = mag * rng.NormFloat64()
		}
		if top != nil && vec.NormSq(top) > 0 {
			// Perpendicular to the largest point, in either units.
			along := vec.Dot(q.l.D, top) / vec.NormSq(top)
			for j := range q.l.D {
				q.l.D[j] -= along * top[j]
			}
		}
		switch kind % 4 {
		case 1: // straight through a stored point
			for j := range q.l.D {
				q.l.D[j] = cols[j*n+rng.Intn(n)]
			}
		case 2: // off the origin
			for j := range q.l.P {
				q.l.P[j] = 1e-3 * mag * rng.NormFloat64()
			}
		case 3:
			q.segment, q.tMin = true, rng.Float64()*2-1.5
			q.tMax = q.tMin + rng.Float64()*2
		}

		epss := []float64{mag}
		if top != nil {
			sc := arena.getScratch()
			aq := arena.arenaQuery(q, sc)
			d := vec.PLDFast(top, aq.l) * arena.q.scale
			arena.putScratch(sc)
			epss = []float64{rHi, math.Nextafter(rHi, 0), math.Nextafter(rHi, math.Inf(1)), rHi * (1 + 0x1p-19),
				d, math.Nextafter(d, 0), math.Nextafter(d, math.Inf(1))}
		}
		ctx := context.Background()
		for _, eps := range epss {
			q.eps = eps
			want := leafScan(arena, q)
			var stats SearchStats
			var got []int64
			if q.segment {
				got, err = arena.SegmentSearchIDs(ctx, q.l, q.tMin, q.tMax, eps, geom.EnteringExiting, &stats, nil)
			} else {
				got, err = arena.LineSearchIDs(ctx, q.l, eps, geom.EnteringExiting, &stats, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("dim %d n %d magnitude 1e%d kind %#x eps %g (r_hi %g): the search returned %d ids, the leaf kernel admits %d (%d subtrees accepted)",
					dim, n, exp10, kind, eps, rHi, len(got), len(want), stats.SubtreesAccepted)
			}
			if q.segment && stats.SubtreesAccepted != 0 {
				t.Fatalf("a segment probe accepted %d subtrees", stats.SubtreesAccepted)
			}
		}
	})
}

// TestShellAcceptWhole pins what acceptance buys and what it counts:
// with ε above the low-norm shell, an origin line's descent accepts
// subtrees, returns the ids — in order — of the descent that tests every
// leaf, tests exactly the accepted entries fewer, reads fewer nodes, and
// counts an emitted leaf as one node read.
func TestShellAcceptWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	cfg := Config{Dim: 6, MaxEntries: 8, MinEntries: 3, ReinsertCount: 2, Split: SplitRStar}
	f, stored := boxTree(t, rng, cfg, 3000)
	norms := make([]float64, len(stored))
	for i, p := range stored {
		norms[i] = vec.Norm(p)
	}
	slices.Sort(norms)
	for _, frac := range []float64{0.05, 0.3, 1} {
		eps := norms[int(frac*float64(len(norms)-1))]
		q := lineQuery{l: vec.Line{P: make(vec.Vector, cfg.Dim), D: randPoint(rng, cfg.Dim, 1)}, eps: eps}
		var with, without SearchStats
		got := testingDescent(f, q, true, &with)
		want := testingDescent(f, q, false, &without)
		if !slices.Equal(got, want) || !slices.Equal(got, leafScan(f, q)) {
			t.Fatalf("frac %g: the accepting descent returned %d ids, the testing one %d", frac, len(got), len(want))
		}
		if with.SubtreesAccepted == 0 || with.LeafEntriesAccepted == 0 {
			t.Fatalf("frac %g: nothing accepted (%+v)", frac, with)
		}
		if with.LeafEntriesChecked+with.LeafEntriesAccepted != without.LeafEntriesChecked {
			t.Errorf("frac %g: %d checked + %d accepted, the testing descent checked %d", frac, with.LeafEntriesChecked, with.LeafEntriesAccepted, without.LeafEntriesChecked)
		}
		if with.NodeAccesses >= without.NodeAccesses || with.Penetration.SlabTests >= without.Penetration.SlabTests {
			t.Errorf("frac %g: accepting read %d nodes and tested %d entries, testing %d and %d", frac, with.NodeAccesses, with.Penetration.SlabTests, without.NodeAccesses, without.Penetration.SlabTests)
		}
		t.Logf("frac %g: %d subtrees, %d leaf entries accepted; nodes %d → %d, leaf checks %d → %d",
			frac, with.SubtreesAccepted, with.LeafEntriesAccepted, without.NodeAccesses, with.NodeAccesses, without.LeafEntriesChecked, with.LeafEntriesChecked)
	}
}
