package geom

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"scaleshift/internal/vec"
)

// The cone test's tests are written to fail if it ever dismisses: the
// oracle is exact — whether a stored point lies within ε of the probe is
// decided in big.Float arithmetic wide enough that every product and sum
// of the float64 inputs is computed without rounding — and the entries
// are summarised here the way the bulk loader summarises them (norm and
// folded unit direction rounded to nearest, extremes stepped one value
// outward), over points chosen to sit on every edge of the argument.

const exactPrec = 1 << 13

func exact(x float64) *big.Float { return new(big.Float).SetPrec(exactPrec).SetFloat64(x) }

// exactWithin reports whether p lies within eps of the line l, or of its
// segment [tMin, tMax], exactly.
func exactWithin(p []float64, l vec.Line, eps, tMin, tMax float64, segment bool) bool {
	mul := func(a, b *big.Float) *big.Float { return new(big.Float).SetPrec(exactPrec).Mul(a, b) }
	qq, qd, dd := exact(0), exact(0), exact(0)
	for j := range p {
		q := new(big.Float).SetPrec(exactPrec).Sub(exact(p[j]), exact(l.P[j]))
		qq.Add(qq, mul(q, q))
		qd.Add(qd, mul(q, exact(l.D[j])))
		dd.Add(dd, mul(exact(l.D[j]), exact(l.D[j])))
	}
	e2 := mul(exact(eps), exact(eps))
	clamp := func(t float64) bool { // ‖q − t·D‖² ≤ ε²
		d2 := new(big.Float).SetPrec(exactPrec).Sub(qq, mul(exact(2*t), qd))
		d2.Add(d2, mul(mul(exact(t), exact(t)), dd))
		return d2.Cmp(e2) <= 0
	}
	switch {
	case segment && tMin > tMax:
		return false
	case dd.Sign() == 0:
		return qq.Cmp(e2) <= 0
	case segment && !math.IsInf(tMin, -1) && qd.Cmp(mul(exact(tMin), dd)) < 0:
		return clamp(tMin)
	case segment && !math.IsInf(tMax, 1) && qd.Cmp(mul(exact(tMax), dd)) > 0:
		return clamp(tMax)
	}
	// qq − qd²/dd ≤ ε²  ⇔  qq·dd − qd² ≤ ε²·dd
	return new(big.Float).SetPrec(exactPrec).Sub(mul(qq, dd), mul(qd, qd)).Cmp(mul(e2, dd)) <= 0
}

// coneEntries lays groups of points out as the entries of one
// direction-box node, summarised as rtree.BulkLoadFlat summarises a
// leaf: row 0 the norm range, rows 1… the box of the folded unit
// directions, every bound the extreme value stepped one T outward.
func coneEntries[T vec.Coord](groups [][][]float64, dim int, outward func(x T, up bool) T) Planes[T] {
	c := len(groups)
	pl := Planes[T]{Data: make([]T, 2*(dim+1)*c), Count: c, Dim: dim + 1}
	for k, g := range groups {
		for row := 0; row <= dim; row++ {
			var mn, mx T
			for i, p := range g {
				var s float64
				for _, x := range p {
					s += x * x
				}
				norm := math.Sqrt(s)
				v := T(norm)
				if row > 0 {
					inv := 0.0
					if norm != 0 {
						inv = math.Copysign(1/norm, p[0]+0)
					}
					v = T(p[row-1]*inv) + 0
				}
				if i == 0 || v < mn {
					mn = v
				}
				if i == 0 || v > mx {
					mx = v
				}
			}
			mn, mx = outward(mn, false), outward(mx, true)
			if row == 0 && mn < 0 {
				mn = 0
			}
			pl.LRow(row)[k], pl.HRow(row)[k] = mn, mx
		}
	}
	return pl
}

func step32(x float32, up bool) float32 {
	if up {
		return math.Nextafter32(x, float32(math.Inf(1)))
	}
	return math.Nextafter32(x, float32(math.Inf(-1)))
}

// step64 widens by the float32 step's worth, so the float64 planes carry
// the same margin over the rounding of the norm and the division.
func step64(x float64, up bool) float64 {
	w := math.Abs(x)*0x1p-24 + math.SmallestNonzeroFloat64
	if up {
		return x + w
	}
	return x - w
}

// checkCone runs one probe over one node and asserts the two properties:
// the batched kernel is the scalar reference bit for bit, and an entry
// holding a point exactly within ε is entered.
func checkCone[T vec.Coord](t *testing.T, what string, groups [][][]float64, pl Planes[T], l vec.Line, eps, tMin, tMax float64, segment bool) {
	t.Helper()
	var cn Cone
	PrepareCone(&cn, l, eps, tMin, tMax, segment)
	var sc BatchScratch
	var stats CheckStats
	verdict := ConeBatch(pl, &cn, &sc, &stats)
	if stats.SlabTests != pl.Count || stats.SphereTests != 0 {
		t.Fatalf("%s: %d entries counted as %+v", what, pl.Count, stats)
	}
	dim := pl.Dim - 1
	lo, hi := make([]float64, dim), make([]float64, dim)
	for k, g := range groups {
		for j := 0; j < dim; j++ {
			lo[j], hi[j] = float64(pl.LRow(1 + j)[k]), float64(pl.HRow(1 + j)[k])
		}
		rLo, rHi := float64(pl.LRow(0)[k]), float64(pl.HRow(0)[k])
		want := cn.LowerSq(rLo, lo, hi)
		if got := sc.tLo[k]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s entry %d: batched bound %v, scalar %v", what, k, got, want)
		}
		if ref := lowerSqBranchy(&cn, rLo, lo, hi); math.Float64bits(ref) != math.Float64bits(want) {
			t.Fatalf("%s entry %d: bound %v, the comparison form's %v", what, k, want, ref)
		}
		if verdict[k] != cn.Enters(want, rLo, rHi) {
			t.Fatalf("%s entry %d: batched verdict %v, scalar %v", what, k, verdict[k], !verdict[k])
		}
		for _, p := range g {
			if exactWithin(p, l, eps, tMin, tMax, segment) && !verdict[k] {
				t.Fatalf("%s entry %d: point %v is within eps %g of the probe (D %v, P %v, segment %v [%g, %g]) and the entry was refused: bound %g against %g, norms [%g, %g] against [%g, %g]",
					what, k, p, eps, l.D, l.P, segment, tMin, tMax, want, cn.MaxSq, rLo, rHi, cn.RMin, cn.RMax)
			}
			if b := cn.Bound(want); !segment && b > 0 && exactWithin(p, l, b*(1-0x1p-40), 0, 0, false) {
				t.Fatalf("%s entry %d: point %v lies within the k-NN bound %g of the line", what, k, p, b)
			}
		}
	}
}

// roundTo32 makes every coordinate a float32, as stored points are.
func roundTo32(groups [][][]float64) {
	for _, g := range groups {
		for _, p := range g {
			for j := range p {
				p[j] = float64(float32(p[j]))
			}
		}
	}
}

// probesOf returns, for a node and a line, the ε to try: nothing, all,
// and the exact distance of every point with the floats either side —
// for a point perpendicular to the line that is its norm, so r_lo within
// an ulp of ε comes up whenever such a point is there.
func probesOf(groups [][][]float64, l vec.Line) []float64 {
	eps := []float64{0, math.MaxFloat64 / 4}
	for _, g := range groups {
		for _, p := range g {
			d, _ := vec.PLD(p, l)
			eps = append(eps, d, math.Nextafter(d, 0), math.Nextafter(d, math.Inf(1)), d/2, 2*d)
		}
	}
	return eps
}

func TestConePruneTable(t *testing.T) {
	tiny := float64(math.SmallestNonzeroFloat32)
	nodes := map[string][][][]float64{
		"zero vector inside":  {{{0, 0, 0}, {3, 4, 0}}, {{0, 0, 0}}, {{1, 1, 1}, {-1, -1, -1}}},
		"fold boundary":       {{{0, 1, 0}, {-tiny, -1, 0}, {tiny, -1, 0}}, {{-tiny, 2, 0.5}, {0, -2, -0.5}}, {{0, 0, 1}, {0, 0, -1}}},
		"single points":       {{{1, 2, 2}}, {{-1, -2, -2}}, {{0.25, 0.5, 0.5}}, {{3, -4, 0}}, {{0, 5, 0}}},
		"on and off the line": {{{1, 2, 2}, {1.0000001, 2, 2}, {1, 2, 2.0000002}}, {{2, 4, 4}, {-3, -6, -6}}, {{100, 200, 200.25}}},
		"perpendicular":       {{{2, -1, 0}}, {{0, 1, -1}, {0, -2, 2}}, {{2, -1, 0}, {4, -2, 0}, {2e-3, -1e-3, 0}}},
		"decades of norm":     {{{1e-30, 2e-30, 2e-30}, {1e-3, 2e-3, 2.1e-3}}, {{1e30, 2e30, 2e30}}, {{1e-38, 1e-38, -1e-38}, {1e38, 1e38, -1e38}}},
	}
	lines := []vec.Line{
		{P: vec.Vector{0, 0, 0}, D: vec.Vector{1, 2, 2}},
		{P: vec.Vector{0, 0, 0}, D: vec.Vector{-1e75, -2e75, -2e75}},
		{P: vec.Vector{0, 0, 0}, D: vec.Vector{1e-150, 2e-150, 2e-150}},
		{P: vec.Vector{0, 0, 0}, D: vec.Vector{0, 1, 0}},
		{P: vec.Vector{0, 0, 0}, D: vec.Vector{0, 0, 0}},
		{P: vec.Vector{0.5, -0.25, 3}, D: vec.Vector{1, 2, 2}},
		{P: vec.Vector{2, 4, 4}, D: vec.Vector{1, 2, 2}},
		{P: vec.Vector{1, 1, 1}, D: vec.Vector{0, 0, 0}},
	}
	for name, groups := range nodes {
		roundTo32(groups)
		pl := coneEntries(groups, 3, step32)
		for li, l := range lines {
			for _, eps := range probesOf(groups, l) {
				checkCone(t, name, groups, pl, l, eps, 0, 0, false)
				for _, seg := range [][2]float64{{0.5, 2}, {-3, -0.1}, {0, math.Inf(1)}, {math.Inf(-1), math.Inf(1)}, {1, 1}, {2, 1}, {-1e-3, 1e-3}} {
					tMin, tMax := seg[0], seg[1]
					if s := math.Abs(l.D[1]); li < 3 && s != 0 { // parameters in units of the direction
						tMin, tMax = tMin/s, tMax/s
					}
					checkCone(t, name, groups, pl, l, eps, tMin, tMax, true)
				}
			}
		}
	}

	// The same node at magnitudes float32 cannot hold, in float64 planes:
	// the kernels are generic and nothing in them may overflow at 1e75 or
	// vanish at 1e-150.
	for _, mag := range []float64{1e75, 1e-150, 1} {
		var groups [][][]float64
		for _, g := range nodes["on and off the line"] {
			var h [][]float64
			for _, p := range g {
				h = append(h, []float64{p[0] * mag, p[1] * mag, p[2] * mag})
			}
			groups = append(groups, h)
		}
		pl := coneEntries(groups, 3, step64)
		for _, l := range lines[:4] {
			for _, eps := range probesOf(groups, l) {
				checkCone(t, "magnitude", groups, pl, l, eps, 0, 0, false)
				checkCone(t, "magnitude", groups, pl, l, eps, 0.5*mag/math.Abs(l.D[1]), 2*mag/math.Abs(l.D[1]), true)
			}
		}
	}
}

// FuzzConePrune draws nodes of clustered points — norms over many
// decades, directions near and far from the probe's, the zero point, the
// fold boundary — and probes through and off the origin at ε on, beside
// and far from the points' own distances.
func FuzzConePrune(f *testing.F) {
	f.Add(int64(1), uint8(5), int8(0), uint8(0))
	f.Add(int64(2), uint8(20), int8(-30), uint8(1))
	f.Add(int64(3), uint8(9), int8(30), uint8(2))
	f.Add(int64(4), uint8(1), int8(3), uint8(7))
	f.Add(int64(5), uint8(13), int8(-3), uint8(12))
	f.Fuzz(func(t *testing.T, seed int64, count uint8, exp10 int8, shape uint8) {
		const dim = 6
		if exp10 < -30 || exp10 > 30 {
			t.Skip("beyond what a float32 plane holds")
		}
		rng := rand.New(rand.NewSource(seed))
		mag := math.Pow(10, float64(exp10))
		d := make(vec.Vector, dim)
		for j := range d {
			d[j] = rng.NormFloat64()
		}
		if shape&1 != 0 {
			d[0] = 0 // the probe lies in the fold's boundary plane
		}
		l := vec.Line{P: make(vec.Vector, dim), D: d}
		if shape&2 != 0 {
			for j := range l.P {
				l.P[j] = mag * rng.NormFloat64() * 0.1
			}
		}
		groups := make([][][]float64, 1+int(count)%20)
		for k := range groups {
			centre, spread := make([]float64, dim), math.Pow(10, -8*rng.Float64())
			along := rng.Float64() < 0.5
			for j := range centre {
				centre[j] = rng.NormFloat64()
				if along {
					centre[j] = d[j] * (1 + spread*rng.NormFloat64())
				}
			}
			for i := 0; i <= rng.Intn(5); i++ {
				p := make([]float64, dim)
				scale := mag * math.Pow(10, -6*rng.Float64())
				if rng.Intn(2) == 0 {
					scale = -scale
				}
				for j := range p {
					p[j] = scale * (centre[j] + spread*rng.NormFloat64())
				}
				switch rng.Intn(12) {
				case 0:
					p = make([]float64, dim)
				case 1:
					p[0] = 0
				case 2:
					p[0] = math.Copysign(float64(math.SmallestNonzeroFloat32), p[0])
				}
				groups[k] = append(groups[k], p)
			}
		}
		roundTo32(groups)
		pl := coneEntries(groups, dim, step32)
		tMin := (rng.Float64()*4 - 2) * mag
		tMax := tMin + rng.Float64()*3*mag
		if shape&4 != 0 {
			tMax = math.Inf(1)
		}
		eps := probesOf(groups, l)
		for _, e := range eps[:min(len(eps), 40)] {
			checkCone(t, "fuzz", groups, pl, l, e, 0, 0, false)
			checkCone(t, "fuzz", groups, pl, l, e, tMin, tMax, shape&8 == 0)
		}
		checkConeEdges(t, rng, 1+int(count)%11)
	})
}

// coneGapsBranchy is coneGaps as the four comparisons it was before its
// branch-free form, and lowerSqBranchy Cone.LowerSq over it with the
// comparisons Cone.lower made: the references the branch-free kernel is
// held to, bit for bit, on finite input.
func coneGapsBranchy(lo, hi, x float64) (gp, gn float64) {
	if d := lo - x; d > gp {
		gp = d
	}
	if d := x - hi; d > gp {
		gp = d
	}
	if d := lo + x; d > gn {
		gn = d
	}
	if d := -x - hi; d > gn {
		gn = d
	}
	return gp, gn
}

func lowerSqBranchy(cn *Cone, rLo float64, lo, hi []float64) float64 {
	var mp, mn float64
	for j, x := range cn.Dir {
		gp, gn := coneGapsBranchy(lo[j], hi[j], x)
		mp += gp * gp
		mn += gn * gn
	}
	m := mp
	if mn < m {
		m = mn
	}
	if cn.rFloor > rLo {
		rLo = cn.rFloor
	}
	return rLo * rLo * (m * (1 - m/4))
}

// coneEdgeValues are the plane values checkConeEdges draws from: signed
// zeros, float32 subnormals, the float32 extremes, and values either
// side of a unit direction's components.
var coneEdgeValues = []float32{
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	0x1p-126, -0x1p-126,
	math.MaxFloat32, -math.MaxFloat32,
	1, -1, 0.5, -0.5, 0x1p-24, -0x1p-24,
}

// checkConeEdges fills a node of count direction-box entries — boxes in
// any order, not only lo ≤ hi — with edge values and random ones, and
// requires the batched bound to be the comparison form's bit for bit
// for probes whose directions hold zeros and subnormals too.
func checkConeEdges(t *testing.T, rng *rand.Rand, count int) {
	t.Helper()
	const dim = 6
	pl := Planes[float32]{Data: make([]float32, 2*(dim+1)*count), Count: count, Dim: dim + 1}
	for i := range pl.Data {
		pl.Data[i] = float32(rng.NormFloat64())
		if rng.Intn(3) == 0 {
			pl.Data[i] = coneEdgeValues[rng.Intn(len(coneEdgeValues))]
		}
	}
	d := make(vec.Vector, dim)
	for j := range d {
		d[j] = rng.NormFloat64()
		if rng.Intn(4) == 0 {
			d[j] = float64(coneEdgeValues[rng.Intn(len(coneEdgeValues))])
		}
	}
	var cn Cone
	PrepareCone(&cn, vec.Line{P: make(vec.Vector, dim), D: d}, rng.Float64(), 0, 0, false)
	var sc BatchScratch
	got := ConeLowerSqBatch(pl, &cn, &sc)
	lo, hi := make([]float64, dim), make([]float64, dim)
	for k := 0; k < count; k++ {
		for j := 0; j < dim; j++ {
			lo[j], hi[j] = float64(pl.LRow(1 + j)[k]), float64(pl.HRow(1 + j)[k])
		}
		want := lowerSqBranchy(&cn, float64(pl.LRow(0)[k]), lo, hi)
		if math.Float64bits(got[k]) != math.Float64bits(want) {
			t.Fatalf("edge entry %d of %d (box %v–%v, direction %v): batched bound %v, the comparison form's %v",
				k, count, lo, hi, cn.Dir, got[k], want)
		}
	}
}

// TestConeNaNEnters: an entry whose direction box holds a NaN has a NaN
// bound and is entered — the branch-free coneGaps propagates the NaN,
// where the comparison form read the gap as 0 — beside entries far from
// the probe that are refused.
func TestConeNaNEnters(t *testing.T) {
	const dim = 3
	far := [][]float64{{0, 0, 1}, {0, 0, 1}} // unit directions along z, the probe along x
	groups := [][][]float64{{{10, 0, 0}}, far, far, far, far}
	for _, g := range groups[1:] {
		for _, p := range g {
			p[2] = 10
		}
	}
	pl := coneEntries(groups, dim, step32)
	l := vec.Line{P: make(vec.Vector, dim), D: vec.Vector{1, 0, 0}}
	var cn Cone
	PrepareCone(&cn, l, 0.5, 0, 0, false)
	var sc BatchScratch
	if v := ConeBatch(pl, &cn, &sc, nil); !v[0] || v[1] || v[4] {
		t.Fatalf("verdicts %v: want the entry on the line entered and the four perpendicular ones refused", v)
	}
	for _, k := range []int{1, 4} { // one entry of the blocked sweep, one of its tail
		pl.HRow(2)[k] = float32(math.NaN())
		lowerSq := ConeLowerSqBatch(pl, &cn, &sc)
		if !math.IsNaN(lowerSq[k]) {
			t.Fatalf("entry %d with a NaN box: bound %v, want NaN", k, lowerSq[k])
		}
		if v := ConeBatch(pl, &cn, &sc, nil); !v[k] {
			t.Fatalf("entry %d with a NaN box was refused", k)
		}
	}
}

// BenchmarkConeBatch times the directory kernel of a served probe: one
// node of 17 direction-box entries in 6 dimensions, most of them far
// from the query direction.
func BenchmarkConeBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const dim, fanout = 6, 17
	groups := make([][][]float64, fanout)
	for k := range groups {
		centre := make([]float64, dim)
		for j := range centre {
			centre[j] = rng.NormFloat64()
		}
		for i := 0; i < 17; i++ {
			p := make([]float64, dim)
			for j := range p {
				p[j] = centre[j] + 0.05*rng.NormFloat64()
			}
			groups[k] = append(groups[k], p)
		}
	}
	roundTo32(groups)
	pl := coneEntries(groups, dim, step32)
	l := vec.Line{P: make(vec.Vector, dim), D: vec.Vector{1, -0.5, 0.25, 2, 0.1, -1}}
	var cn Cone
	PrepareCone(&cn, l, 0.01, 0, 0, false)
	var sc BatchScratch
	entered := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range ConeBatch(pl, &cn, &sc, nil) {
			if v {
				entered++
			}
		}
	}
	b.ReportMetric(float64(entered)/float64(b.N), "entered/op")
}
