package geom

import (
	"math"
	"math/rand"
	"testing"

	"scaleshift/internal/vec"
)

func randLine(r *rand.Rand, n int) vec.Line {
	return vec.Line{P: randVec(r, n), D: randVec(r, n)}
}

// bruteForcePenetrates densely samples the line parameter and reports
// whether any sampled point (slightly tolerance-expanded) lies in r.
// Used only as an oracle: it can under-report but never over-report.
func bruteForcePenetrates(r Rect, l vec.Line) bool {
	for t := -50.0; t <= 50.0; t += 0.001 {
		if r.Contains(l.At(t)) {
			return true
		}
	}
	return false
}

func TestSlabPenetratesKnownCases(t *testing.T) {
	box := Rect{L: vec.Vector{0, 0}, H: vec.Vector{2, 2}}
	tests := []struct {
		name string
		l    vec.Line
		want bool
	}{
		{"through middle", vec.Line{P: vec.Vector{-1, 1}, D: vec.Vector{1, 0}}, true},
		{"above", vec.Line{P: vec.Vector{-1, 3}, D: vec.Vector{1, 0}}, false},
		{"diagonal hit", vec.Line{P: vec.Vector{-1, -1}, D: vec.Vector{1, 1}}, true},
		{"diagonal miss", vec.Line{P: vec.Vector{3, 0}, D: vec.Vector{1, 1}}, false},
		{"touch corner", vec.Line{P: vec.Vector{2, 0}, D: vec.Vector{0, 1}}, true},
		{"axis-parallel inside slab", vec.Line{P: vec.Vector{1, 5}, D: vec.Vector{0, 1}}, true},
		{"axis-parallel outside slab", vec.Line{P: vec.Vector{3, 5}, D: vec.Vector{0, 1}}, false},
		{"zero direction inside", vec.Line{P: vec.Vector{1, 1}, D: vec.Vector{0, 0}}, true},
		{"zero direction outside", vec.Line{P: vec.Vector{3, 3}, D: vec.Vector{0, 0}}, false},
		{"backwards direction hit", vec.Line{P: vec.Vector{5, 1}, D: vec.Vector{-1, 0}}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := SlabPenetrates(box, tc.l); got != tc.want {
				t.Errorf("SlabPenetrates = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestSlabAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	agree, penetrations := 0, 0
	for i := 0; i < 400; i++ {
		n := 2 + r.Intn(4)
		box := randRect(r, n)
		l := randLine(r, n)
		got := SlabPenetrates(box, l)
		brute := bruteForcePenetrates(box, l)
		if brute && !got {
			t.Fatalf("slab missed a penetration: box=%+v line=%+v", box, l)
		}
		if got == brute {
			agree++
		}
		if got {
			penetrations++
		}
	}
	// The brute-force oracle only covers t ∈ [-50, 50] at 1e-3 steps, so
	// a tiny disagreement rate (slab says yes, sampling missed it) is
	// acceptable; gross disagreement indicates a bug.
	if agree < 380 {
		t.Errorf("slab and brute force agree on only %d/400 cases", agree)
	}
	if penetrations == 0 {
		t.Error("test generated no penetrating cases; oracle too weak")
	}
}

func TestSphereCheckConservative(t *testing.T) {
	// Outer-miss must imply slab-miss; inner-hit must imply slab-hit.
	r := rand.New(rand.NewSource(21))
	misses, hits, inconclusive := 0, 0, 0
	for i := 0; i < 1000; i++ {
		n := 2 + r.Intn(5)
		box := randRect(r, n)
		l := randLine(r, n)
		switch SphereCheck(box, l) {
		case SphereMiss:
			misses++
			if SlabPenetrates(box, l) {
				t.Fatal("outer sphere missed but slab penetrates")
			}
		case SphereHit:
			hits++
			if !SlabPenetrates(box, l) {
				t.Fatal("inner sphere hit but slab does not penetrate")
			}
		default:
			inconclusive++
		}
	}
	if misses == 0 || hits == 0 || inconclusive == 0 {
		t.Errorf("sphere verdicts not exercised: miss=%d hit=%d inconclusive=%d",
			misses, hits, inconclusive)
	}
}

func TestPenetratesStrategiesAgree(t *testing.T) {
	// Both strategies must return the same verdict — spheres are only a
	// shortcut, never a different answer.
	r := rand.New(rand.NewSource(22))
	for i := 0; i < 500; i++ {
		n := 2 + r.Intn(5)
		box := randRect(r, n)
		l := randLine(r, n)
		ee := Penetrates(EnteringExiting, box, l, nil)
		bs := Penetrates(BoundingSpheres, box, l, nil)
		if ee != bs {
			t.Fatalf("strategies disagree: ee=%v spheres=%v box=%+v line=%+v", ee, bs, box, l)
		}
	}
}

func TestPenetratesStats(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	var eeStats, bsStats CheckStats
	const trials = 300
	for i := 0; i < trials; i++ {
		box := randRect(r, 3)
		l := randLine(r, 3)
		Penetrates(EnteringExiting, box, l, &eeStats)
		Penetrates(BoundingSpheres, box, l, &bsStats)
	}
	if eeStats.SlabTests != trials || eeStats.SphereTests != 0 {
		t.Errorf("EE stats: %+v", eeStats)
	}
	if bsStats.SphereTests != trials {
		t.Errorf("spheres stats: %+v", bsStats)
	}
	if bsStats.SphereHits+bsStats.SlabTests != trials {
		t.Errorf("sphere verdicts and slab fallbacks do not partition: %+v", bsStats)
	}
	var sum CheckStats
	sum.Add(eeStats)
	sum.Add(bsStats)
	if sum.SlabTests != eeStats.SlabTests+bsStats.SlabTests {
		t.Errorf("Add broken: %+v", sum)
	}
}

func TestLineRectDistKnownCases(t *testing.T) {
	box := Rect{L: vec.Vector{0, 0}, H: vec.Vector{2, 2}}
	tests := []struct {
		name string
		l    vec.Line
		want float64
	}{
		{"through", vec.Line{P: vec.Vector{-1, 1}, D: vec.Vector{1, 0}}, 0},
		{"parallel above", vec.Line{P: vec.Vector{0, 5}, D: vec.Vector{1, 0}}, 3},
		// Line x+y = 5 misses the box; nearest point is the corner (2,2).
		{"diagonal corner", vec.Line{P: vec.Vector{5, 0}, D: vec.Vector{1, -1}}, math.Sqrt2 / 2},
		{"point line inside", vec.Line{P: vec.Vector{1, 1}, D: vec.Vector{0, 0}}, 0},
		{"point line outside", vec.Line{P: vec.Vector{5, 6}, D: vec.Vector{0, 0}}, 5},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := LineRectDist(box, tc.l)
			if math.Abs(got-tc.want) > 1e-9 {
				t.Errorf("LineRectDist = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestLineRectDistConsistentWithPenetration(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	for i := 0; i < 500; i++ {
		n := 2 + r.Intn(5)
		box := randRect(r, n)
		l := randLine(r, n)
		d := LineRectDist(box, l)
		if SlabPenetrates(box, l) {
			if d > 1e-9 {
				t.Fatalf("penetrating line has distance %v", d)
			}
		} else if d <= 0 {
			t.Fatalf("non-penetrating line has distance %v", d)
		}
	}
}

func TestLineRectDistIsLowerBound(t *testing.T) {
	// No sampled point pair beats the reported distance, and some sample
	// comes close to it.
	r := rand.New(rand.NewSource(25))
	for i := 0; i < 200; i++ {
		n := 2 + r.Intn(4)
		box := randRect(r, n)
		l := randLine(r, n)
		d := LineRectDist(box, l)
		closest := math.Inf(1)
		for tt := -30.0; tt <= 30.0; tt += 0.002 {
			if c := box.MinDistToPoint(l.At(tt)); c < closest {
				closest = c
			}
		}
		if closest < d-1e-6 {
			t.Fatalf("sampling found %v below LineRectDist %v", closest, d)
		}
		if closest > d+0.05 && d < 100 {
			t.Fatalf("LineRectDist %v unattained; sampling best %v", d, closest)
		}
	}
}

func BenchmarkSlabPenetrates6D(b *testing.B) {
	r := rand.New(rand.NewSource(26))
	box := randRect(r, 6)
	l := randLine(r, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SlabPenetrates(box, l)
	}
}

func BenchmarkSphereCheck6D(b *testing.B) {
	r := rand.New(rand.NewSource(27))
	box := randRect(r, 6)
	l := randLine(r, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SphereCheck(box, l)
	}
}

func BenchmarkLineRectDist6D(b *testing.B) {
	r := rand.New(rand.NewSource(28))
	box := randRect(r, 6)
	l := randLine(r, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LineRectDist(box, l)
	}
}

func TestPenetratesEnlargedMatchesMaterialized(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	for i := 0; i < 800; i++ {
		n := 2 + r.Intn(5)
		box := randRect(r, n)
		l := randLine(r, n)
		eps := r.Float64() * 3
		enlarged := box.Enlarge(eps)
		for _, strat := range []Strategy{EnteringExiting, BoundingSpheres} {
			want := Penetrates(strat, enlarged, l, nil)
			got := PenetratesEnlarged(strat, box, eps, l, nil)
			if got != want {
				t.Fatalf("strategy %v eps %v: enlarged-path %v, materialized %v", strat, eps, got, want)
			}
		}
	}
}

func BenchmarkPenetratesEnlarged6D(b *testing.B) {
	r := rand.New(rand.NewSource(31))
	box := randRect(r, 6)
	l := randLine(r, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PenetratesEnlarged(EnteringExiting, box, 0.5, l, nil)
	}
}

func TestPenetratesEnlargedSegment(t *testing.T) {
	box := Rect{L: vec.Vector{0, 0}, H: vec.Vector{2, 2}}
	l := vec.Line{P: vec.Vector{-3, 1}, D: vec.Vector{1, 0}} // enters box for t in [3, 5]
	for _, strat := range []Strategy{EnteringExiting, BoundingSpheres} {
		tests := []struct {
			name       string
			tMin, tMax float64
			eps        float64
			want       bool
		}{
			{"covers crossing", 0, 10, 0, true},
			{"stops short", 0, 2, 0, false},
			{"starts after", 6, 10, 0, false},
			{"partial overlap", 4, 10, 0, true},
			{"inverted range", 5, 3, 0, false},
			{"short but enlarged", 0, 2.5, 0.6, true},
			{"degenerate range inside", 4, 4, 0, true},
			{"degenerate range outside", 1, 1, 0, false},
		}
		for _, tc := range tests {
			t.Run(tc.name, func(t *testing.T) {
				var stats CheckStats
				got := PenetratesEnlargedSegment(strat, box, tc.eps, l, tc.tMin, tc.tMax, &stats)
				if got != tc.want {
					t.Errorf("strategy %v: got %v, want %v", strat, got, tc.want)
				}
			})
		}
	}
	// Zero-direction segment behaves as a point test.
	pt := vec.Line{P: vec.Vector{1, 1}, D: vec.Vector{0, 0}}
	if !PenetratesEnlargedSegment(EnteringExiting, box, 0, pt, -1, 1, nil) {
		t.Error("degenerate segment inside box missed")
	}
	out := vec.Line{P: vec.Vector{9, 9}, D: vec.Vector{0, 0}}
	if PenetratesEnlargedSegment(BoundingSpheres, box, 0, out, -1, 1, nil) {
		t.Error("degenerate segment outside box hit")
	}
}

func TestSegmentStrategiesAgainstSampling(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	for i := 0; i < 500; i++ {
		n := 2 + r.Intn(4)
		box := randRect(r, n)
		l := randLine(r, n)
		tMin := r.Float64()*6 - 3
		tMax := tMin + r.Float64()*4
		eps := r.Float64()
		ee := PenetratesEnlargedSegment(EnteringExiting, box, eps, l, tMin, tMax, nil)
		bs := PenetratesEnlargedSegment(BoundingSpheres, box, eps, l, tMin, tMax, nil)
		if ee != bs {
			t.Fatalf("segment strategies disagree")
		}
		// Sampling oracle: any sampled segment point inside the enlarged
		// box implies penetration.
		enlarged := box.Enlarge(eps)
		for s := 0.0; s <= 1.0; s += 0.01 {
			tt := tMin + s*(tMax-tMin)
			if enlarged.Contains(l.At(tt)) && !ee {
				t.Fatalf("sampled point inside but segment test missed")
			}
		}
	}
}
