package geom

import (
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
