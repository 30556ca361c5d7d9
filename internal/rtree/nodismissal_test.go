package rtree

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"scaleshift/internal/geom"
	"scaleshift/internal/vec"
)

// roundingBound is what a caller of the arena adds to ε (core's
// numericSlack): the float32 planes move a point by at most
// 2⁻²⁴·maxAbs·√dim, and the one-pass float64 distance the leaves
// compute cancels to within 1e-7 of the same scale.
func roundingBound(maxAbs float64, dim int) float64 {
	return (1e-7 + 0x1p-24) * maxAbs * math.Sqrt(float64(dim))
}

// segDist is the float64 distance from q to {l.P + t·l.D : tMin ≤ t ≤
// tMax} by the residual at the clamped foot — vec.PLD's form, free of
// the cancellation of the one-pass kernels.
func segDist(q vec.Vector, l vec.Line, tMin, tMax float64) float64 {
	_, t := vec.PLD(q, l)
	t = min(max(t, tMin), tMax)
	return vec.Dist(q, l.At(t))
}

// FuzzArenaNoDismissal is the property the rounded filter rests on:
// whatever the magnitude of the data — 1e-150 to 1e75, far outside
// float32's own range, or spread over six decades inside one arena —
// a search of the arena at ε plus the rounding bound returns every point
// a float64 brute force puts within ε, for lines through and off the
// origin, for segments, and with ε placed exactly on a point's distance
// and on the floats either side; and the best-first stream emits every
// point at a bound no more than the rounding bound above its true
// distance.
func FuzzArenaNoDismissal(f *testing.F) {
	f.Add(int64(1), uint16(300), int16(0), false, true, uint8(0))
	f.Add(int64(2), uint16(900), int16(75), false, false, uint8(1))
	f.Add(int64(3), uint16(500), int16(-150), true, true, uint8(2))
	f.Add(int64(4), uint16(40), int16(38), true, false, uint8(3))
	f.Add(int64(5), uint16(7), int16(-45), false, true, uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, n16 uint16, exp10 int16, mixed, origin bool, at uint8) {
		const dim = 6
		n := 1 + int(n16)%1200
		if exp10 < -150 || exp10 > 75 {
			t.Skip("magnitude outside the tested range")
		}
		mag := math.Pow(10, float64(exp10))
		rng := rand.New(rand.NewSource(seed))
		points := make([]vec.Vector, n)
		ids, cols := make([]int64, n), make([]float64, n*dim)
		var maxAbs float64
		for i := range points {
			scale := mag
			if mixed {
				scale *= math.Pow(10, -6*rng.Float64())
			}
			p := make(vec.Vector, dim)
			for j := range p {
				p[j] = scale * rng.NormFloat64()
				cols[j*n+i] = p[j]
				maxAbs = max(maxAbs, math.Abs(p[j]))
			}
			points[i], ids[i] = p, int64(i)
		}
		cfg := Config{Dim: dim, MaxEntries: 8, MinEntries: 3, ReinsertCount: 2, Split: SplitRStar}
		arena, err := BulkLoadFlat(cfg, ids, cols, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := arena.Validate(); err != nil {
			t.Fatal(err)
		}
		bound := roundingBound(maxAbs, dim)

		l := vec.Line{P: make(vec.Vector, dim), D: make(vec.Vector, dim)}
		for j := 0; j < dim; j++ {
			if !origin {
				l.P[j] = mag * rng.NormFloat64()
			}
			l.D[j] = mag * rng.NormFloat64()
		}
		tMin := rng.Float64()*2 - 1.5
		tMax := tMin + rng.Float64()*2
		lineD, segD := make([]float64, n), make([]float64, n)
		for i, p := range points {
			lineD[i], _ = vec.PLD(p, l)
			segD[i] = segDist(p, l, tMin, tMax)
		}

		// ε on the distance of a point of the requested rank, and on the
		// floats either side of it.
		pivot := int(at) * (n - 1) / 255
		ctx := context.Background()
		for _, side := range []float64{math.Inf(-1), 0, math.Inf(1)} {
			for _, c := range []struct {
				what string
				d    []float64
				run  func(eps float64) ([]int64, error)
			}{
				{"line", lineD, func(eps float64) ([]int64, error) {
					return arena.LineSearchIDs(ctx, l, eps, geom.EnteringExiting, nil, nil)
				}},
				{"segment", segD, func(eps float64) ([]int64, error) {
					return arena.SegmentSearchIDs(ctx, l, tMin, tMax, eps, geom.BoundingSpheres, nil, nil)
				}},
			} {
				eps := c.d[pivot]
				if side != 0 {
					eps = math.Nextafter(eps, side)
				}
				got, err := c.run(eps + bound)
				if err != nil {
					t.Fatal(err)
				}
				found := make([]bool, n)
				for _, id := range got {
					found[id] = true
				}
				for i, d := range c.d {
					if d <= eps && !found[i] {
						t.Fatalf("%s search, n=%d magnitude 1e%d mixed=%v origin=%v: point %d at distance %g dismissed at eps %g + bound %g",
							c.what, n, exp10, mixed, origin, i, d, eps, bound)
					}
				}
			}
		}

		streamed := 0
		prev := math.Inf(-1)
		arena.NearestToLineFunc(l, nil, func(it ItemDist) bool {
			if it.Dist < prev {
				t.Fatalf("stream went from %g back to %g", prev, it.Dist)
			}
			if d := lineD[it.Item.ID]; it.Dist > d+bound {
				t.Fatalf("stream, n=%d magnitude 1e%d mixed=%v origin=%v: point %d emitted at bound %g, true distance %g + bound %g",
					n, exp10, mixed, origin, it.Item.ID, it.Dist, d, bound)
			}
			prev = it.Dist
			streamed++
			return true
		})
		if streamed != n {
			t.Fatalf("stream emitted %d of %d points", streamed, n)
		}
	})
}

// TestValidateContainment corrupts one plane value of a valid arena the
// way a rounding bug or a flipped bit would — an internal entry's bound
// moved inside its child's extent — and requires Validate to name the
// node; and a non-finite plane value to be rejected wherever it sits.
func TestValidateContainment(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	cfg := Config{Dim: 3, MaxEntries: 5, MinEntries: 2, Split: SplitRStar}
	f := buildPointTree(t, rng, cfg, 200)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	// The tightest lower bound of the root's first entry: some entry
	// of the child attains it, so any move inward excludes that entry.
	pl := f.nodePlanes(0)
	row := pl.LRow(1)
	saved := row[0]
	row[0] = math.Nextafter32(saved, float32(math.Inf(1)))
	err := f.Validate()
	if err == nil {
		t.Fatal("a lower bound moved one float32 inward passed Validate")
	}
	t.Log(err)
	row[0] = float32(math.Inf(-1))
	if err := f.Validate(); err == nil {
		t.Fatal("an infinite bound passed Validate")
	}
	row[0] = saved
	leaf := f.planes[len(f.planes)-1:]
	savedLeaf := leaf[0]
	leaf[0] = float32(math.Inf(1))
	if err := f.Validate(); err == nil {
		t.Fatal("an infinite leaf value passed Validate")
	}
	leaf[0] = savedLeaf
	if err := f.Validate(); err != nil {
		t.Fatalf("restored arena: %v", err)
	}
}
