package geom

import (
	"math"
	"math/rand"
	"testing"

	"scaleshift/internal/vec"
)

// packPlanes lays rects out dimension-major the way a flat tree node
// stores them: dim rows of lows, then dim rows of highs, each count
// long.
func packPlanes(rects []Rect, dim int) NodePlanes {
	count := len(rects)
	data := make([]float64, 2*dim*count)
	for k, r := range rects {
		for j := 0; j < dim; j++ {
			data[j*count+k] = r.L[j]
			data[(dim+j)*count+k] = r.H[j]
		}
	}
	return NodePlanes{Data: data, Count: count, Dim: dim}
}

// narrowPlanes returns pl as a frozen arena keeps it — float32 values,
// and for a node of points the L rows alone — and rounds rects in place
// to what those values widen back to, so the scalar functions see the
// rectangles the kernels do.
func narrowPlanes(pl NodePlanes, rects []Rect, points bool) Planes[float32] {
	data := pl.Data
	if points {
		data = data[:pl.Dim*pl.Count]
	}
	out := Planes[float32]{Data: make([]float32, len(data)), Count: pl.Count, Dim: pl.Dim}
	for i, x := range data {
		out.Data[i] = float32(x)
	}
	for _, r := range rects {
		for j := range r.L {
			r.L[j], r.H[j] = float64(float32(r.L[j])), float64(float32(r.H[j]))
		}
	}
	return out
}

// checkPenetrateParity holds the batched kernel over pl to the scalar
// primitive over rects, verdict for verdict and stat for stat, under
// both strategies.
func checkPenetrateParity[T vec.Coord](t *testing.T, pl Planes[T], rects []Rect, eps float64, l vec.Line, sc *BatchScratch) {
	t.Helper()
	for _, strat := range []Strategy{EnteringExiting, BoundingSpheres} {
		var bs, ss CheckStats
		verdict := PenetratesEnlargedBatch(strat, pl, eps, l, sc, &bs)
		for k, r := range rects {
			if want := PenetratesEnlarged(strat, r, eps, l, &ss); verdict[k] != want {
				t.Fatalf("%T dim=%d count=%d strat=%v k=%d: batch=%v scalar=%v", pl.Data, pl.Dim, pl.Count, strat, k, verdict[k], want)
			}
		}
		if bs != ss {
			t.Fatalf("%T dim=%d count=%d strat=%v: stats %+v vs %+v", pl.Data, pl.Dim, pl.Count, strat, bs, ss)
		}
	}
}

func randRectSlice(rng *rand.Rand, dim, count int) []Rect {
	rects := make([]Rect, count)
	for k := range rects {
		l := make(vec.Vector, dim)
		h := make(vec.Vector, dim)
		for j := range l {
			l[j] = (rng.Float64()*2 - 1) * 10
			h[j] = l[j] + rng.Float64()*3
		}
		rects[k] = Rect{L: l, H: h}
	}
	return rects
}

func randLineDim(rng *rand.Rand, dim int) vec.Line {
	p := make(vec.Vector, dim)
	d := make(vec.Vector, dim)
	for j := 0; j < dim; j++ {
		p[j] = (rng.Float64()*2 - 1) * 5
		d[j] = rng.Float64()*2 - 1
	}
	return vec.Line{P: p, D: d}
}

// TestPenetrateBatchParity checks that the batched slab/sphere kernels
// agree with the scalar primitives verdict-for-verdict and
// stat-for-stat across strategies and counts (hitting both the unrolled
// and remainder loops) — over float64 planes,
// over the float32 planes an arena stores (decided on the values they
// widen to), and over a node of points stored as their L rows alone.
func TestPenetrateBatchParity(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var sc BatchScratch
	for _, dim := range []int{1, 2, 3, 6, 7} {
		for _, count := range []int{1, 2, 3, 4, 5, 8, 9, 20, 33} {
			for trial := 0; trial < 20; trial++ {
				rects := randRectSlice(rng, dim, count)
				pl := packPlanes(rects, dim)
				l := randLineDim(rng, dim)
				eps := rng.Float64() * 2
				checkPenetrateParity(t, pl, rects, eps, l, &sc)
				checkPenetrateParity(t, narrowPlanes(pl, rects, false), rects, eps, l, &sc)
				for _, r := range rects {
					copy(r.H, r.L)
				}
				checkPenetrateParity(t, narrowPlanes(packPlanes(rects, dim), rects, true), rects, eps, l, &sc)
			}
		}
	}
}

func TestIntersectsContainsBatchParity(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, dim := range []int{1, 2, 5} {
		for _, count := range []int{1, 4, 7, 25} {
			for trial := 0; trial < 30; trial++ {
				rects := randRectSlice(rng, dim, count)
				pl := packPlanes(rects, dim)
				q := randRectSlice(rng, dim, 1)[0]
				verdict := make([]bool, count)
				IntersectsBatch(pl, q, verdict)
				for k, r := range rects {
					if verdict[k] != q.Intersects(r) {
						t.Fatalf("IntersectsBatch dim=%d k=%d: %v vs %v", dim, k, verdict[k], q.Intersects(r))
					}
				}
				IntersectsBatch(narrowPlanes(pl, rects, false), q, verdict)
				for k, r := range rects {
					if verdict[k] != q.Intersects(r) {
						t.Fatalf("IntersectsBatch over float32 planes dim=%d k=%d: %v vs %v", dim, k, verdict[k], q.Intersects(r))
					}
				}
				// ContainsBatch reads point rows: degenerate rects.
				pts := make([]Rect, count)
				for k := range pts {
					p := make(vec.Vector, dim)
					for j := range p {
						p[j] = (rng.Float64()*2 - 1) * 10
					}
					pts[k] = RectFromPoint(p)
				}
				ppl := packPlanes(pts, dim)
				ContainsBatch(ppl.Data, count, q, verdict)
				for k := range pts {
					if verdict[k] != q.Contains(pts[k].L) {
						t.Fatalf("ContainsBatch dim=%d k=%d", dim, k)
					}
				}
				ContainsBatch(narrowPlanes(ppl, pts, true).Data, count, q, verdict)
				for k := range pts {
					if verdict[k] != q.Contains(pts[k].L) {
						t.Fatalf("ContainsBatch over float32 rows dim=%d k=%d", dim, k)
					}
				}
			}
		}
	}
}

// FuzzPenetrateBatchParity drives the batch kernels with adversarial
// coordinates (including NaN and infinities via float reinterpretation
// of fuzz bytes) and asserts verdict parity with the scalar path.
func FuzzPenetrateBatchParity(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(3), 0.5)
	f.Add(int64(99), uint8(6), uint8(8), 0.0)
	f.Fuzz(func(t *testing.T, seed int64, dim8, count8 uint8, eps float64) {
		dim := int(dim8%8) + 1
		count := int(count8%16) + 1
		if math.IsNaN(eps) || math.IsInf(eps, 0) || eps < 0 {
			eps = 1
		}
		rng := rand.New(rand.NewSource(seed))
		rects := randRectSlice(rng, dim, count)
		pl := packPlanes(rects, dim)
		l := randLineDim(rng, dim)
		var sc BatchScratch
		for _, strat := range []Strategy{EnteringExiting, BoundingSpheres} {
			verdict := PenetratesEnlargedBatch(strat, pl, eps, l, &sc, nil)
			for k, r := range rects {
				if verdict[k] != PenetratesEnlarged(strat, r, eps, l, nil) {
					t.Fatalf("parity break: strat=%v k=%d", strat, k)
				}
			}
		}
	})
}
