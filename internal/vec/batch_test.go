package vec

import (
	"math"
	"math/rand"
	"testing"
)

// packRows lays points out dimension-major with the given row stride:
// rows[j*stride+k] is coordinate j of point k.  stride == len(points)
// is the flat leaf layout; a larger stride is a partly published delta
// block, whose slots past the last point hold NaN so that a kernel
// reading one would show in its output.
func packRows(points []Vector, dim, stride int) []float64 {
	rows := make([]float64, dim*stride)
	for i := range rows {
		rows[i] = math.NaN()
	}
	for k, p := range points {
		for j := 0; j < dim; j++ {
			rows[j*stride+k] = p[j]
		}
	}
	return rows
}

// narrowRows returns rows as a frozen arena keeps them — float32 — and
// rounds points in place to the values those rows widen back to, so the
// scalar functions see the same points the kernel does.
func narrowRows(rows []float64, points []Vector) []float32 {
	out := make([]float32, len(rows))
	for i, x := range rows {
		out[i] = float32(x)
	}
	for _, p := range points {
		for j, x := range p {
			p[j] = float64(float32(x))
		}
	}
	return out
}

// checkBatchBitIdentical runs both kernels over rows and requires the
// scalar functions' exact float64 for every point.
func checkBatchBitIdentical[T Coord](t *testing.T, rows []T, points []Vector, stride int, l Line, tMin, tMax float64) {
	t.Helper()
	count := len(points)
	qpD := make([]float64, count)
	qpQp := make([]float64, count)
	out := make([]float64, count)
	PLDFastBatch(rows, stride, count, l, qpD, qpQp, out)
	for k, p := range points {
		want := PLDFast(p, l)
		if math.Float64bits(out[k]) != math.Float64bits(want) {
			t.Fatalf("PLDFastBatch[%T] dim=%d count=%d k=%d: %x != %x (%v vs %v)",
				rows, len(l.P), count, k, math.Float64bits(out[k]), math.Float64bits(want), out[k], want)
		}
	}
	PSegDFastBatch(rows, stride, count, l, tMin, tMax, qpD, qpQp, out)
	for k, p := range points {
		want := PSegDFast(p, l, tMin, tMax)
		if math.Float64bits(out[k]) != math.Float64bits(want) {
			t.Fatalf("PSegDFastBatch[%T] dim=%d count=%d k=%d: %v vs %v", rows, len(l.P), count, k, out[k], want)
		}
	}
}

// TestPLDFastBatchBitIdentical asserts the batched kernel returns the
// EXACT float64 the scalar PLDFast returns for every point — the
// property the flat tree's bit-identical-results contract rests on —
// over float64 rows (a delta block) and over float32 rows (an arena
// leaf), where the points are the values the rows widen to.
func TestPLDFastBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, dim := range []int{1, 2, 3, 6, 9} {
		for _, count := range []int{1, 2, 4, 5, 8, 11, 32} {
			for trial := 0; trial < 50; trial++ {
				points := make([]Vector, count)
				for k := range points {
					points[k] = make(Vector, dim)
					for j := range points[k] {
						points[k][j] = (rng.Float64()*2 - 1) * 100
					}
				}
				l := Line{P: make(Vector, dim), D: make(Vector, dim)}
				for j := 0; j < dim; j++ {
					l.P[j] = (rng.Float64()*2 - 1) * 10
					l.D[j] = rng.Float64()*2 - 1
				}
				if trial%7 == 0 {
					l.D = make(Vector, dim) // degenerate line: dd == 0
				}
				// Alternate the packed leaf layout with a strided block.
				stride := count + (trial%3)*5
				rows := packRows(points, dim, stride)
				tMin, tMax := rng.Float64()*2-1, rng.Float64()*3
				checkBatchBitIdentical(t, rows, points, stride, l, tMin, tMax)
				checkBatchBitIdentical(t, narrowRows(rows, points), points, stride, l, tMin, tMax)
			}
		}
	}
}

// FuzzPLDBatchParity drives the batch kernel with fuzzer-chosen
// coordinates and checks bit-identity against the scalar path.
func FuzzPLDBatchParity(f *testing.F) {
	f.Add(int64(7), uint8(3), uint8(5), 1.5, -0.5)
	f.Fuzz(func(t *testing.T, seed int64, dim8, count8 uint8, a, b float64) {
		dim := int(dim8%8) + 1
		count := int(count8%12) + 1
		rng := rand.New(rand.NewSource(seed))
		points := make([]Vector, count)
		for k := range points {
			points[k] = make(Vector, dim)
			for j := range points[k] {
				points[k][j] = rng.NormFloat64() * 50
			}
		}
		if !math.IsNaN(a) && !math.IsInf(a, 0) {
			points[0][0] = a
		}
		l := Line{P: make(Vector, dim), D: make(Vector, dim)}
		for j := 0; j < dim; j++ {
			l.P[j] = rng.NormFloat64()
			l.D[j] = rng.NormFloat64()
		}
		if !math.IsNaN(b) && !math.IsInf(b, 0) {
			l.D[0] = b
		}
		stride := count + int(dim8/8)%4
		rows := packRows(points, dim, stride)
		qpD := make([]float64, count)
		qpQp := make([]float64, count)
		out := make([]float64, count)
		PLDFastBatch(rows, stride, count, l, qpD, qpQp, out)
		for k, p := range points {
			want := PLDFast(p, l)
			if math.Float64bits(out[k]) != math.Float64bits(want) {
				t.Fatalf("parity break at k=%d: %v vs %v", k, out[k], want)
			}
		}
	})
}

// TestDotUnrolledAccuracy bounds dotUnrolled's divergence from the
// sequential Dot by the rounding-error budget Prepared.Certify
// certifies its slack against.
func TestDotUnrolledAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{1, 3, 4, 7, 16, 129} {
		for trial := 0; trial < 40; trial++ {
			u := make(Vector, n)
			v := make(Vector, n)
			var nu, nv float64
			for i := range u {
				u[i] = rng.NormFloat64()
				v[i] = rng.NormFloat64()
				nu += u[i] * u[i]
				nv += v[i] * v[i]
			}
			got := dotUnrolled(u, v)
			want := Dot(u, v)
			bound := float64(n+2) * 2.3e-16 * math.Sqrt(nu) * math.Sqrt(nv)
			if math.Abs(got-want) > bound {
				t.Fatalf("n=%d: |%v - %v| > %v", n, got, want, bound)
			}
		}
	}
}
