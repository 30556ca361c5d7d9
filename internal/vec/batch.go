package vec

import "math"

// Batched point-to-line kernels over structure-of-arrays point data.
//
// Points are stored dimension-major with a row stride:
// rows[j*stride+k] is coordinate j of point k.  A flat tree leaf packs
// its rows back to back (stride == count); a delta block of the
// segmented index keeps room for more points than a reader may look at
// (stride is the block capacity, count the published prefix), and the
// kernels never touch a slot at or past count.  They compute PLDFast /
// PSegDFast for every point in one sweep, accumulating per point in
// dimension-ascending order — the same addition sequence as the scalar
// functions — so every returned distance is BIT-IDENTICAL to the scalar
// result for the same point.
//
// The kernels are generic over the row element type: a frozen arena
// stores its planes as float32, a delta block keeps exact float64
// features.  Every coordinate is widened to float64 as it is read and the
// arithmetic is float64 throughout, so "the same point" means the widened
// values.

// Coord is the element type of a coordinate row.
type Coord interface{ float32 | float64 }

// PLDFastBatch writes PLDFast(point_k, l) into out[0:count] for count
// points stored dimension-major in rows with the given row stride.
// qpD and qpQp are caller scratch of length >= count.
func PLDFastBatch[T Coord](rows []T, stride, count int, l Line, qpD, qpQp, out []float64) {
	dd := accumBatch(rows, stride, count, l, qpD, qpQp)
	if dd == 0 {
		for k := 0; k < count; k++ {
			out[k] = math.Sqrt(qpQp[k])
		}
		return
	}
	for k := 0; k < count; k++ {
		// The builtin max is math.Max on every input, ±0 and NaN
		// included, without its call and branches.
		out[k] = math.Sqrt(max(0, qpQp[k]-qpD[k]*qpD[k]/dd))
	}
}

// PSegDFastBatch writes PSegDFast(point_k, l, tMin, tMax) into
// out[0:count] — the segment-restricted form of PLDFastBatch.
func PSegDFastBatch[T Coord](rows []T, stride, count int, l Line, tMin, tMax float64, qpD, qpQp, out []float64) {
	dd := accumBatch(rows, stride, count, l, qpD, qpQp)
	if dd == 0 {
		for k := 0; k < count; k++ {
			out[k] = math.Sqrt(qpQp[k])
		}
		return
	}
	for k := 0; k < count; k++ {
		t := qpD[k] / dd
		if t < tMin {
			t = tMin
		} else if t > tMax {
			t = tMax
		}
		s := qpQp[k] - 2*t*qpD[k] + t*t*dd
		if s < 0 {
			s = 0
		}
		out[k] = math.Sqrt(s)
	}
}

// accumBatch fills the per-point accumulators qpD[k] = Σⱼ(qₖⱼ−Pⱼ)·Dⱼ
// and qpQp[k] = Σⱼ(qₖⱼ−Pⱼ)² in dimension-ascending order, and returns
// dd = Σⱼ Dⱼ² accumulated the same way.  It takes the points four at a
// time and runs the dimensions inside, so each point's two sums stay in
// registers across the dimensions and are stored once; the blocking is
// across points, never across dimensions, so each point's accumulation
// order is untouched.
func accumBatch[T Coord](rows []T, stride, count int, l Line, qpD, qpQp []float64) float64 {
	dim := len(l.P)
	p, d := l.P, l.D[:dim]
	var dd float64
	for _, x := range d {
		dd += x * x
	}
	k := 0
	for ; k+4 <= count; k += 4 {
		var d0, d1, d2, d3, q0, q1, q2, q3 float64
		for j := range p {
			row := rows[j*stride+k : j*stride+k+4]
			pj, dj := p[j], d[j]
			qp0 := float64(row[0]) - pj
			qp1 := float64(row[1]) - pj
			qp2 := float64(row[2]) - pj
			qp3 := float64(row[3]) - pj
			d0 += qp0 * dj
			d1 += qp1 * dj
			d2 += qp2 * dj
			d3 += qp3 * dj
			q0 += qp0 * qp0
			q1 += qp1 * qp1
			q2 += qp2 * qp2
			q3 += qp3 * qp3
		}
		qpD[k], qpD[k+1], qpD[k+2], qpD[k+3] = d0, d1, d2, d3
		qpQp[k], qpQp[k+1], qpQp[k+2], qpQp[k+3] = q0, q1, q2, q3
	}
	for ; k < count; k++ {
		var dk, qk float64
		for j := range p {
			qp := float64(rows[j*stride+k]) - p[j]
			dk += qp * d[j]
			qk += qp * qp
		}
		qpD[k], qpQp[k] = dk, qk
	}
	return dd
}

// dotUnrolled is Dot with eight independent accumulators: a
// floating-point add takes about four cycles and issues twice a cycle,
// so eight chains keep the adders busy where one (or four) would wait
// on the previous sum.  The summation order differs from Dot, so the
// result may differ by normal floating-point rounding — each
// accumulator performs n/8 sequential additions plus three combining
// additions, so the rounding error stays within the (n+2)·ε·‖u‖·‖v‖
// bound Prepared.Certify assumes for its certified slack.
func dotUnrolled(u, v Vector) float64 {
	assertSameDim(u, v)
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	for len(u) >= 8 && len(v) >= 8 {
		s0 += u[0] * v[0]
		s1 += u[1] * v[1]
		s2 += u[2] * v[2]
		s3 += u[3] * v[3]
		s4 += u[4] * v[4]
		s5 += u[5] * v[5]
		s6 += u[6] * v[6]
		s7 += u[7] * v[7]
		u, v = u[8:], v[8:]
	}
	for i, x := range u {
		s0 += x * v[i]
	}
	return ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
}
