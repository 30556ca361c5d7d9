package vec

import "math"

// SETransform applies the Shift-Eliminated Transformation of
// Definition 2:
//
//	T_se(p) = p − ((p·N)/‖N‖²)·N
//
// i.e. it subtracts the component of p along the shifting vector N,
// which equals subtracting the mean of p from every element.  The image
// lies on the SE-plane, the (n−1)-dimensional subspace of mean-zero
// vectors.
func SETransform(p Vector) Vector {
	m := Mean(p)
	w := make(Vector, len(p))
	for i, x := range p {
		w[i] = x - m
	}
	return w
}

// SETransformInPlace is SETransform writing the result into dst, which
// must have the same length as p.  dst and p may alias.
func SETransformInPlace(dst, p Vector) {
	assertSameDim(dst, p)
	m := Mean(p)
	for i, x := range p {
		dst[i] = x - m
	}
}

// SELine returns Line_sa,T_se(u), the image of the scaling line of u
// under the SE-Transformation: the line {t·T_se(u)} through the origin
// of the SE-plane (§5.1, property 3).
func SELine(u Vector) Line {
	return Line{P: make(Vector, len(u)), D: SETransform(u)}
}

// Match is the outcome of comparing a query u against a candidate v
// under the scale-shift similarity of Definition 1.
type Match struct {
	// Dist is the minimum achievable D₂(F_{a,b}(u), v) over all real
	// a, b — by Theorem 1 this equals LLD(Line_sa,u, Line_sh,v).
	Dist float64
	// Scale is the optimal scale factor a (§5.2).
	Scale float64
	// Shift is the optimal shift offset b (§5.2).
	Shift float64
	// Degenerate reports that T_se(u) = 0 (u is a constant sequence), in
	// which case every scale factor is optimal and Scale is reported
	// as 0.
	Degenerate bool
}

// MinDist computes the scale-shift match of u against v using the
// closed forms of §5.2:
//
//	a = (T_se(u)·T_se(v)) / ‖T_se(u)‖²
//	b = ((v − a·u)·N) / ‖N‖²
//
// and Dist = ‖F_{a,b}(u) − v‖ = ‖a·T_se(u) − T_se(v)‖ (Theorem 2).
//
// If u is a constant sequence, its SE-line degenerates to the origin:
// every a achieves the same distance ‖T_se(v)‖ and the result reports
// Scale = 0, Shift = mean(v), Degenerate = true.
func MinDist(u, v Vector) Match {
	assertSameDim(u, v)
	n := float64(len(u))
	mu, mv := Mean(u), Mean(v)
	// Work with the SE images without allocating: T_se(x)ᵢ = xᵢ − mean.
	var uu, uv, vv float64
	for i := range u {
		su := u[i] - mu
		sv := v[i] - mv
		uu += su * su
		uv += su * sv
		vv += sv * sv
	}
	if uu == 0 || n == 0 {
		return Match{
			Dist:       math.Sqrt(math.Max(0, vv)),
			Scale:      0,
			Shift:      mv,
			Degenerate: true,
		}
	}
	a := uv / uu
	// ‖a·T_se(u) − T_se(v)‖² = a²·uu − 2a·uv + vv = vv − uv²/uu.
	distSq := vv - uv*uv/uu
	// b = ((v − a·u)·N)/‖N‖² = mean(v) − a·mean(u).
	b := mv - a*mu
	return Match{Dist: math.Sqrt(math.Max(0, distSq)), Scale: a, Shift: b}
}

// MinDistPrepared is MinDist(u, v) with the query side hoisted out: su
// = T_se(u), mu = mean(u) and uu = ‖su‖² are computed once per query
// (SETransform, Mean, NormSq) and reused for every candidate v, leaving
// mean(v) and one fused pass over v per call.  Every floating-point
// operation that involves v happens in MinDist's order on MinDist's
// operands — SETransform yields exactly the u[i] − mu that MinDist
// recomputes, and NormSq accumulates uu exactly as MinDist's loop does
// — so the result is Float64bits-identical to MinDist(u, v).
func MinDistPrepared(su Vector, mu, uu float64, v Vector) Match {
	assertSameDim(su, v)
	mv := Mean(v)
	var uv, vv float64
	for i, s := range su {
		sv := v[i] - mv
		uv += s * sv
		vv += sv * sv
	}
	if uu == 0 || len(v) == 0 {
		return Match{
			Dist:       math.Sqrt(math.Max(0, vv)),
			Scale:      0,
			Shift:      mv,
			Degenerate: true,
		}
	}
	a := uv / uu
	distSq := vv - uv*uv/uu
	b := mv - a*mu
	return Match{Dist: math.Sqrt(math.Max(0, distSq)), Scale: a, Shift: b}
}

// Similar reports whether u ~ε v per Definition 1, using Theorem 1.
func Similar(u, v Vector, epsilon float64) bool {
	return MinDist(u, v).Dist <= epsilon
}

// machEps is the double-precision machine epsilon 2⁻⁵².
const machEps = 0x1p-52

// MinDistWithStats computes the scale-shift match of a query u against
// a candidate window v from precomputed query-side quantities and O(1)
// window statistics, replacing MinDist's three O(n) reductions with a
// single cross-term pass:
//
//	su  = T_se(u)   (the query's SE image, computed once per query)
//	mu  = mean(u),  uu = ‖su‖²
//	sum = Σvᵢ,  sumSq = Σvᵢ²   (from the store's prefix sums)
//
// Then mv = sum/n, vv = ‖T_se(v)‖² = sumSq − n·mv², and because
// Σ(su)ᵢ = 0 the cross term reduces to su·v, so MinDist's closed forms
// apply unchanged.
//
// The window statistics come from differencing long-running prefix
// sums, so the result carries floating-point error proportional to the
// prefix magnitudes rather than the window's.  sumErr and sumSqErr are
// the caller's absolute error bounds on sum and sumSq (see
// store.WindowStats); the second return value bounds |Dist² − exact
// Dist²| so callers can use the fast value as a conservative filter
// and fall back to MinDist only near the decision boundary.
func MinDistWithStats(su Vector, mu, uu float64, v Vector, sum, sumSq, sumErr, sumSqErr float64) (Match, float64) {
	assertSameDim(su, v)
	n := float64(len(v))
	if n == 0 {
		return Match{Degenerate: true}, 0
	}
	mv := sum / n
	vv := sumSq - n*mv*mv
	// |Δvv| ≤ Δ(sumSq) + 2|mv|·Δ(sum) (mean-error propagation) plus the
	// cancellation rounding of the subtraction itself.
	slack := sumSqErr + 2*math.Abs(mv)*sumErr + 4*machEps*(math.Abs(sumSq)+n*mv*mv)
	if vv < 0 {
		vv = 0
	}
	if uu == 0 {
		return Match{
			Dist:       math.Sqrt(vv),
			Scale:      0,
			Shift:      mv,
			Degenerate: true,
		}, slack
	}
	uv := dotUnrolled(su, v)
	// Dot-product rounding: ≤ (n+2)·ε·‖su‖·‖v‖, with ‖v‖² ≤ sumSq
	// widened by its own error.  The identity Σ(su)ᵢ = 0 holds only up
	// to the rounding of su's construction, adding ≤ 4ε·|mv|·Σ|uᵢ| with
	// Σ|uᵢ| ≤ √(n·(uu + n·mu²)) by Cauchy–Schwarz.
	nrmV := math.Sqrt(math.Max(0, sumSq+sumSqErr))
	uvErr := (n+2)*machEps*math.Sqrt(uu)*nrmV +
		4*machEps*math.Abs(mv)*math.Sqrt(n*(uu+n*mu*mu))
	a := uv / uu
	distSq := vv - uv*uv/uu
	slack += (2*math.Abs(uv)*uvErr+uvErr*uvErr)/uu + 4*machEps*(uv*uv)/uu
	slack *= 2 // safety margin on the assembled bound
	if distSq < 0 {
		distSq = 0
	}
	return Match{Dist: math.Sqrt(distSq), Scale: a, Shift: mv - a*mu}, slack
}
