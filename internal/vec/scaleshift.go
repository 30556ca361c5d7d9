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

// Prepared is the query side of the scale-shift match, reduced once per
// query and shared by every candidate check: the SE image SU = T_se(u),
// the query mean Mu and UU = ‖SU‖² — exactly MinDistPrepared's
// arguments — plus the constants the prefix-sum pass needs for its
// error bound.  It is read-only after Prepare.
type Prepared struct {
	SU     Vector
	Mu, UU float64
	// rootUU = √UU, invUU = 1/UU and rootN = √n are hoisted out of the
	// per-window pass; sumSU bounds |Σ SUᵢ|, which is zero in exact
	// arithmetic and a few ulps of the query's values after SETransform's
	// rounding.
	rootUU, invUU, rootN, sumSU float64
}

// Prepare reduces the query u for MinDist and Certify.
func Prepare(u Vector) *Prepared {
	su := SETransform(u)
	uu := NormSq(su)
	n := float64(len(u))
	var s float64
	for _, x := range su {
		s += x
	}
	rootUU, rootN := math.Sqrt(uu), math.Sqrt(n)
	return &Prepared{
		SU: su, Mu: Mean(u), UU: uu,
		rootUU: rootUU, invUU: 1 / uu, rootN: rootN,
		// The computed sum is within n·ε·Σ|SUᵢ| ≤ n·ε·√(n·UU) of the real
		// one (Cauchy–Schwarz).
		sumSU: math.Abs(s) + n*machEps*rootN*rootUU,
	}
}

// MinDist is the exact pass: MinDistPrepared on the prepared query,
// Float64bits-identical to MinDist(u, v).
func (p *Prepared) MinDist(v Vector) Match { return MinDistPrepared(p.SU, p.Mu, p.UU, v) }

// Certificate is the prefix-sum estimate of one window's match with a
// certified error on each value: MinDistPrepared on the same query and
// window returns a squared distance (the clamped value under its final
// square root), a scale and a shift within DistSqErr, ScaleErr and
// ShiftErr of DistSq, Scale and Shift — in both directions, so a caller
// may dismiss a window on DistSq − DistSqErr and accept one on
// DistSq + DistSqErr without running the exact pass.
type Certificate struct {
	DistSq, Scale, Shift          float64
	DistSqErr, ScaleErr, ShiftErr float64
}

// Certify evaluates the scale-shift match of the prepared query against
// a candidate window v from O(1) window statistics, replacing
// MinDist's three O(n) reductions with a single cross-term pass:
//
//	sum = Σvᵢ,  sumSq = Σvᵢ²   (from the store's prefix sums)
//
// Then mv = sum/n, vv = ‖T_se(v)‖² = sumSq − n·mv², and because
// Σ(SU)ᵢ = 0 the cross term reduces to SU·v, so MinDist's closed forms
// apply unchanged.
//
// The window statistics come from differencing long-running prefix
// sums, so the result carries floating-point error proportional to the
// prefix magnitudes rather than the window's.  sumErr and sumSqErr are
// the caller's absolute error bounds on sum and sumSq (see
// store.WindowStats).  The returned errors bound the difference to
// what MinDistPrepared computes, not to real arithmetic: each adds the
// exact pass's own rounding to the fast pass's, both measured against
// the real-arithmetic value of the same closed form.
//
// Domain: finite inputs, n ≤ 2²⁰, and squares that neither overflow nor
// lose their relative precision to underflow (UU zero or normal).  An
// overflow — or an empty window — makes an error NaN or +Inf; callers
// compare so that either reads as "undecided".  Second-order terms (products of two roundings,
// at most n·ε times a first-order term) are covered by the final
// doubling rather than spelled out.
func (p *Prepared) Certify(v Vector, sum, sumSq, sumErr, sumSqErr float64) Certificate {
	assertSameDim(p.SU, v)
	n := float64(len(v))
	mv, mvErr, vv, vvErr, nrmV := p.windowNorm(n, sum, sumSq, sumErr, sumSqErr)
	if p.UU == 0 {
		return Certificate{
			DistSq: vv, Shift: mv,
			DistSqErr: 2 * vvErr, ShiftErr: 2 * mvErr,
		}
	}
	uv := dotUnrolled(p.SU, v)
	// Both passes target R = Σ SUᵢ·(vᵢ − mean v).  The fast pass sums
	// SUᵢ·vᵢ — dot-product rounding ≤ (n+2)·ε·‖SU‖·‖v‖ — and leaves out
	// mean·ΣSUᵢ; the exact pass sums SUᵢ·(vᵢ − mv) with one more rounding
	// per term, ≤ (n+4)·ε·‖SU‖·‖T_se v‖ ≤ (n+4)·ε·‖SU‖·‖v‖.
	uvErr := (2*n+6)*machEps*p.rootUU*nrmV + (math.Abs(mv)+mvErr)*p.sumSU
	// Multiplying by the hoisted 1/UU costs the fast values one rounding
	// more than the exact pass's divisions; the ε terms below have room.
	a := uv * p.invUU
	q := uv * a
	// |Δ(uv²/UU)| from Δuv, plus the roundings of the quotient (two in the
	// exact pass, three here) and one of the subtraction on each side
	// (vv's share sits in vvErr's n+4).
	distSqErr := vvErr + (2*math.Abs(uv)*uvErr+uvErr*uvErr)*p.invUU + 4*machEps*q
	aErr := uvErr*p.invUU + 2*machEps*math.Abs(a)
	amu := a * p.Mu
	bErr := mvErr + math.Abs(p.Mu)*aErr + 2*machEps*(math.Abs(mv)+math.Abs(amu))
	distSq := vv - q
	if distSq < 0 {
		distSq = 0
	}
	return Certificate{
		DistSq: distSq, Scale: a, Shift: mv - amu,
		DistSqErr: 2 * distSqErr, ScaleErr: 2 * aErr, ShiftErr: 2 * bErr,
	}
}

// windowNorm is the part of Certify that reads no window value: from
// the O(1) statistics of a window of n values it returns the window's
// mean mv and vv = ‖T_se(v)‖², each with the bound on its distance from
// what the exact pass computes for the same window, and nrmV ≥ ‖v‖.
func (p *Prepared) windowNorm(n, sum, sumSq, sumErr, sumSqErr float64) (mv, mvErr, vv, vvErr, nrmV float64) {
	mv = sum / n
	nmm := n * mv * mv
	vv = sumSq - nmm
	if vv < 0 {
		vv = 0
	}
	// Fast side: |Δvv| ≤ Δ(sumSq) + 2|mv|·Δ(sum) (mean-error propagation)
	// plus the rounding of n·mv² and of the cancelling subtraction.
	vvErr = sumSqErr + 2*math.Abs(mv)*sumErr + 4*machEps*(math.Abs(sumSq)+nmm)
	// Exact side: n squares of rounded differences and their sum, each
	// within ε/2, on a total of at most vv + vvErr; the n·Δ(mean)² its
	// own mean's rounding adds is second order.
	vvErr += (n + 4) * machEps * (vv + vvErr)
	// ‖v‖ ≤ nrmV (NaN, hence undecided, should the differenced Σv² come
	// out negative beyond its error); the two means differ by the prefix
	// sums' error, the division's rounding and the exact pass's plain
	// summation.
	nrmV = math.Sqrt(sumSq + sumSqErr)
	mvErr = sumErr/n + machEps*(p.rootN*nrmV+math.Abs(mv))
	return mv, mvErr, vv, vvErr, nrmV
}

// NormBound bounds, from the statistics of a window of n values alone,
// the squared distance the exact pass reports for it against ANY query:
// MinDistPrepared computes Dist² = vv − uv·uv/UU with uv·uv/UU ≥ 0, and
// a correctly rounded subtraction of a non-negative term cannot exceed
// vv — the a = 0 member of the minimum over scale factors, the window's
// own SE-norm.  The value is Certify's DistSq + DistSqErr for a constant
// query: the fast vv plus its certified error, doubled like the others.
// A window whose bound is within ε² matches every query the cost bounds
// let through, without its values being read.
func (p *Prepared) NormBound(n int, sum, sumSq, sumErr, sumSqErr float64) float64 {
	_, _, vv, vvErr, _ := p.windowNorm(float64(n), sum, sumSq, sumErr, sumSqErr)
	return vv + 2*vvErr
}
