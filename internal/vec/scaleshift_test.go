package vec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSETransformKnown(t *testing.T) {
	tests := []struct {
		in, want Vector
	}{
		{Vector{1, 2, 3}, Vector{-1, 0, 1}},
		{Vector{5, 5, 5}, Vector{0, 0, 0}},
		{Vector{0, 0}, Vector{0, 0}},
		{Vector{10}, Vector{0}},
	}
	for _, tc := range tests {
		if got := SETransform(tc.in); !vecEq(got, tc.want) {
			t.Errorf("SETransform(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestSETransformProperties(t *testing.T) {
	// The four properties of §5.1.
	r := rand.New(rand.NewSource(10))
	for i := 0; i < 300; i++ {
		n := 1 + r.Intn(16)
		u, v := randVec(r, n), randVec(r, n)
		c := r.Float64()*4 - 2

		// Property 1: linearity.
		if !vecEq(SETransform(Add(u, v)), Add(SETransform(u), SETransform(v))) {
			t.Fatal("T_se not additive")
		}
		if !vecEq(SETransform(Scale(c, u)), Scale(c, SETransform(u))) {
			t.Fatal("T_se not homogeneous")
		}
		// Property 2: every point of the shifting line maps to T_se(v).
		b := r.Float64()*40 - 20
		if !vecEq(SETransform(Shift(v, b)), SETransform(v)) {
			t.Fatal("shifting line does not collapse to a point")
		}
		// Property 4 (mean-zero plane): T_se(u) ⊥ N.
		if !almostEq(Dot(SETransform(u), Ones(n)), 0, 1e-7) {
			t.Fatal("image not orthogonal to N")
		}
		// Idempotence (projection).
		if !vecEq(SETransform(SETransform(u)), SETransform(u)) {
			t.Fatal("T_se not idempotent")
		}
	}
}

func TestSETransformInPlaceAliases(t *testing.T) {
	u := Vector{1, 2, 3}
	SETransformInPlace(u, u)
	if !vecEq(u, Vector{-1, 0, 1}) {
		t.Errorf("in-place aliased = %v", u)
	}
	dst := make(Vector, 3)
	src := Vector{4, 5, 6}
	SETransformInPlace(dst, src)
	if !vecEq(dst, Vector{-1, 0, 1}) || !vecEq(src, Vector{4, 5, 6}) {
		t.Errorf("in-place separate: dst=%v src=%v", dst, src)
	}
}

func TestSELine(t *testing.T) {
	u := Vector{1, 2, 3}
	l := SELine(u)
	if !vecEq(l.P, Vector{0, 0, 0}) {
		t.Errorf("SE-line base = %v", l.P)
	}
	if !vecEq(l.D, Vector{-1, 0, 1}) {
		t.Errorf("SE-line direction = %v", l.D)
	}
}

func TestFigure1Example(t *testing.T) {
	// The worked example of §1: B = 2·A, C = A + 20, C = 0.5·B + 20.
	a := Vector{5, 10, 6, 12, 4}
	b := Vector{10, 20, 12, 24, 8}
	c := Vector{25, 30, 26, 32, 24}

	mAB := MinDist(a, b)
	// Dist is a sqrt of a catastrophically cancelled residual, so allow
	// ~1e-6 of absolute noise on "exactly zero" distances.
	const zeroTol = 1e-6
	if !almostEq(mAB.Dist, 0, zeroTol) || !almostEq(mAB.Scale, 2, tol) || !almostEq(mAB.Shift, 0, tol) {
		t.Errorf("A→B: %+v, want a=2 b=0 dist=0", mAB)
	}
	mAC := MinDist(a, c)
	if !almostEq(mAC.Dist, 0, zeroTol) || !almostEq(mAC.Scale, 1, tol) || !almostEq(mAC.Shift, 20, tol) {
		t.Errorf("A→C: %+v, want a=1 b=20 dist=0", mAC)
	}
	mBC := MinDist(b, c)
	if !almostEq(mBC.Dist, 0, zeroTol) || !almostEq(mBC.Scale, 0.5, tol) || !almostEq(mBC.Shift, 20, tol) {
		t.Errorf("B→C: %+v, want a=0.5 b=20 dist=0", mBC)
	}
	if !Similar(a, b, 0.001) || !Similar(a, c, 0.001) || !Similar(b, c, 0.001) {
		t.Error("figure-1 sequences not reported similar")
	}
}

func TestLemma3(t *testing.T) {
	// ‖F_{a,b}(u) − v‖ = ‖L_sa,u(a) − L_sh,v(−b)‖.
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		n := 1 + r.Intn(12)
		u, v := randVec(r, n), randVec(r, n)
		a := r.Float64()*6 - 3
		b := r.Float64()*20 - 10
		lhs := Dist(Apply(u, a, b), v)
		rhs := Dist(ScalingLine(u).At(a), ShiftingLine(v).At(-b))
		if !almostEq(lhs, rhs, 1e-7) {
			t.Fatalf("Lemma 3 broken: %v vs %v", lhs, rhs)
		}
	}
}

func TestTheorem1(t *testing.T) {
	// MinDist (via §5.2 closed forms) equals LLD of the scaling and
	// shifting lines.
	r := rand.New(rand.NewSource(12))
	for i := 0; i < 300; i++ {
		n := 2 + r.Intn(12)
		u, v := randVec(r, n), randVec(r, n)
		want, _, _ := LLD(ScalingLine(u), ShiftingLine(v))
		got := MinDist(u, v).Dist
		if !almostEq(got, want, 1e-6) {
			t.Fatalf("Theorem 1 broken: MinDist=%v LLD=%v (u=%v v=%v)", got, want, u, v)
		}
	}
}

func TestLemma4(t *testing.T) {
	// PLD(L_sa,u(a), Line_sh,v) = ‖a·T_se(u) − T_se(v)‖.
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 300; i++ {
		n := 2 + r.Intn(12)
		u, v := randVec(r, n), randVec(r, n)
		a := r.Float64()*6 - 3
		lhs, _ := PLD(ScalingLine(u).At(a), ShiftingLine(v))
		rhs := Dist(Scale(a, SETransform(u)), SETransform(v))
		if !almostEq(lhs, rhs, 1e-7) {
			t.Fatalf("Lemma 4 broken: %v vs %v", lhs, rhs)
		}
	}
}

func TestTheorem2(t *testing.T) {
	// u ~ε v iff PLD(T_se(v), SE-line of u) ≤ ε.
	r := rand.New(rand.NewSource(14))
	for i := 0; i < 300; i++ {
		n := 2 + r.Intn(12)
		u, v := randVec(r, n), randVec(r, n)
		pld, _ := PLD(SETransform(v), SELine(u))
		if got := MinDist(u, v).Dist; !almostEq(got, pld, 1e-6) {
			t.Fatalf("Theorem 2 broken: MinDist=%v PLD=%v", got, pld)
		}
	}
}

func TestMinDistIsGlobalMinimum(t *testing.T) {
	// No random (a, b) probe achieves a smaller residual than the §5.2
	// closed forms, and the returned (a, b) attains the reported Dist.
	r := rand.New(rand.NewSource(15))
	for i := 0; i < 300; i++ {
		n := 2 + r.Intn(12)
		u, v := randVec(r, n), randVec(r, n)
		m := MinDist(u, v)
		if !m.Degenerate {
			attained := Dist(Apply(u, m.Scale, m.Shift), v)
			if !almostEq(attained, m.Dist, 1e-5) {
				t.Fatalf("(a,b) does not attain Dist: %v vs %v", attained, m.Dist)
			}
		}
		for j := 0; j < 30; j++ {
			a := r.Float64()*8 - 4
			b := r.Float64()*40 - 20
			if Dist(Apply(u, a, b), v) < m.Dist-1e-8 {
				t.Fatalf("probe (a=%v,b=%v) beats closed form %v", a, b, m.Dist)
			}
		}
	}
}

func TestMinDistDegenerateConstantQuery(t *testing.T) {
	u := Vector{7, 7, 7, 7}
	v := Vector{1, 2, 3, 4}
	m := MinDist(u, v)
	if !m.Degenerate {
		t.Fatal("constant query not flagged degenerate")
	}
	if want := Norm(SETransform(v)); !almostEq(m.Dist, want, tol) {
		t.Errorf("degenerate dist = %v, want %v", m.Dist, want)
	}
	// The reported (a=0, b=mean(v)) must attain the distance.
	if got := Dist(Apply(u, m.Scale, m.Shift), v); !almostEq(got, m.Dist, tol) {
		t.Errorf("degenerate (a,b) attains %v, want %v", got, m.Dist)
	}
}

func TestMinDistSelfSimilarity(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		u := Vector(raw)
		for _, x := range u {
			if x != x || x > 1e6 || x < -1e6 {
				return true // reject non-finite / overflow-prone inputs
			}
		}
		m := MinDist(u, u)
		return m.Dist < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMinDistInvariantUnderTransformOfCandidate(t *testing.T) {
	// Scaling/shifting the candidate keeps distance zero reachable from
	// any query that already matches it.
	r := rand.New(rand.NewSource(16))
	for i := 0; i < 200; i++ {
		n := 2 + r.Intn(12)
		u := randVec(r, n)
		a := r.Float64()*4 + 0.1 // strictly positive, bounded away from 0
		b := r.Float64()*20 - 10
		v := Apply(u, a, b)
		m := MinDist(u, v)
		if !almostEq(m.Dist, 0, 1e-4) {
			t.Fatalf("exact transform not recovered: dist=%v", m.Dist)
		}
		if m.Degenerate {
			continue // constant u: any scale works
		}
		if !almostEq(m.Scale, a, 1e-6) || !almostEq(m.Shift, b, 1e-5) {
			t.Fatalf("recovered (a=%v, b=%v), want (%v, %v)", m.Scale, m.Shift, a, b)
		}
	}
}

func TestSimilarThreshold(t *testing.T) {
	u := Vector{0, 1, 0, -1}
	v := Vector{0, 1, 0, -1 + 0.2} // small perturbation
	d := MinDist(u, v).Dist
	if d <= 0 {
		t.Fatal("perturbed pair should have positive distance")
	}
	if !Similar(u, v, d+1e-12) {
		t.Error("Similar false just above the minimum distance")
	}
	if Similar(u, v, d-1e-6) {
		t.Error("Similar true below the minimum distance (contradicts Corollary 1)")
	}
}

func TestCorollary1NoSmallerEpsilon(t *testing.T) {
	// If LLD = ε then no ε' < ε admits similarity: Similar(u,v,ε') must be
	// false for sampled ε' < MinDist.
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 200; i++ {
		n := 2 + r.Intn(10)
		u, v := randVec(r, n), randVec(r, n)
		d := MinDist(u, v).Dist
		if d < 1e-9 {
			continue
		}
		if Similar(u, v, d*0.999) {
			t.Fatalf("similar below minimum distance %v", d)
		}
		if !Similar(u, v, d*1.001) {
			t.Fatalf("not similar above minimum distance %v", d)
		}
	}
}

func TestMinDistEmptyVectors(t *testing.T) {
	m := MinDist(Vector{}, Vector{})
	if m.Dist != 0 || !m.Degenerate {
		t.Errorf("empty MinDist = %+v", m)
	}
}

func BenchmarkMinDist128(b *testing.B) {
	r := rand.New(rand.NewSource(99))
	u, v := randVec(r, 128), randVec(r, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MinDist(u, v)
	}
}

func BenchmarkLLD128(b *testing.B) {
	r := rand.New(rand.NewSource(100))
	l1 := Line{P: randVec(r, 128), D: randVec(r, 128)}
	l2 := Line{P: randVec(r, 128), D: randVec(r, 128)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = LLD(l1, l2)
	}
}

// statsOf reduces v directly for the Certify tests; the zero error
// bounds model exact statistics.
func statsOf(v Vector) (sum, sumSq float64) {
	for _, x := range v {
		sum += x
		sumSq += x * x
	}
	return sum, sumSq
}

// certifyCovers reports how the exact pass's (Dist², Scale, Shift)
// escape the certificate's error bounds; "" means all three are inside.
func certifyCovers(c Certificate, exact Match) string {
	// Dist² is re-squared from the rounded square root, which moves it by
	// up to two ulps of itself.
	ed := exact.Dist * exact.Dist
	if d := math.Abs(c.DistSq - ed); !(d <= c.DistSqErr+2*machEps*ed) {
		return fmt.Sprintf("Dist² %v vs exact %v: off by %v, certified %v", c.DistSq, ed, d, c.DistSqErr)
	}
	if d := math.Abs(c.Scale - exact.Scale); !(d <= c.ScaleErr) {
		return fmt.Sprintf("Scale %v vs exact %v: off by %v, certified %v", c.Scale, exact.Scale, d, c.ScaleErr)
	}
	if d := math.Abs(c.Shift - exact.Shift); !(d <= c.ShiftErr) {
		return fmt.Sprintf("Shift %v vs exact %v: off by %v, certified %v", c.Shift, exact.Shift, d, c.ShiftErr)
	}
	return ""
}

func TestMinDistWithStatsAgreesWithMinDist(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		n := 2 + r.Intn(64)
		u, v := randVec(r, n), randVec(r, n)
		if i%7 == 0 {
			// Stock-like offsets exercise the cancellation-prone regime.
			for j := range u {
				u[j] += 100
				v[j] += 250
			}
		}
		sum, sumSq := statsOf(v)
		c := Prepare(u).Certify(v, sum, sumSq, 0, 0)
		exact := MinDist(u, v)
		if msg := certifyCovers(c, exact); msg != "" {
			t.Fatalf("n=%d: %s", n, msg)
		}
		// The certificate is tight, not merely valid.
		if c.DistSqErr > 1e-9*(1+c.DistSq) || c.ScaleErr > 1e-9*(1+math.Abs(c.Scale)) || c.ShiftErr > 1e-9*(1+math.Abs(c.Shift)) {
			t.Fatalf("n=%d: loose certificate %+v", n, c)
		}
	}
}

func TestMinDistWithStatsSlackCoversStatErrors(t *testing.T) {
	// Perturb the statistics within their declared error bounds; the
	// certificate must still cover the exact values.
	r := rand.New(rand.NewSource(43))
	for i := 0; i < 300; i++ {
		n := 8 + r.Intn(120)
		u, v := randVec(r, n), randVec(r, n)
		for j := range v {
			v[j] += 500 // large mean: worst case for Σv² cancellation
		}
		sum, sumSq := statsOf(v)
		sumErr := 1e-9 * math.Abs(sum)
		sumSqErr := 1e-9 * sumSq
		pSum := sum + (2*r.Float64()-1)*sumErr
		pSumSq := sumSq + (2*r.Float64()-1)*sumSqErr
		c := Prepare(u).Certify(v, pSum, pSumSq, sumErr, sumSqErr)
		if msg := certifyCovers(c, MinDist(u, v)); msg != "" {
			t.Fatalf("n=%d: %s", n, msg)
		}
	}
}

func TestMinDistWithStatsDegenerate(t *testing.T) {
	u := Vector{3, 3, 3, 3}
	v := Vector{1, 2, 3, 4}
	sum, sumSq := statsOf(v)
	c := Prepare(u).Certify(v, sum, sumSq, 0, 0)
	exact := MinDist(u, v)
	if msg := certifyCovers(c, exact); msg != "" || c.Scale != 0 || c.Shift != exact.Shift {
		t.Errorf("degenerate certificate %+v vs exact %+v: %s", c, exact, msg)
	}
}

// FuzzCertifyBound is the property the count pass rests on: for any
// query, any window, and window statistics anywhere inside their
// declared error bounds — prefix-sum magnitudes up to 2⁴⁰ times the
// window's — MinDistPrepared's squared distance, scale and shift lie
// within the certificate's errors of its values, above and below; and
// NormBound, which never sees the window, never accepts one the exact
// pass rejects — with ε on the bound itself, on the window's own norm,
// and on the floats either side of each, compared as the verifier
// compares (ε² less four roundings).
func FuzzCertifyBound(f *testing.F) {
	f.Add(int64(1), uint8(16), 1.0, 0.0, 0.0, 0.5, 0.5)
	f.Add(int64(2), uint8(128), 3.0, 100.0, 1e-9, -1.0, 1.0)
	f.Add(int64(3), uint8(2), 1e-3, 1e6, 1e-3, 1.0, -1.0)
	f.Add(int64(4), uint8(200), 1e4, -1e4, 1e-12, 0.0, 0.0)
	f.Add(int64(5), uint8(64), 0.0, 7.0, 1e-6, 1.0, 1.0) // constant query and window
	f.Fuzz(func(t *testing.T, seed int64, n8 uint8, spread, offset, relErr, atSum, atSumSq float64) {
		n := 1 + int(n8)
		if !(math.Abs(spread) <= 1e6 && math.Abs(offset) <= 1e9 && relErr >= 0 && relErr <= 0x1p-12 &&
			math.Abs(atSum) <= 1 && math.Abs(atSumSq) <= 1) {
			t.Skip("outside the documented domain")
		}
		r := rand.New(rand.NewSource(seed))
		u, v := make(Vector, n), make(Vector, n)
		for i := range u {
			u[i] = offset/3 + spread*r.NormFloat64()
			v[i] = offset + spread*r.NormFloat64()
		}
		if seed%5 == 0 {
			// A window that is an exact image of the query: Dist² cancels to
			// rounding noise, the regime where a relative bound would fail.
			for i := range v {
				v[i] = 1.5*u[i] - offset
			}
		}
		sum, sumSq := statsOf(v)
		// relErr stands for ε·(prefix magnitude / window magnitude).
		sumErr := relErr * (math.Abs(sum) + math.Sqrt(float64(n)*sumSq))
		sumSqErr := relErr * sumSq
		// statsOf's own plain summation is part of what the declared
		// errors must cover.
		sumErr += float64(n) * machEps * math.Sqrt(float64(n)*sumSq)
		sumSqErr += float64(n) * machEps * sumSq
		p := Prepare(u)
		c := p.Certify(v, sum+atSum*relErr*math.Abs(sum), sumSq+atSumSq*relErr*sumSq, sumErr, sumSqErr)
		exact := p.MinDist(v)
		if msg := certifyCovers(c, exact); msg != "" {
			t.Fatalf("n=%d spread=%g offset=%g relErr=%g: %s", n, spread, offset, relErr, msg)
		}
		bound := p.NormBound(n, sum+atSum*relErr*math.Abs(sum), sumSq+atSumSq*relErr*sumSq, sumErr, sumSqErr)
		for _, at := range []float64{math.Sqrt(bound), Norm(SETransform(v)), exact.Dist} {
			for _, eps := range []float64{math.Nextafter(at, 0), at, math.Nextafter(at, math.Inf(1))} {
				if e2 := eps * eps; bound <= e2-4*machEps*e2 && !(exact.Dist <= eps) {
					t.Fatalf("n=%d spread=%g offset=%g relErr=%g: norm bound %g accepts at eps %g a window the exact pass puts at %g",
						n, spread, offset, relErr, bound, eps, exact.Dist)
				}
			}
		}
	})
}

// BenchmarkVerifyDirect is the seed verification path: copy the window
// out of storage, then MinDist's three O(n) reductions.
func BenchmarkVerifyDirect(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := rand.New(rand.NewSource(99))
			u, v := randVec(r, n), randVec(r, n)
			w := make(Vector, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(w, v) // the store fetch of the seed path
				_ = MinDist(u, w)
			}
		})
	}
}

// BenchmarkVerifyPrefixSum is the prefix-sum verification path: one
// cross-term pass over the in-place window view plus O(1) statistics.
func BenchmarkVerifyPrefixSum(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := rand.New(rand.NewSource(99))
			u, v := randVec(r, n), randVec(r, n)
			p := Prepare(u)
			sum, sumSq := statsOf(v)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = p.Certify(v, sum, sumSq, 1e-9, 1e-9)
			}
		})
	}
}

// preparedVsMinDist reports how MinDistPrepared, fed the query-side
// quantities exactly as the verifier prepares them, differs from
// MinDist(u, v); "" means bit-identical.
func preparedVsMinDist(u, v Vector) string {
	su := SETransform(u)
	got := MinDistPrepared(su, Mean(u), NormSq(su), v)
	want := MinDist(u, v)
	if math.Float64bits(got.Dist) != math.Float64bits(want.Dist) ||
		math.Float64bits(got.Scale) != math.Float64bits(want.Scale) ||
		math.Float64bits(got.Shift) != math.Float64bits(want.Shift) ||
		got.Degenerate != want.Degenerate {
		return fmt.Sprintf("MinDistPrepared = %+v, MinDist = %+v", got, want)
	}
	return ""
}

// TestMinDistPreparedBitIdentical pins the exact kernel of candidate
// verification to the definition the scan and the oracle use: hoisting
// the query's reductions must not move one bit of (Dist, Scale, Shift).
func TestMinDistPreparedBitIdentical(t *testing.T) {
	denormal := math.SmallestNonzeroFloat64
	tests := []struct {
		name string
		u, v Vector
	}{
		{"empty", Vector{}, Vector{}},
		{"n=1", Vector{3}, Vector{-7}},
		{"n=1 zeros", Vector{0}, Vector{0}},
		{"exact scale-shift", Vector{1, 2, 3, 4}, Vector{5, 7, 9, 11}},
		{"constant u", Vector{4, 4, 4, 4}, Vector{1, -2, 3, 0.5}},
		{"constant v", Vector{1, -2, 3, 0.5}, Vector{4, 4, 4, 4}},
		{"both constant", Vector{2, 2, 2}, Vector{-9, -9, -9}},
		{"huge", Vector{1e150, -3e150, 2e150, 5e149}, Vector{-2e150, 1e150, 4e150, 1e149}},
		{"huge vs tiny", Vector{1e150, -3e150, 2e150}, Vector{1e-150, 2e-150, -1e-150}},
		{"tiny", Vector{1e-150, -3e-150, 2e-150, 5e-151}, Vector{-2e-150, 1e-150, 4e-150, 1e-151}},
		{"denormal", Vector{denormal, 3 * denormal, 0, 2 * denormal}, Vector{5 * denormal, 0, denormal, denormal}},
		{"denormal u, normal v", Vector{denormal, 0, 2 * denormal}, Vector{1, 2, 4}},
		{"overflowing norm", Vector{1e200, -1e200, 1e200}, Vector{1e200, 1e200, -1e200}},
		{"cancelling mean", Vector{1e16, 1, -1e16, 1}, Vector{1, 1e16, 1, -1e16}},
		{"near-constant u", Vector{1, 1 + 0x1p-52, 1, 1 - 0x1p-53}, Vector{0.3, 0.1, 0.2, 0.7}},
	}
	for _, tc := range tests {
		if diff := preparedVsMinDist(tc.u, tc.v); diff != "" {
			t.Errorf("%s: %s", tc.name, diff)
		}
	}

	// Random vectors over a wide range of lengths and magnitudes, with
	// constant u or v mixed in.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		scale := math.Pow(10, float64(r.Intn(301)-150))
		u, v := make(Vector, n), make(Vector, n)
		for i := range u {
			u[i] = r.NormFloat64() * scale
			v[i] = r.NormFloat64()*scale + float64(r.Intn(3))*scale
		}
		switch r.Intn(8) {
		case 0:
			for i := range u {
				u[i] = u[0]
			}
		case 1:
			for i := range v {
				v[i] = v[0]
			}
		}
		if diff := preparedVsMinDist(u, v); diff != "" {
			t.Logf("seed %d, n %d, scale %g: %s", seed, n, scale, diff)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
