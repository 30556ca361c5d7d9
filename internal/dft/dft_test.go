package dft

import (
	"math"
	"math/rand"
	"testing"

	"scaleshift/internal/vec"
)

func randVec(r *rand.Rand, n int) vec.Vector {
	v := make(vec.Vector, n)
	for i := range v {
		v[i] = r.Float64()*20 - 10
	}
	return v
}

func TestNewFeatureMapValidation(t *testing.T) {
	tests := []struct {
		n, fc  int
		wantOK bool
	}{
		{128, 3, true},
		{8, 3, true},
		{7, 3, true},   // 2*3 < 7: k=3 is still below n/2 = 3.5
		{8, 0, false},  // fc < 1
		{8, -1, false}, // fc < 1
		{2, 1, false},  // n too short
		{3, 1, true},
		{16, 7, true},
		{16, 8, false}, // 2*8 >= 16
	}
	for _, tc := range tests {
		_, err := NewFeatureMap(tc.n, tc.fc)
		if (err == nil) != tc.wantOK {
			t.Errorf("NewFeatureMap(%d, %d): err=%v, wantOK=%v", tc.n, tc.fc, err, tc.wantOK)
		}
	}
}

func TestDimAccessors(t *testing.T) {
	m, err := NewFeatureMap(128, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 128 || m.Coefficients() != 3 || m.Dim() != 6 {
		t.Errorf("accessors: N=%d fc=%d Dim=%d", m.N(), m.Coefficients(), m.Dim())
	}
}

func TestBasisIsOrthonormal(t *testing.T) {
	for _, cfg := range []struct{ n, fc int }{{16, 3}, {128, 3}, {32, 10}, {9, 4}} {
		m, err := NewFeatureMap(cfg.n, cfg.fc)
		if err != nil {
			t.Fatal(err)
		}
		for i := range m.basis {
			for j := range m.basis {
				var dot float64
				for k := 0; k < cfg.n; k++ {
					dot += m.basis[i][k] * m.basis[j][k]
				}
				want := 0.0
				if i == j {
					want = 1.0
				}
				if math.Abs(dot-want) > 1e-9 {
					t.Fatalf("n=%d fc=%d: basis[%d]·basis[%d] = %v, want %v",
						cfg.n, cfg.fc, i, j, dot, want)
				}
			}
		}
	}
}

func TestTransformLinearity(t *testing.T) {
	m, err := NewFeatureMap(32, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		x, y := randVec(r, 32), randVec(r, 32)
		c := r.Float64()*4 - 2
		fxy := m.Transform(vec.Add(x, y))
		sum := vec.Add(m.Transform(x), m.Transform(y))
		if vec.Dist(fxy, sum) > 1e-8 {
			t.Fatal("F not additive")
		}
		fcx := m.Transform(vec.Scale(c, x))
		cfx := vec.Scale(c, m.Transform(x))
		if vec.Dist(fcx, cfx) > 1e-8 {
			t.Fatal("F not homogeneous")
		}
	}
}

func TestContractionProperty(t *testing.T) {
	// The GEMINI guarantee: ‖F(x) − F(y)‖ ≤ ‖x − y‖ for all x, y.
	r := rand.New(rand.NewSource(2))
	for _, cfg := range []struct{ n, fc int }{{16, 3}, {64, 3}, {128, 6}} {
		m, err := NewFeatureMap(cfg.n, cfg.fc)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			x, y := randVec(r, cfg.n), randVec(r, cfg.n)
			df := vec.Dist(m.Transform(x), m.Transform(y))
			d := vec.Dist(x, y)
			if df > d+1e-9 {
				t.Fatalf("n=%d fc=%d: feature dist %v > original dist %v", cfg.n, cfg.fc, df, d)
			}
		}
	}
}

func TestEnergyCaptureOfPureTone(t *testing.T) {
	// A pure cosine at frequency k <= fc has all its energy inside the
	// retained coefficients: the projection preserves its norm exactly.
	n := 64
	m, err := NewFeatureMap(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 3; k++ {
		x := make(vec.Vector, n)
		for j := range x {
			x[j] = math.Cos(2 * math.Pi * float64(j) * float64(k) / float64(n))
		}
		fx := m.Transform(x)
		if math.Abs(vec.Norm(fx)-vec.Norm(x)) > 1e-9 {
			t.Errorf("k=%d: tone energy lost: ‖F(x)‖=%v ‖x‖=%v", k, vec.Norm(fx), vec.Norm(x))
		}
	}
	// A tone above fc is annihilated... not exactly (only if orthogonal):
	// frequency 5 > fc=3 is orthogonal to all retained rows.
	x := make(vec.Vector, n)
	for j := range x {
		x[j] = math.Cos(2 * math.Pi * float64(j) * 5 / float64(n))
	}
	if got := vec.Norm(m.Transform(x)); got > 1e-9 {
		t.Errorf("out-of-band tone leaked: ‖F(x)‖=%v", got)
	}
}

func TestConstantInputMapsToZero(t *testing.T) {
	// The DC component is not retained, so constants vanish — consistent
	// with SE-transformed inputs having zero mean anyway.
	m, err := NewFeatureMap(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	x := vec.Vector{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}
	if got := vec.Norm(m.Transform(x)); got > 1e-9 {
		t.Errorf("constant input feature norm = %v, want 0", got)
	}
}

func TestSELineMapsToLine(t *testing.T) {
	// F(t·u) = t·F(u): the SE-line stays a line through the origin in
	// feature space, which is what lets Theorem 3 prune in 2·fc dims.
	m, err := NewFeatureMap(32, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		u := vec.SETransform(randVec(r, 32))
		tt := r.Float64()*8 - 4
		lhs := m.Transform(vec.Scale(tt, u))
		rhs := vec.Scale(tt, m.Transform(u))
		if vec.Dist(lhs, rhs) > 1e-8 {
			t.Fatal("SE-line image is not a line")
		}
	}
}

// TestTransformSEBitIdentical pins TransformSE to the composition it
// replaces, Transform(SETransform(x)), bit for bit — on DFT maps with an
// even and Haar maps with an odd row count, and at magnitudes where a
// reassociated sum would round differently — so no query's SE-line, and
// with it no candidate set, moves.
func TestTransformSEBitIdentical(t *testing.T) {
	var maps []*FeatureMap
	for _, fc := range []int{1, 3, 6} {
		m, err := NewFeatureMap(64, fc)
		if err != nil {
			t.Fatal(err)
		}
		maps = append(maps, m)
	}
	for _, dim := range []int{1, 5, 6} {
		m, err := NewHaarMap(64, dim)
		if err != nil {
			t.Fatal(err)
		}
		maps = append(maps, m)
	}
	r := rand.New(rand.NewSource(36))
	for _, m := range maps {
		got := make(vec.Vector, m.Dim())
		for trial := 0; trial < 200; trial++ {
			x := randVec(r, m.N())
			scale := math.Pow(10, float64(r.Intn(61)-30))
			for i := range x {
				x[i] = x[i]*scale + float64(trial)*scale
			}
			want := m.Transform(vec.SETransform(x))
			m.TransformSE(got, x)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("dim %d trial %d row %d: %v, the composition gives %v", m.Dim(), trial, i, got[i], want[i])
				}
			}
		}
	}
	m := maps[1]
	assertPanics(t, "short input", func() { m.TransformSE(make(vec.Vector, 6), make(vec.Vector, 63)) })
	assertPanics(t, "short output", func() { m.TransformSE(make(vec.Vector, 5), make(vec.Vector, 64)) })
}

func TestTransformIntoPanics(t *testing.T) {
	m, err := NewFeatureMap(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	assertPanics(t, "short input", func() {
		m.TransformInto(make(vec.Vector, 6), make(vec.Vector, 15))
	})
	assertPanics(t, "short output", func() {
		m.TransformInto(make(vec.Vector, 5), make(vec.Vector, 16))
	})
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func TestTransformMatchesNaiveDFT(t *testing.T) {
	// Cross-check against a directly-written DFT sum.
	n, fc := 24, 4
	m, err := NewFeatureMap(n, fc)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(4))
	x := randVec(r, n)
	got := m.Transform(x)
	amp := math.Sqrt(2 / float64(n))
	for k := 1; k <= fc; k++ {
		var re, im float64
		for j := 0; j < n; j++ {
			angle := 2 * math.Pi * float64(j) * float64(k) / float64(n)
			re += x[j] * math.Cos(angle)
			im += x[j] * math.Sin(angle)
		}
		if math.Abs(got[2*(k-1)]-amp*re) > 1e-9 || math.Abs(got[2*(k-1)+1]-amp*im) > 1e-9 {
			t.Fatalf("coefficient %d mismatch", k)
		}
	}
}

func BenchmarkTransform128x3(b *testing.B) {
	m, err := NewFeatureMap(128, 3)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	x := randVec(r, 128)
	dst := make(vec.Vector, m.Dim())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TransformInto(dst, x)
	}
}

func TestHaarMapValidation(t *testing.T) {
	tests := []struct {
		n, dim int
		wantOK bool
	}{
		{128, 6, true},
		{8, 7, true},   // all n-1 wavelet rows
		{8, 8, false},  // more rows than exist
		{6, 3, false},  // not a power of two
		{2, 1, false},  // too short
		{16, 0, false}, // dim < 1
	}
	for _, tc := range tests {
		m, err := NewHaarMap(tc.n, tc.dim)
		if (err == nil) != tc.wantOK {
			t.Errorf("NewHaarMap(%d, %d): err=%v wantOK=%v", tc.n, tc.dim, err, tc.wantOK)
		}
		if err == nil && m.Dim() != tc.dim {
			t.Errorf("NewHaarMap(%d, %d): Dim=%d", tc.n, tc.dim, m.Dim())
		}
	}
}

func TestHaarBasisOrthonormalAndContraction(t *testing.T) {
	m, err := NewHaarMap(32, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.basis {
		for j := range m.basis {
			var dot float64
			for k := 0; k < 32; k++ {
				dot += m.basis[i][k] * m.basis[j][k]
			}
			want := 0.0
			if i == j {
				want = 1.0
			}
			if math.Abs(dot-want) > 1e-9 {
				t.Fatalf("haar basis[%d]*basis[%d] = %v, want %v", i, j, dot, want)
			}
		}
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		x, y := randVec(r, 32), randVec(r, 32)
		if vec.Dist(m.Transform(x), m.Transform(y)) > vec.Dist(x, y)+1e-9 {
			t.Fatal("Haar map is not a contraction")
		}
	}
}

func TestHaarConstantVanishesAndStepCaptured(t *testing.T) {
	m, err := NewHaarMap(16, 5)
	if err != nil {
		t.Fatal(err)
	}
	// DC row omitted: constants map to zero.
	c := make(vec.Vector, 16)
	for i := range c {
		c[i] = 3
	}
	if got := vec.Norm(m.Transform(c)); got > 1e-9 {
		t.Errorf("constant leaked: %v", got)
	}
	// A full-window step IS the coarsest wavelet: energy preserved.
	s := make(vec.Vector, 16)
	for i := range s {
		if i < 8 {
			s[i] = 1
		} else {
			s[i] = -1
		}
	}
	if got, want := vec.Norm(m.Transform(s)), vec.Norm(s); math.Abs(got-want) > 1e-9 {
		t.Errorf("step energy %v, want %v", got, want)
	}
}
