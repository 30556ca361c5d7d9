// Package dft implements the dimension-reduction step used by the
// paper's implementation (§7): each (shift-eliminated) window of length
// n is mapped to the real and imaginary parts of its first f_c Discrete
// Fourier Transform coefficients, giving a feature point in R^(2·f_c).
//
// The paper follows Faloutsos et al. [2] in using f_c = 3 coefficients
// (a 6-dimensional R*-tree).  Because the SE-Transformation removes the
// mean, the 0-th (DC) coefficient of every indexed window is zero, so
// the feature map starts at k = 1.
//
// The map is built from an orthonormal trigonometric basis, so it is a
// linear contraction:
//
//	‖F(x) − F(y)‖ ≤ ‖x − y‖   for all x, y ∈ Rⁿ
//
// which is exactly the GEMINI lower-bounding property that makes
// feature-space search free of false dismissals (Theorem 3 then applies
// in the reduced space, because F maps the SE-line t·T_se(u) to the
// line t·F(T_se(u))).
package dft

import (
	"fmt"
	"math"

	"scaleshift/internal/vec"
)

// FeatureMap maps vectors of a fixed length n to 2·fc-dimensional
// feature points using orthonormal DFT coefficients k = 1 … fc.
// A FeatureMap is immutable and safe for concurrent use.
type FeatureMap struct {
	n     int
	fc    int
	basis [][]float64 // 2·fc rows, each an orthonormal length-n basis vector
	// cos and sin are the unnormalized twiddles cos/sin(2πjk/n) of
	// coefficient k = 1 … fc (row k−1) at sample j: what the sliding
	// transformer re-seeds from.  Empty for a Haar map.
	cos, sin [][]float64
}

// NewFeatureMap returns a feature map for windows of length n keeping
// the first fc non-DC Fourier coefficients.  It requires
// 1 ≤ fc and 2·fc < n so that the cosine and sine rows used are a
// strictly orthonormal family (at k = n/2 the sine row vanishes).
func NewFeatureMap(n, fc int) (*FeatureMap, error) {
	if n < 3 {
		return nil, fmt.Errorf("dft: window length %d too short (need n >= 3)", n)
	}
	if fc < 1 || 2*fc >= n {
		return nil, fmt.Errorf("dft: coefficient count %d out of range for n=%d (need 1 <= fc, 2*fc < n)", fc, n)
	}
	m := &FeatureMap{n: n, fc: fc, basis: make([][]float64, 0, 2*fc)}
	amp := math.Sqrt(2 / float64(n))
	for k := 1; k <= fc; k++ {
		cosRow, sinRow := make([]float64, n), make([]float64, n)
		cos, sin := make([]float64, n), make([]float64, n)
		for j := 0; j < n; j++ {
			angle := 2 * math.Pi * float64(j) * float64(k) / float64(n)
			cos[j], sin[j] = math.Cos(angle), math.Sin(angle)
			cosRow[j] = amp * cos[j]
			sinRow[j] = amp * sin[j]
		}
		m.basis = append(m.basis, cosRow, sinRow)
		m.cos, m.sin = append(m.cos, cos), append(m.sin, sin)
	}
	return m, nil
}

// N returns the input window length.
func (m *FeatureMap) N() int { return m.n }

// Coefficients returns the number of retained complex coefficients
// f_c for DFT-built maps, and 0 for other basis families (Haar).
func (m *FeatureMap) Coefficients() int { return m.fc }

// Dim returns the feature-space dimensionality (2·f_c for DFT maps).
func (m *FeatureMap) Dim() int { return len(m.basis) }

// Transform maps x (length n) to its feature point (length 2·fc).
func (m *FeatureMap) Transform(x vec.Vector) vec.Vector {
	out := make(vec.Vector, m.Dim())
	m.TransformInto(out, x)
	return out
}

// TransformInto is Transform writing into dst, which must have length
// Dim().  x must have length N().
func (m *FeatureMap) TransformInto(dst, x vec.Vector) {
	m.checkLengths(dst, x)
	for r, row := range m.basis {
		var s float64
		for j, v := range x {
			s += row[j] * v
		}
		dst[r] = s
	}
}

// TransformSE writes the feature point of x's SE-transform into dst:
// Transform(vec.SETransform(x)) bit for bit — each window value less
// the mean, then each row summed in Transform's order — without the
// intermediate vector, and with three rows summed side by side so their
// additions overlap.  It maps a query to its SE-line's direction.
func (m *FeatureMap) TransformSE(dst, x vec.Vector) {
	m.checkLengths(dst, x)
	mean := vec.Mean(x)
	r := 0
	for ; r+2 < len(m.basis); r += 3 {
		a, b, c := m.basis[r][:len(x)], m.basis[r+1][:len(x)], m.basis[r+2][:len(x)]
		var sa, sb, sc float64
		for j, v := range x {
			d := v - mean
			sa += a[j] * d
			sb += b[j] * d
			sc += c[j] * d
		}
		dst[r], dst[r+1], dst[r+2] = sa, sb, sc
	}
	for ; r < len(m.basis); r++ {
		a := m.basis[r][:len(x)]
		var s float64
		for j, v := range x {
			s += a[j] * (v - mean)
		}
		dst[r] = s
	}
}

// checkLengths panics unless x has length N() and dst length Dim().
func (m *FeatureMap) checkLengths(dst, x vec.Vector) {
	if len(x) != m.n {
		panic(fmt.Sprintf("dft: input length %d, want %d", len(x), m.n))
	}
	if len(dst) != m.Dim() {
		panic(fmt.Sprintf("dft: output length %d, want %d", len(dst), m.Dim()))
	}
}
