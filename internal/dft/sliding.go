package dft

import (
	"fmt"
	"math"

	"scaleshift/internal/vec"
)

// SlidingTransformer computes the feature points of consecutive
// sliding windows in O(f_c) per step instead of O(n·f_c), using the
// DFT shift recurrence from Faloutsos et al. [2]:
//
//	X_k(w+1) = e^{+2πik/n} · (X_k(w) − x_out + x_in)
//
// where x_out is the sample leaving the window and x_in the one
// entering.  It produces exactly the coordinates of FeatureMap built
// with NewFeatureMap (the DFT basis; the Haar basis has no such
// recurrence), up to floating-point drift, which Reset bounds by
// recomputing from scratch every ResetInterval steps.
//
// Note that because the retained coefficients are all non-DC, the
// feature of a window equals the feature of its shift-eliminated
// (mean-removed) form: T_se only changes the DC term.  Callers can
// therefore feed raw windows and obtain SE features directly.
type SlidingTransformer struct {
	m *FeatureMap
	// re, im hold the current unnormalized coefficients X_1..X_fc.
	re, im []float64
	// rotc, rots are cos/sin of 2πk/n per coefficient.
	rotc, rots []float64
	window     []float64 // ring buffer of current window
	head       int
	steps      int
	// ResetInterval forces a full recomputation after this many
	// incremental steps to bound floating-point drift (default 4096).
	ResetInterval int
}

// NewSlidingTransformer starts an incremental transformer positioned
// on the given initial window (length m.N()).  Only DFT-basis maps are
// supported.
func NewSlidingTransformer(m *FeatureMap, initial vec.Vector) (*SlidingTransformer, error) {
	if m.Coefficients() == 0 {
		return nil, fmt.Errorf("dft: sliding transform requires a DFT-basis map")
	}
	if len(initial) != m.N() {
		return nil, fmt.Errorf("dft: initial window length %d, want %d", len(initial), m.N())
	}
	fc := m.Coefficients()
	st := &SlidingTransformer{
		m:             m,
		re:            make([]float64, fc),
		im:            make([]float64, fc),
		rotc:          make([]float64, fc),
		rots:          make([]float64, fc),
		window:        make([]float64, m.N()),
		ResetInterval: 4096,
	}
	for k := 1; k <= fc; k++ {
		angle := 2 * math.Pi * float64(k) / float64(m.N())
		st.rotc[k-1] = math.Cos(angle)
		st.rots[k-1] = math.Sin(angle)
	}
	copy(st.window, initial)
	st.recompute()
	return st, nil
}

// recompute refreshes the coefficients from the ring buffer, against the
// map's twiddle table: the cos/sin(2πjk/n) it would otherwise evaluate
// again at every re-seed, the same expression computed once — so the
// sums, term for term and in order, are the ones evaluating it here gave.
func (st *SlidingTransformer) recompute() {
	older, newer := st.window[st.head:], st.window[:st.head]
	for k := range st.re {
		cos, sin := st.m.cos[k], st.m.sin[k]
		var re, im float64
		for j, x := range older {
			re += x * cos[j]
			im += x * sin[j]
		}
		cos, sin = cos[len(older):], sin[len(older):]
		for j, x := range newer {
			re += x * cos[j]
			im += x * sin[j]
		}
		st.re[k], st.im[k] = re, im
	}
	st.steps = 0
}

// Feature writes the current window's feature point into dst (length
// Dim()), matching FeatureMap.TransformInto on the same window.
func (st *SlidingTransformer) Feature(dst vec.Vector) {
	if len(dst) != st.m.Dim() {
		panic(fmt.Sprintf("dft: feature length %d, want %d", len(dst), st.m.Dim()))
	}
	amp := math.Sqrt(2 / float64(st.m.N()))
	for k := 0; k < st.m.Coefficients(); k++ {
		dst[2*k] = amp * st.re[k]
		dst[2*k+1] = amp * st.im[k]
	}
}

// Reposition re-seeds the transformer on a new initial window without
// allocating, exactly as NewSlidingTransformer would: the coefficients
// are recomputed from scratch, so the drift budget restarts.
// Incremental extraction uses it at checkpoint boundaries to restart
// the recurrence with the same bits a from-scratch extraction
// produces.
func (st *SlidingTransformer) Reposition(initial vec.Vector) error {
	if len(initial) != st.m.N() {
		return fmt.Errorf("dft: initial window length %d, want %d", len(initial), st.m.N())
	}
	st.head = 0
	copy(st.window, initial)
	st.recompute()
	return nil
}

// Slide advances the window by one sample: the oldest sample leaves,
// incoming enters.
func (st *SlidingTransformer) Slide(incoming float64) {
	outgoing := st.window[st.head]
	st.window[st.head] = incoming
	st.head = (st.head + 1) % st.m.N()
	d := incoming - outgoing
	for k := range st.re {
		// With X_k(t) = Σ_j x_{t+j}·e^{iθkj}, sliding gives
		// X_k(t+1) = e^{-iθk}·(X_k(t) − x_out + x_in): adjust the j = 0
		// term, then rotate the spectrum by the conjugate root.
		re := st.re[k] + d
		im := st.im[k]
		st.re[k] = re*st.rotc[k] + im*st.rots[k]
		st.im[k] = -re*st.rots[k] + im*st.rotc[k]
	}
	st.steps++
	if st.steps >= st.ResetInterval {
		st.recompute()
	}
}
