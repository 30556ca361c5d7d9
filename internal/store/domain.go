package store

import (
	"fmt"
	"math"
)

// The numeric domain (DESIGN §5): every stored value and every query
// value is finite and either 0 or of magnitude in [MinMagnitude,
// MaxMagnitude].  The verifier and the scan both form ‖q‖²·‖v‖²; inside
// the domain that product neither overflows (at most L²·2⁸⁰⁰ for
// length-L windows, below 2¹⁰²³ for any L under 2¹¹¹) nor loses every
// digit to underflow (at least 2⁻⁸⁰⁰ for nonzero windows), so the index
// and the scan agree bit for bit.  Outside it they do not: from 2²⁵⁶ up
// the product is infinite and every window is at distance 0 of the
// scan, and from 2⁻³⁰⁰ down both lose a disguised window's source.
const (
	MinMagnitude = 0x1p-200
	MaxMagnitude = 0x1p200
)

// DomainError names the first value outside the numeric domain.
type DomainError struct {
	// Seq is the value's sequence, or -1 for values outside any
	// sequence (a query, an append of a new sequence).
	Seq int
	// Index is the value's position in its sequence (or its slice).
	Index int
	Value float64
}

func (e *DomainError) Error() string {
	where := fmt.Sprintf("value %d", e.Index)
	if e.Seq >= 0 {
		where = fmt.Sprintf("sequence %d value %d", e.Seq, e.Index)
	}
	return fmt.Sprintf("%s is %v, outside the numeric domain (0, or magnitude in [2^-200, 2^200])", where, e.Value)
}

// InDomain reports whether v lies in the numeric domain.
func InDomain(v float64) bool {
	a := math.Abs(v)
	return a == 0 || a >= MinMagnitude && a <= MaxMagnitude
}

// CheckDomain returns a *DomainError for the first of values outside
// the numeric domain, numbered from first within sequence seq.
func CheckDomain(seq, first int, values []float64) error {
	for i, v := range values {
		if !InDomain(v) {
			return &DomainError{Seq: seq, Index: first + i, Value: v}
		}
	}
	return nil
}

// accumulate extends sequence seq's prefix sums with values, which
// arrive at its end, and keeps the store's record of the numeric
// domain: its peak magnitude and the first value outside the domain.
func (v *view) accumulate(seq int, values []float64) {
	first := len(v.stats[seq].psum) - 1
	peak, bad := v.stats[seq].accumulate(values)
	v.peak = max(v.peak, peak)
	if bad >= 0 && v.bad == nil {
		v.bad = &DomainError{Seq: seq, Index: first + bad, Value: values[bad]}
	}
}

// Domain returns the largest magnitude stored and, when a value
// outside the numeric domain was stored, a *DomainError naming the
// first to arrive.  It reads what the store recorded as the values came
// in, so it costs nothing per value.
func (v *view) Domain() (float64, error) {
	if v.bad != nil {
		return v.peak, v.bad
	}
	return v.peak, nil
}
