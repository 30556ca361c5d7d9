package geom

import (
	"testing"
	"testing/quick"

	"scaleshift/internal/vec"
)

// rectFromRaw builds a valid rectangle from two arbitrary corner value
// lists, rejecting non-finite inputs.
func rectFromRaw(a, b []float64) (Rect, bool) {
	n := len(a)
	if n == 0 || n > 16 || len(b) < n {
		return Rect{}, false
	}
	for i := 0; i < n; i++ {
		if !finite(a[i]) || !finite(b[i]) {
			return Rect{}, false
		}
	}
	r := RectFromPoint(vec.Vector(a[:n]).Clone())
	r.Extend(RectFromPoint(vec.Vector(b[:n])))
	return r, true
}

func finite(x float64) bool { return x == x && x < 1e12 && x > -1e12 }

func TestQuickUnionContainsOperands(t *testing.T) {
	f := func(a, b, c []float64) bool {
		r1, ok := rectFromRaw(a, b)
		if !ok {
			return true
		}
		if len(c) < r1.Dim() {
			return true
		}
		for i := 0; i < r1.Dim(); i++ {
			if !finite(c[i]) {
				return true
			}
		}
		r2 := RectFromPoint(vec.Vector(c[:r1.Dim()]))
		u := r1.Union(r2)
		return u.ContainsRect(r1) && u.ContainsRect(r2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickEnlargeMonotone(t *testing.T) {
	f := func(a, b []float64, rawEps float64) bool {
		r, ok := rectFromRaw(a, b)
		if !ok || !finite(rawEps) {
			return true
		}
		eps := rawEps
		if eps < 0 {
			eps = -eps
		}
		e := r.Enlarge(eps)
		if !e.ContainsRect(r) {
			return false
		}
		// Enlargement grows radii consistently.
		return e.InnerRadius() >= r.InnerRadius() && e.OuterRadius() >= r.OuterRadius()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickContainedPointHasZeroDistance(t *testing.T) {
	f := func(a, b []float64, ts []float64) bool {
		r, ok := rectFromRaw(a, b)
		if !ok {
			return true
		}
		// The center is contained, and a line through it penetrates.
		c := r.Center()
		if !r.Contains(c) {
			return false
		}
		d := make(vec.Vector, r.Dim())
		d[0] = 1
		return SlabPenetrates(r, vec.Line{P: c, D: d})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
