// Package geom provides the spatial primitives of the paper's index
// (§6.1 and §7): minimum bounding hyper-rectangles (MBRs) with their
// ε-enlargement, and the two line-penetration tests the paper
// evaluates — the exact Entering/Exiting-Points (slab) method and the
// ray-tracing Bounding-Spheres heuristic — plus the exact line-to-MBR
// distance used for nearest-neighbour pruning.
package geom

import (
	"math"

	"scaleshift/internal/vec"
)

// Rect is a minimum bounding hyper-rectangle defined by the two
// endpoints L and H of its major diagonal with L[i] ≤ H[i] (§6.1).
type Rect struct {
	L, H vec.Vector
}

// RectFromPoint returns the degenerate rectangle covering exactly p.
func RectFromPoint(p vec.Vector) Rect {
	return Rect{L: p.Clone(), H: p.Clone()}
}

// Dim returns the dimensionality of the rectangle.
func (r Rect) Dim() int { return len(r.L) }

// Contains reports whether the point p lies inside r (§6.1).
func (r Rect) Contains(p vec.Vector) bool {
	for i := range r.L {
		if p[i] < r.L[i] || p[i] > r.H[i] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether r contains o (§6.1).
func (r Rect) ContainsRect(o Rect) bool {
	for i := range r.L {
		if o.L[i] < r.L[i] || o.H[i] > r.H[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether r and o share at least one point.
func (r Rect) Intersects(o Rect) bool {
	for i := range r.L {
		if o.H[i] < r.L[i] || o.L[i] > r.H[i] {
			return false
		}
	}
	return true
}

// Enlarge returns the ε-enlargement ε-MBR of r: every low corner moved
// down by eps and every high corner up by eps (§6.1).
func (r Rect) Enlarge(eps float64) Rect {
	l := make(vec.Vector, len(r.L))
	h := make(vec.Vector, len(r.H))
	for i := range r.L {
		l[i] = r.L[i] - eps
		h[i] = r.H[i] + eps
	}
	return Rect{L: l, H: h}
}

// Union returns the smallest rectangle containing both r and o.
func (r Rect) Union(o Rect) Rect {
	l := make(vec.Vector, len(r.L))
	h := make(vec.Vector, len(r.H))
	for i := range r.L {
		l[i] = math.Min(r.L[i], o.L[i])
		h[i] = math.Max(r.H[i], o.H[i])
	}
	return Rect{L: l, H: h}
}

// Extend grows r in place to cover o.
func (r *Rect) Extend(o Rect) {
	for i := range r.L {
		if o.L[i] < r.L[i] {
			r.L[i] = o.L[i]
		}
		if o.H[i] > r.H[i] {
			r.H[i] = o.H[i]
		}
	}
}

// Area returns the volume of r (product of side lengths).
func (r Rect) Area() float64 {
	a := 1.0
	for i := range r.L {
		a *= r.H[i] - r.L[i]
	}
	return a
}

// Margin returns the sum of the side lengths of r, the L1 analogue of
// surface area used by the R*-tree split algorithm.
func (r Rect) Margin() float64 {
	var m float64
	for i := range r.L {
		m += r.H[i] - r.L[i]
	}
	return m
}

// IntersectionArea returns the volume of r ∩ o, or 0 when disjoint.
func (r Rect) IntersectionArea(o Rect) float64 {
	a := 1.0
	for i := range r.L {
		lo := math.Max(r.L[i], o.L[i])
		hi := math.Min(r.H[i], o.H[i])
		if hi <= lo {
			return 0
		}
		a *= hi - lo
	}
	return a
}

// Center returns the midpoint of r.
func (r Rect) Center() vec.Vector {
	c := make(vec.Vector, len(r.L))
	for i := range r.L {
		c[i] = (r.L[i] + r.H[i]) / 2
	}
	return c
}

// OuterRadius returns the radius of the smallest sphere centred at
// Center() that contains r — half the major diagonal (§7, outer
// bounding sphere).
func (r Rect) OuterRadius() float64 {
	var s float64
	for i := range r.L {
		d := (r.H[i] - r.L[i]) / 2
		s += d * d
	}
	return math.Sqrt(s)
}

// InnerRadius returns the radius of the largest sphere centred at
// Center() contained in r — half the shortest side (§7, inner bounding
// sphere).
func (r Rect) InnerRadius() float64 {
	if len(r.L) == 0 {
		return 0
	}
	m := math.Inf(1)
	for i := range r.L {
		m = math.Min(m, (r.H[i]-r.L[i])/2)
	}
	return m
}
