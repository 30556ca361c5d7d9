package geom

import (
	"math"

	"scaleshift/internal/vec"
)

// Strategy selects how MBR penetration checks are performed during a
// tree search (§7).  The paper's experiment set 2 uses EnteringExiting
// alone; set 3 adds the bounding-spheres pre-check.
type Strategy int

const (
	// EnteringExiting uses only the exact Entering/Exiting-Points (slab)
	// method.
	EnteringExiting Strategy = iota
	// BoundingSpheres first tries the inner/outer bounding-spheres
	// heuristic from ray tracing and falls back to the slab method only
	// when the spheres are inconclusive.
	BoundingSpheres
)

// String returns the experiment-set label used in the paper.
func (s Strategy) String() string {
	switch s {
	case EnteringExiting:
		return "entering-exiting"
	case BoundingSpheres:
		return "bounding-spheres"
	default:
		return "unknown"
	}
}

// CheckStats counts the primitive geometric tests performed, letting
// benchmarks attribute CPU cost to the two penetration methods.
type CheckStats struct {
	SlabTests   int // Entering/Exiting-Points evaluations
	SphereTests int // bounding-sphere evaluations
	SphereHits  int // sphere tests that were conclusive
}

// Add accumulates o into s.
func (s *CheckStats) Add(o CheckStats) {
	s.SlabTests += o.SlabTests
	s.SphereTests += o.SphereTests
	s.SphereHits += o.SphereHits
}

// SlabPenetrates reports whether the (doubly infinite) line l passes
// through the rectangle r, using the Entering/Exiting-Points method:
// intersect, per dimension, the parameter intervals in which the line
// lies between the two slab planes (§7).
func SlabPenetrates(r Rect, l vec.Line) bool {
	tMin, tMax := math.Inf(-1), math.Inf(1)
	for i := range r.L {
		p, d := l.P[i], l.D[i]
		if d == 0 {
			if p < r.L[i] || p > r.H[i] {
				return false
			}
			continue
		}
		lo := (r.L[i] - p) / d
		hi := (r.H[i] - p) / d
		if lo > hi {
			lo, hi = hi, lo
		}
		if lo > tMin {
			tMin = lo
		}
		if hi < tMax {
			tMax = hi
		}
		if tMin > tMax {
			return false
		}
	}
	return true
}

// SphereVerdict is the outcome of the bounding-spheres pre-check.
type SphereVerdict int

const (
	// SphereInconclusive means the line passes inside the outer sphere
	// but outside the inner sphere; the slab method must decide.
	SphereInconclusive SphereVerdict = iota
	// SphereMiss means the line misses the outer sphere, hence the MBR.
	SphereMiss
	// SphereHit means the line pierces the inner sphere, hence the MBR.
	SphereHit
)

// SphereCheck runs the two-bounding-spheres heuristic of §7 on
// rectangle r: if the line misses the sphere circumscribing r the MBR
// cannot be penetrated; if it pierces the sphere inscribed in r the MBR
// must be penetrated; otherwise the check is inconclusive.
func SphereCheck(r Rect, l vec.Line) SphereVerdict {
	d, _ := vec.PLD(r.Center(), l)
	if d > r.OuterRadius() {
		return SphereMiss
	}
	if d <= r.InnerRadius() {
		return SphereHit
	}
	return SphereInconclusive
}

// Penetrates reports whether line l penetrates rectangle r using the
// given strategy, accumulating primitive-test counts into stats (which
// may be nil).
func Penetrates(strategy Strategy, r Rect, l vec.Line, stats *CheckStats) bool {
	return PenetratesEnlarged(strategy, r, 0, l, stats)
}

// PenetratesEnlarged reports whether line l penetrates the
// ε-enlargement of rectangle r (Theorem 3's test) without
// materializing the enlarged rectangle — this sits on the innermost
// loop of every tree search.  stats may be nil.
func PenetratesEnlarged(strategy Strategy, r Rect, eps float64, l vec.Line, stats *CheckStats) bool {
	if strategy == BoundingSpheres {
		if stats != nil {
			stats.SphereTests++
		}
		switch sphereCheckEnlarged(r, eps, l) {
		case SphereMiss:
			if stats != nil {
				stats.SphereHits++
			}
			return false
		case SphereHit:
			if stats != nil {
				stats.SphereHits++
			}
			return true
		}
	}
	if stats != nil {
		stats.SlabTests++
	}
	return slabPenetratesEnlarged(r, eps, l)
}

// slabPenetratesEnlarged is SlabPenetrates against r.Enlarge(eps),
// allocation-free.
func slabPenetratesEnlarged(r Rect, eps float64, l vec.Line) bool {
	tMin, tMax := math.Inf(-1), math.Inf(1)
	for i := range r.L {
		lo, hi := r.L[i]-eps, r.H[i]+eps
		p, d := l.P[i], l.D[i]
		if d == 0 {
			if p < lo || p > hi {
				return false
			}
			continue
		}
		a := (lo - p) / d
		b := (hi - p) / d
		if a > b {
			a, b = b, a
		}
		if a > tMin {
			tMin = a
		}
		if b < tMax {
			tMax = b
		}
		if tMin > tMax {
			return false
		}
	}
	return true
}

// sphereCheckEnlarged is SphereCheck against r.Enlarge(eps),
// allocation-free: the center is unchanged, the outer radius grows to
// the enlarged half-diagonal, and the inner radius grows by eps.
func sphereCheckEnlarged(r Rect, eps float64, l vec.Line) SphereVerdict {
	// Distance from the enlarged rectangle's center (= r's center) to l.
	var qpD, qpQp, dd float64
	for i := range r.L {
		c := (r.L[i] + r.H[i]) / 2
		qp := c - l.P[i]
		d := l.D[i]
		qpD += qp * d
		qpQp += qp * qp
		dd += d * d
	}
	var distSq float64
	if dd == 0 {
		distSq = qpQp
	} else {
		distSq = qpQp - qpD*qpD/dd
	}
	if distSq < 0 {
		distSq = 0
	}
	var outerSq float64
	inner := math.Inf(1)
	for i := range r.L {
		h := (r.H[i]-r.L[i])/2 + eps
		outerSq += h * h
		if h < inner {
			inner = h
		}
	}
	if distSq > outerSq {
		return SphereMiss
	}
	if distSq <= inner*inner {
		return SphereHit
	}
	return SphereInconclusive
}
