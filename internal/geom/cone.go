package geom

import (
	"math"

	"scaleshift/internal/vec"
)

// The cone test: Theorem 3 for a directory whose entries are shaped like
// the query.  Every SE-line passes through the origin, so a point p at
// angle θ from the line lies ‖p‖·sin θ from it, and a subtree summarised
// by the smallest norm beneath it (r_lo) and a box around the unit
// directions û = ±p/‖p‖ beneath it can be refused when r_lo·sin θ_min
// exceeds ε, θ_min being the smallest angle any direction in the box
// makes with the line.
//
// For the unit query direction q̂ and a unit û at angle φ from it the
// chord is ‖q̂ − û‖² = 2 − 2cos φ =: m, so sin²φ = m·(1 − m/4), which
// increases with m on [0, 2].  The angle to the LINE is min(φ, π − φ),
// whose chord is min(‖q̂ − û‖², ‖−q̂ − û‖²) ≤ 2 — which also makes the
// sign a direction was folded with immaterial.  The box contains û, so
// the squared point-to-box distance from ±q̂ is at most that chord, and
//
//	r_lo² · m · (1 − m/4),  m = min(dist²(q̂, box), dist²(−q̂, box))
//
// is a lower bound on PLD² over the subtree (DESIGN §5 carries the proof
// with the rounding margins).  A line that misses the origin by off is
// served too: PLD to it is at least PLD to its parallel through the
// origin minus off, so ε + off takes ε's place.
//
// A segment of the line — a probe under scale bounds — adds what the
// norms say: a point within ε of a piece of the line whose own points
// have norms in [n_lo, n_hi] has its norm in [n_lo − ε, n_hi + ε], so an
// entry whose norm range misses that is refused, and r_lo may be raised
// to n_lo − ε inside the bound.  No sign of q̂ is dropped for a one-sided
// segment: the fold (û₀ ≥ 0) already leaves the antipode of a direction
// with q̂₀ well above zero outside every box, and measured at paper scale
// an explicit rule moved 160.1 node reads to 160.0.

// coneSlack widens the comparison against ε² by more than the float64
// evaluation of the bound can overshoot: the gaps, their squares, the sum
// and the product are a few dozen roundings of 2⁻⁵³ each, and the
// normalisation of the query direction moves a gap by at most 2⁻³⁰ of
// itself once the box bounds have been stepped outward (DESIGN §5).
const coneSlack = 0x1p-24

// conePad is the relative pad on the quantities of a probe that are
// differences of the caller's numbers (the offset of a line that misses
// the origin, the norm range of a segment).
const conePad = 0x1p-40

// Cone is a line or segment probe prepared for direction-box entries, in
// the units of the planes it will be tested against.
type Cone struct {
	// Dir is the unit direction q̂ of the line (zero when the line is a
	// single point).
	Dir []float64
	// MaxSq is the largest lower bound on PLD² at which an entry is still
	// entered: (ε + off)², widened by coneSlack.
	MaxSq float64
	// RMin and RMax are the norms a stored point within ε of the probe
	// can have: an entry is entered only when [r_lo, r_hi] meets them.
	// A line has (−Inf, +Inf).
	RMin, RMax float64
	// rFloor is the least norm a qualifying point can have, when that is
	// more than an entry's own r_lo tells: max(RMin, 0).
	rFloor float64
	// Accept is the greatest r_hi at which an entry of a line probe may be
	// accepted whole: when r_hi ≤ Accept, every stored point beneath the
	// entry is within ε of the line by vec.PLDFast's own arithmetic, so
	// the leaf kernel would admit each of them (see shellAccept).  −Inf —
	// nothing is accepted — for a segment, a point, and a probe outside
	// the range the margin is proved for.
	Accept float64
	// off is the distance from the origin to the line.
	off float64
	// point marks a degenerate direction: nothing is known about angles.
	point bool
}

// PrepareCone fills cn for the probe of l at eps — the segment
// [tMin, tMax] of it when segment is set — reusing cn.Dir.
func PrepareCone(cn *Cone, l vec.Line, eps, tMin, tMax float64, segment bool) {
	dir := cn.Dir[:0]
	*cn = Cone{MaxSq: math.Inf(1), RMin: math.Inf(-1), RMax: math.Inf(1), Accept: math.Inf(-1)}
	var s float64
	for _, d := range l.D {
		s = max(s, math.Abs(d))
	}
	var pn float64
	for _, p := range l.P {
		pn += p * p
	}
	pn = math.Sqrt(pn)
	if segment && tMin > tMax {
		cn.RMin, cn.RMax = math.Inf(1), math.Inf(-1) // the empty probe
	}
	if !(s > 0) || math.IsInf(s, 0) {
		// The line is the point P (or not a line at all): only its norm
		// prunes.
		cn.point = true
		for range l.D {
			dir = append(dir, 0)
		}
		cn.Dir = dir
		if s == 0 && cn.RMin <= cn.RMax {
			cn.RMin, cn.RMax = shellAround(pn, pn, eps, pn)
			cn.rFloor = max(cn.RMin, 0)
		}
		return
	}
	// Normalise on the direction scaled by its largest component, so the
	// squares neither overflow nor vanish.
	var nn float64
	for _, d := range l.D {
		u := d / s
		nn += u * u
	}
	nn = math.Sqrt(nn)
	var along float64
	for j, d := range l.D {
		u := d / s / nn
		dir = append(dir, u)
		along += l.P[j] * u
	}
	cn.Dir = dir
	var offSq float64
	for j, u := range dir {
		w := l.P[j] - along*u
		offSq += w * w
	}
	off := math.Sqrt(offSq)
	cn.off = off + conePad*pn
	// Floored where ε² would underflow: a bound that small enters.
	cn.MaxSq = max((eps+cn.off)*(eps+cn.off)*(1+coneSlack), 0x1p-1000)
	if !segment {
		cn.Accept = shellAccept(eps, cn.off, pn, s, len(l.D))
	}
	if !segment || tMin > tMax {
		return
	}
	// The probe is {P⊥ + u·q̂ : u₀ ≤ u ≤ u₁}: norms √(off² + u²).
	dn := s * nn
	u0, u1 := along+tMin*dn, along+tMax*dn
	lo, hi := min(math.Abs(u0), math.Abs(u1)), max(math.Abs(u0), math.Abs(u1))
	if u0 <= 0 && u1 >= 0 {
		lo = 0
	}
	cn.RMin, cn.RMax = shellAround(math.Hypot(max(off-conePad*pn, 0), lo), math.Hypot(cn.off, hi), eps, pn)
	cn.rFloor = max(cn.RMin, 0)
}

// shellAccept returns Cone.Accept for the line whose direction's largest
// component is s, whose point has norm pn and which passes off (padded)
// from the origin, probed at eps in dim dimensions.  Every point lies
// within ‖p‖ + off of a line that passes off from the origin, so an entry
// whose norms are all within eps − off matches whole — the a ≈ 0 shell
// of Lemma 2, decided once for its subtree.  The margin keeps the
// accepted set inside what the leaf kernel admits (DESIGN §5 item 10):
// a stored norm r may sit 2⁻²⁴ of itself below the norm it rounds, and
// the kernel's one-pass qpQp − qpD²/dd may overshoot the true distance
// by σ·‖p − P‖, σ = 2√((dim+5)·2⁻⁵³); the constants below carry at least
// a factor two over each.  Inside the guarded range — 2⁻²⁰⁰ ≤ s ≤ 2²⁰⁰,
// pn and eps at most 2²⁰⁰ — nothing in the kernel overflows and its
// underflows are absorbed by the 2⁻¹⁴⁰ term; outside it, and for a NaN
// anywhere, nothing is accepted.
func shellAccept(eps, off, pn, s float64, dim int) float64 {
	if !(s >= 0x1p-200 && s <= 0x1p200 && pn <= 0x1p200 && eps <= 0x1p200) {
		return math.Inf(-1)
	}
	sigma := 2 * math.Sqrt(float64(dim+5)*0x1p-53)
	return (eps*(1-0x1p-40) - off - 2*sigma*pn - 0x1p-140) / ((1 + 0x1p-21) * (1 + sigma))
}

// shellAround returns the norms within eps of a probe whose own points
// have norms in [nmin, nmax] (nmax may be +Inf), each end padded by
// conePad of the magnitudes it was computed from.
func shellAround(nmin, nmax, eps, pn float64) (lo, hi float64) {
	return nmin - eps - conePad*(pn+nmin+eps), nmax + eps + conePad*(pn+nmax+eps)
}

// Bound turns one entry's lower bound on PLD² (see ConeLowerSqBatch) into
// a lower bound on the distance from the probe's line to any point
// beneath the entry.
func (cn *Cone) Bound(lowerSq float64) float64 {
	if b := math.Sqrt(lowerSq)*(1-coneSlack) - cn.off; !cn.point && b > 0 {
		return b
	}
	return 0
}

// LowerSq is the scalar reference of the batched kernel: the lower bound
// r²·m·(1 − m/4) on PLD² for one entry whose directions lie in the box
// [lo, hi] and whose norms are at least rLo — r the larger of rLo and the
// probe's own floor, m the smaller squared box distance of q̂ and −q̂.
func (cn *Cone) LowerSq(rLo float64, lo, hi []float64) float64 {
	var mp, mn float64
	for j, x := range cn.Dir {
		gp, gn := coneGaps(lo[j], hi[j], x)
		mp += gp * gp
		mn += gn * gn
	}
	return cn.lower(rLo, mp, mn)
}

// coneGaps returns how far x and −x lie outside [lo, hi] along one
// coordinate (0 inside), negated: min(x − lo, hi − x, 0) is
// −max(lo − x, x − hi, 0) exactly — a rounded difference changes sign
// with its operands — and only the squares are used.  The form compiles
// to no branch: a descent feeds it boxes at every angle, so a
// data-dependent branch is mispredicted about as often as it is taken;
// and min where max was saves the negations the compiler wraps a float
// max in.  On finite input the squares are bit for bit those of the
// four comparisons this replaced (a gap of ±0 squares to +0 either
// way); a NaN — an entry whose box holds one — propagates into the
// bound, and the entry is entered (Enters), where the comparisons read
// the gap as 0.
func coneGaps(lo, hi, x float64) (gp, gn float64) {
	return min(x-lo, hi-x, 0), min(-x-lo, x+hi, 0)
}

// lower closes the bound from an entry's least norm and the squared box
// distances of q̂ and −q̂, without a branch (a NaN propagates).
func (cn *Cone) lower(rLo, mp, mn float64) float64 {
	m := min(mp, mn)
	rLo = max(rLo, cn.rFloor)
	return rLo * rLo * (m * (1 - m/4))
}

// Enters is the scalar verdict: whether an entry with that lower
// bound and norms in [rLo, rHi] is entered.  Every comparison is written
// so that a NaN enters.
func (cn *Cone) Enters(lowerSq, rLo, rHi float64) bool {
	return !(lowerSq > cn.MaxSq) && !(rLo > cn.RMax) && !(rHi < cn.RMin)
}
