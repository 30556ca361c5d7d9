package geom

import (
	"math"

	"scaleshift/internal/vec"
)

// Batched penetration kernels over structure-of-arrays MBR planes.
//
// A flat (frozen) tree node stores the rectangles of its entries
// dimension-major: first all L planes (dimension 0 of every entry,
// then dimension 1, ...), then all H planes in the same order.  That
// layout turns the per-entry slab test of PenetratesEnlarged into a
// per-dimension sweep over contiguous memory, which the kernels below
// process in 4-wide unrolled blocks.
//
// The kernels are DECISION-IDENTICAL to the scalar functions in
// penetrate.go: per entry they evaluate exactly the same floating-
// point expressions in the same order (division by the direction
// component, dimension-ascending accumulation), so a batched verdict
// never differs from the scalar one by even a final-ulp rounding flip.
// CheckStats counting also matches the scalar path test for test.

// Planes is the dimension-major view of one node's entry MBRs.  Data
// holds 2·Dim·Count values — Dim rows of L values followed by Dim rows
// of H values, each row Count long — or, for a node whose entries are
// points, the Dim rows once: a point is its own lower and upper bound,
// so its H rows are its L rows.  The element type is what the node is
// stored in (a frozen arena keeps float32); every kernel widens a value
// to float64 as it reads it and evaluates the float64 expressions of
// penetrate.go on the widened values.
type Planes[T vec.Coord] struct {
	Data  []T
	Count int
	Dim   int
}

// NodePlanes is Planes over float64 rows.
type NodePlanes = Planes[float64]

// LRow returns the L values of dimension j across all entries.
func (pl Planes[T]) LRow(j int) []T {
	return pl.Data[j*pl.Count : (j+1)*pl.Count : (j+1)*pl.Count]
}

// HRow returns the H values of dimension j across all entries: the L
// row again when the entries are points.
func (pl Planes[T]) HRow(j int) []T {
	if len(pl.Data) == pl.Dim*pl.Count {
		return pl.LRow(j)
	}
	base := (pl.Dim + j) * pl.Count
	return pl.Data[base : base+pl.Count : base+pl.Count]
}

// BatchScratch holds the per-entry accumulators of the batched
// kernels.  A scratch may be reused across calls (it grows to the
// largest node seen) but not across concurrent searches.
type BatchScratch struct {
	tLo, tHi  []float64
	qpD, qpQp []float64
	outerSq   []float64
	inner     []float64
	active    []int32
	decided   []bool
	verdict   []bool
}

func (sc *BatchScratch) grow(c int) {
	if len(sc.tLo) == c {
		return // hot case: consecutive nodes of the same arity
	}
	if cap(sc.tLo) < c {
		sc.tLo = make([]float64, c)
		sc.tHi = make([]float64, c)
		sc.qpD = make([]float64, c)
		sc.qpQp = make([]float64, c)
		sc.outerSq = make([]float64, c)
		sc.inner = make([]float64, c)
		sc.active = make([]int32, c)
		sc.decided = make([]bool, c)
		sc.verdict = make([]bool, c)
	}
	sc.tLo = sc.tLo[:c]
	sc.tHi = sc.tHi[:c]
	sc.qpD = sc.qpD[:c]
	sc.qpQp = sc.qpQp[:c]
	sc.outerSq = sc.outerSq[:c]
	sc.inner = sc.inner[:c]
	sc.active = sc.active[:c]
	sc.decided = sc.decided[:c]
	sc.verdict = sc.verdict[:c]
}

// PenetratesEnlargedBatch evaluates PenetratesEnlarged(strategy,
// rect_k, eps, l) for every entry of pl and returns the verdict slice
// (valid until the next call on sc).  stats accumulation matches the
// scalar function exactly: one slab test per entry under
// EnteringExiting; one sphere test per entry plus a slab test for each
// inconclusive sphere under BoundingSpheres.  stats may be nil.
func PenetratesEnlargedBatch[T vec.Coord](strategy Strategy, pl Planes[T], eps float64, l vec.Line, sc *BatchScratch, stats *CheckStats) []bool {
	return penetrateBatch(strategy, pl, eps, l, math.Inf(-1), math.Inf(1), false, sc, stats)
}

// PenetratesEnlargedSegmentBatch is the batched
// PenetratesEnlargedSegment: the line is restricted to the parameter
// range [tMin, tMax].
func PenetratesEnlargedSegmentBatch[T vec.Coord](strategy Strategy, pl Planes[T], eps float64, l vec.Line, tMin, tMax float64, sc *BatchScratch, stats *CheckStats) []bool {
	return penetrateBatch(strategy, pl, eps, l, tMin, tMax, true, sc, stats)
}

func penetrateBatch[T vec.Coord](strategy Strategy, pl Planes[T], eps float64, l vec.Line, tMin, tMax float64, segment bool, sc *BatchScratch, stats *CheckStats) []bool {
	c := pl.Count
	sc.grow(c)
	verdict := sc.verdict
	var skip []bool

	if strategy == BoundingSpheres {
		skip = sc.decided
		sphereBatch(pl, eps, l, tMin, tMax, segment, skip, verdict, sc)
		if stats != nil {
			stats.SphereTests += c
			for k := 0; k < c; k++ {
				if skip[k] {
					stats.SphereHits++
				} else {
					stats.SlabTests++
				}
			}
		}
	} else {
		if stats != nil {
			stats.SlabTests += c
		}
		// sphereBatch clears verdict when it runs; without it, clear
		// here so the survivor writes below are the only trues.
		clear(verdict)
	}

	na := slabBatch(pl, eps, l, tMin, tMax, segment, skip, sc)
	for i := 0; i < na; i++ {
		verdict[sc.active[i]] = true
	}
	return verdict
}

// slabBatch runs the Entering/Exiting-Points interval intersection for
// every entry, returning the number of surviving lanes; sc.active[:na]
// holds their indices (a lane survives iff its parameter interval
// stayed non-inverted, i.e. the scalar slab test returns true).
// Entries with skip[k] set never enter the active set.  The
// per-dimension expressions mirror slabPenetratesEnlarged /
// slabPenetratesEnlargedSegment exactly.
//
// The scalar loops return as soon as an interval inverts; the batched
// analogue is lane retirement.  An inverted interval can never
// un-invert (later dimensions only shrink it), so after each dimension
// the dead lanes are dropped from the active set and the sweep stops
// when none remain — verdict- and stat-identical to the scalar path,
// because no per-dimension state beyond the interval is observable.
// Dead lanes' tLo/tHi are left stale: only active lanes are ever read.
//
// The scalar code orders each dimension's two plane parameters with a
// per-entry swap; here the swap is hoisted out of the lane loop, which
// is exact because the planes of an MBR are ordered (L ≤ H, eps ≥ 0):
// the sign of the shared direction component alone decides which plane
// parameter is the lower one.  x−eps is evaluated as x+(−eps), which
// IEEE-754 defines as the identical operation.
func slabBatch[T vec.Coord](pl Planes[T], eps float64, l vec.Line, tMin, tMax float64, segment bool, skip []bool, sc *BatchScratch) int {
	c := pl.Count
	tLo, tHi := sc.tLo, sc.tHi
	active := sc.active
	lo0, hi0 := math.Inf(-1), math.Inf(1)
	if segment {
		if tMin > tMax {
			// Every interval starts inverted; no dimension can help.
			return 0
		}
		lo0, hi0 = tMin, tMax
	}
	na := 0
	j0 := 0
	if skip == nil && pl.Dim > 0 {
		// Every lane is alive in dimension 0, so it runs at full width
		// with the interval initialization and the first survivor
		// compaction fused in.
		p, d := l.P[0], l.D[0]
		lr, hr := pl.LRow(0), pl.HRow(0)
		if d == 0 {
			for k := 0; k < c; k++ {
				if p < float64(lr[k])-eps || p > float64(hr[k])+eps {
					continue
				}
				tLo[k], tHi[k] = lo0, hi0
				active[na] = int32(k)
				na++
			}
		} else {
			aRow, bRow, aOff, bOff := lr, hr, -eps, eps
			if d < 0 {
				aRow, bRow, aOff, bOff = hr, lr, eps, -eps
			}
			na = slabDim0Unrolled(aRow, bRow, tLo, tHi, active, p, d, aOff, bOff, lo0, hi0)
		}
		j0 = 1
	} else {
		for k := 0; k < c; k++ {
			if skip != nil && skip[k] {
				continue
			}
			tLo[k], tHi[k] = lo0, hi0
			active[na] = int32(k)
			na++
		}
	}
	for j := j0; j < pl.Dim && na > 0; j++ {
		p, d := l.P[j], l.D[j]
		lr, hr := pl.LRow(j), pl.HRow(j)
		w := 0
		if d == 0 {
			for i := 0; i < na; i++ {
				k := active[i]
				if p < float64(lr[k])-eps || p > float64(hr[k])+eps {
					continue
				}
				active[w] = k
				w++
			}
			na = w
			continue
		}
		// Gather over the active lanes, four per iteration so the
		// divisions pipeline; compaction is branchless (the store is
		// unconditional, the advance conditional, and w never passes i).
		aRow, bRow, aOff, bOff := lr, hr, -eps, eps
		if d < 0 {
			aRow, bRow, aOff, bOff = hr, lr, eps, -eps
		}
		i := 0
		for ; i+4 <= na; i += 4 {
			k0, k1, k2, k3 := active[i], active[i+1], active[i+2], active[i+3]
			a0 := (float64(aRow[k0]) + aOff - p) / d
			b0 := (float64(bRow[k0]) + bOff - p) / d
			a1 := (float64(aRow[k1]) + aOff - p) / d
			b1 := (float64(bRow[k1]) + bOff - p) / d
			a2 := (float64(aRow[k2]) + aOff - p) / d
			b2 := (float64(bRow[k2]) + bOff - p) / d
			a3 := (float64(aRow[k3]) + aOff - p) / d
			b3 := (float64(bRow[k3]) + bOff - p) / d
			lo, hi := tLo[k0], tHi[k0]
			if a0 > lo {
				lo = a0
			}
			if b0 < hi {
				hi = b0
			}
			tLo[k0], tHi[k0] = lo, hi
			active[w] = k0
			if lo <= hi {
				w++
			}
			lo, hi = tLo[k1], tHi[k1]
			if a1 > lo {
				lo = a1
			}
			if b1 < hi {
				hi = b1
			}
			tLo[k1], tHi[k1] = lo, hi
			active[w] = k1
			if lo <= hi {
				w++
			}
			lo, hi = tLo[k2], tHi[k2]
			if a2 > lo {
				lo = a2
			}
			if b2 < hi {
				hi = b2
			}
			tLo[k2], tHi[k2] = lo, hi
			active[w] = k2
			if lo <= hi {
				w++
			}
			lo, hi = tLo[k3], tHi[k3]
			if a3 > lo {
				lo = a3
			}
			if b3 < hi {
				hi = b3
			}
			tLo[k3], tHi[k3] = lo, hi
			active[w] = k3
			if lo <= hi {
				w++
			}
		}
		for ; i < na; i++ {
			k := active[i]
			a := (float64(aRow[k]) + aOff - p) / d
			b := (float64(bRow[k]) + bOff - p) / d
			lo, hi := tLo[k], tHi[k]
			if a > lo {
				lo = a
			}
			if b < hi {
				hi = b
			}
			tLo[k], tHi[k] = lo, hi
			active[w] = k
			if lo <= hi {
				w++
			}
		}
		na = w
	}
	return na
}

// slabDim0Unrolled evaluates dimension 0's slab interval for every
// entry, four per iteration, intersecting it with the initial
// [lo0, hi0] window (infinite for lines, the clamped parameter range
// for segments), storing the result, and compacting the survivors into
// active — initialization, the first dimension, and the first
// retirement pass fused into one sweep over the rows.  aRow/bRow are
// the lower/upper plane rows pre-ordered by the caller for the sign of
// d, with aOff/bOff the matching ±eps offsets.  Returns the survivor
// count.
func slabDim0Unrolled[T vec.Coord](aRow, bRow []T, tLo, tHi []float64, active []int32, p, d, aOff, bOff, lo0, hi0 float64) int {
	c := len(aRow)
	na := 0
	k := 0
	for ; k+4 <= c; k += 4 {
		a0 := (float64(aRow[k]) + aOff - p) / d
		b0 := (float64(bRow[k]) + bOff - p) / d
		a1 := (float64(aRow[k+1]) + aOff - p) / d
		b1 := (float64(bRow[k+1]) + bOff - p) / d
		a2 := (float64(aRow[k+2]) + aOff - p) / d
		b2 := (float64(bRow[k+2]) + bOff - p) / d
		a3 := (float64(aRow[k+3]) + aOff - p) / d
		b3 := (float64(bRow[k+3]) + bOff - p) / d
		lo, hi := lo0, hi0
		if a0 > lo {
			lo = a0
		}
		if b0 < hi {
			hi = b0
		}
		tLo[k], tHi[k] = lo, hi
		active[na] = int32(k)
		if lo <= hi {
			na++
		}
		lo, hi = lo0, hi0
		if a1 > lo {
			lo = a1
		}
		if b1 < hi {
			hi = b1
		}
		tLo[k+1], tHi[k+1] = lo, hi
		active[na] = int32(k + 1)
		if lo <= hi {
			na++
		}
		lo, hi = lo0, hi0
		if a2 > lo {
			lo = a2
		}
		if b2 < hi {
			hi = b2
		}
		tLo[k+2], tHi[k+2] = lo, hi
		active[na] = int32(k + 2)
		if lo <= hi {
			na++
		}
		lo, hi = lo0, hi0
		if a3 > lo {
			lo = a3
		}
		if b3 < hi {
			hi = b3
		}
		tLo[k+3], tHi[k+3] = lo, hi
		active[na] = int32(k + 3)
		if lo <= hi {
			na++
		}
	}
	for ; k < c; k++ {
		a := (float64(aRow[k]) + aOff - p) / d
		b := (float64(bRow[k]) + bOff - p) / d
		lo, hi := lo0, hi0
		if a > lo {
			lo = a
		}
		if b < hi {
			hi = b
		}
		tLo[k], tHi[k] = lo, hi
		active[na] = int32(k)
		if lo <= hi {
			na++
		}
	}
	return na
}

// sphereBatch runs the bounding-spheres pre-check for every entry,
// setting decided[k] (and verdict[k] when decided) per
// sphereCheckEnlarged / sphereCheckEnlargedSegment.  The accumulation
// order per entry is dimension-ascending, matching the scalar loops.
func sphereBatch[T vec.Coord](pl Planes[T], eps float64, l vec.Line, tMin, tMax float64, segment bool, decided, verdict []bool, sc *BatchScratch) {
	c := pl.Count
	if segment && tMin > tMax {
		for k := 0; k < c; k++ {
			decided[k] = true
			verdict[k] = false // SphereMiss
		}
		return
	}
	qpD, qpQp := sc.qpD, sc.qpQp
	outerSq, inner := sc.outerSq, sc.inner
	for k := 0; k < c; k++ {
		qpD[k], qpQp[k] = 0, 0
		outerSq[k], inner[k] = 0, math.Inf(1)
	}
	// dd depends only on the line; the scalar code recomputes it per
	// entry but always over the same dimension-ascending additions, so
	// one accumulation yields the identical value.
	var dd float64
	for j := 0; j < pl.Dim; j++ {
		d := l.D[j]
		dd += d * d
		p := l.P[j]
		lr, hr := pl.LRow(j), pl.HRow(j)
		k := 0
		for ; k+4 <= c; k += 4 {
			c0 := (float64(lr[k]) + float64(hr[k])) / 2
			c1 := (float64(lr[k+1]) + float64(hr[k+1])) / 2
			c2 := (float64(lr[k+2]) + float64(hr[k+2])) / 2
			c3 := (float64(lr[k+3]) + float64(hr[k+3])) / 2
			qp0 := c0 - p
			qp1 := c1 - p
			qp2 := c2 - p
			qp3 := c3 - p
			qpD[k] += qp0 * d
			qpD[k+1] += qp1 * d
			qpD[k+2] += qp2 * d
			qpD[k+3] += qp3 * d
			qpQp[k] += qp0 * qp0
			qpQp[k+1] += qp1 * qp1
			qpQp[k+2] += qp2 * qp2
			qpQp[k+3] += qp3 * qp3
			h0 := (float64(hr[k])-float64(lr[k]))/2 + eps
			h1 := (float64(hr[k+1])-float64(lr[k+1]))/2 + eps
			h2 := (float64(hr[k+2])-float64(lr[k+2]))/2 + eps
			h3 := (float64(hr[k+3])-float64(lr[k+3]))/2 + eps
			outerSq[k] += h0 * h0
			outerSq[k+1] += h1 * h1
			outerSq[k+2] += h2 * h2
			outerSq[k+3] += h3 * h3
			if h0 < inner[k] {
				inner[k] = h0
			}
			if h1 < inner[k+1] {
				inner[k+1] = h1
			}
			if h2 < inner[k+2] {
				inner[k+2] = h2
			}
			if h3 < inner[k+3] {
				inner[k+3] = h3
			}
		}
		for ; k < c; k++ {
			ctr := (float64(lr[k]) + float64(hr[k])) / 2
			qp := ctr - p
			qpD[k] += qp * d
			qpQp[k] += qp * qp
			h := (float64(hr[k])-float64(lr[k]))/2 + eps
			outerSq[k] += h * h
			if h < inner[k] {
				inner[k] = h
			}
		}
	}
	for k := 0; k < c; k++ {
		var distSq float64
		if dd == 0 {
			distSq = qpQp[k]
		} else if segment {
			t := qpD[k] / dd
			if t < tMin {
				t = tMin
			} else if t > tMax {
				t = tMax
			}
			distSq = qpQp[k] - 2*t*qpD[k] + t*t*dd
		} else {
			distSq = qpQp[k] - qpD[k]*qpD[k]/dd
		}
		if distSq < 0 {
			distSq = 0
		}
		switch {
		case distSq > outerSq[k]:
			decided[k], verdict[k] = true, false // SphereMiss
		case distSq <= inner[k]*inner[k]:
			decided[k], verdict[k] = true, true // SphereHit
		default:
			decided[k], verdict[k] = false, false
		}
	}
}

// IntersectsBatch fills verdict[k] with Rect.Intersects(rect_k, r) for
// every entry of pl (the batched internal-node test of range search).
func IntersectsBatch[T vec.Coord](pl Planes[T], r Rect, sc *BatchScratch, verdict []bool) {
	c := pl.Count
	for k := 0; k < c; k++ {
		verdict[k] = true
	}
	for j := 0; j < pl.Dim; j++ {
		rl, rh := r.L[j], r.H[j]
		lr, hr := pl.LRow(j), pl.HRow(j)
		for k := 0; k < c; k++ {
			if verdict[k] && (float64(hr[k]) < rl || float64(lr[k]) > rh) {
				verdict[k] = false
			}
		}
	}
}

// ContainsBatch fills verdict[k] with Rect.Contains(point_k, r) for
// points stored dimension-major in rows (the L planes of a point-mode
// leaf, where L == H == the point).
func ContainsBatch[T vec.Coord](rows []T, count int, r Rect, verdict []bool) {
	for k := 0; k < count; k++ {
		verdict[k] = true
	}
	for j := range r.L {
		rl, rh := r.L[j], r.H[j]
		row := rows[j*count : (j+1)*count]
		for k := 0; k < count; k++ {
			if verdict[k] && (float64(row[k]) < rl || float64(row[k]) > rh) {
				verdict[k] = false
			}
		}
	}
}

// ConeBatch evaluates the cone test of cone.go for every entry of a
// direction-box node and returns the verdict slice (valid until the next
// call on sc).  pl views the node's planes with Dim one more than the
// feature dimension: row 0 holds the norm bounds (L: r_lo, H: r_hi), rows
// 1… the bounds of the unit-direction box.  Each entry counts as one
// directory box test, into stats.SlabTests; stats may be nil.
func ConeBatch[T vec.Coord](pl Planes[T], cn *Cone, sc *BatchScratch, stats *CheckStats) []bool {
	c := pl.Count
	if stats != nil {
		stats.SlabTests += c
	}
	lowerSq := ConeLowerSqBatch(pl, cn, sc)
	verdict := sc.verdict
	rLo, rHi := pl.LRow(0), pl.HRow(0)
	for k := 0; k < c; k++ {
		verdict[k] = cn.Enters(lowerSq[k], float64(rLo[k]), float64(rHi[k]))
	}
	return verdict
}

// ConeLowerSqBatch returns cn.LowerSq of every entry of pl (laid out as
// ConeBatch describes), valid until the next call on sc.  Like the slab
// kernel it sweeps one row pair at a time over contiguous memory, four
// entries per iteration, accumulating each entry's two squared box
// distances dimension-ascending — the scalar function's expressions in
// the scalar function's order, so the two agree bit for bit.
func ConeLowerSqBatch[T vec.Coord](pl Planes[T], cn *Cone, sc *BatchScratch) []float64 {
	c := pl.Count
	sc.grow(c)
	mp, mn, out := sc.qpD, sc.qpQp, sc.tLo
	clear(mp)
	clear(mn)
	for j, x := range cn.Dir {
		lr, hr := pl.LRow(1+j), pl.HRow(1+j)
		k := 0
		for ; k+4 <= c; k += 4 {
			gp0, gn0 := coneGaps(float64(lr[k]), float64(hr[k]), x)
			gp1, gn1 := coneGaps(float64(lr[k+1]), float64(hr[k+1]), x)
			gp2, gn2 := coneGaps(float64(lr[k+2]), float64(hr[k+2]), x)
			gp3, gn3 := coneGaps(float64(lr[k+3]), float64(hr[k+3]), x)
			mp[k] += gp0 * gp0
			mp[k+1] += gp1 * gp1
			mp[k+2] += gp2 * gp2
			mp[k+3] += gp3 * gp3
			mn[k] += gn0 * gn0
			mn[k+1] += gn1 * gn1
			mn[k+2] += gn2 * gn2
			mn[k+3] += gn3 * gn3
		}
		for ; k < c; k++ {
			gp, gn := coneGaps(float64(lr[k]), float64(hr[k]), x)
			mp[k] += gp * gp
			mn[k] += gn * gn
		}
	}
	for k, r := range pl.LRow(0) {
		out[k] = cn.lower(float64(r), mp[k], mn[k])
	}
	return out
}
