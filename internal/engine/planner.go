package engine

import (
	"fmt"
	"math"

	"scaleshift/internal/rtree"
	"scaleshift/internal/vec"
)

// NodeReadCost is the cost of one index-page read relative to one
// window verification.  A node access runs a slab penetration test per
// entry (M ≈ 20 tests of O(d) planes each) plus allocation and
// recursion overhead, while most verifications stop at the O(1)
// prefix-sum pre-filter and only true near-matches pay the full
// Theorem-1 pass.  Calibrated against results/planner_ablation.txt
// (make bench-planner), where the measured rtree/scan crossover sits
// at a candidate selectivity of roughly one half.
const NodeReadCost = 12.0

// unitBallVolume returns the volume of the m-dimensional unit ball.
func unitBallVolume(m int) float64 {
	fm := float64(m)
	return math.Pow(math.Pi, fm/2) / math.Gamma(fm/2+1)
}

// lineSelectivity estimates the fraction of uniformly spread feature
// points that lie within eps of a line crossing the index MBR: the
// volume of an ε-radius cylinder of length diameter (the ε-ball swept
// along the line), divided by the MBR volume, clamped to [0, 1].
// Degenerate geometry (flat or empty MBR) clamps to 1 — assume the
// probe filters nothing rather than everything.  The estimate is
// non-negative and monotone in eps by construction.
func lineSelectivity(diameter, volume float64, dim int, eps float64) float64 {
	if dim < 2 || volume <= 0 || math.IsNaN(volume) {
		return 1
	}
	if eps < 0 {
		eps = 0
	}
	cyl := diameter * unitBallVolume(dim-1) * math.Pow(eps, float64(dim-1))
	sel := cyl / volume
	if math.IsNaN(sel) || sel > 1 {
		return 1
	}
	if sel < 0 {
		return 0
	}
	return sel
}

// SegmentDistances appends to dst[:0] each sample point's Euclidean
// distance to the query segment {P + t·D : t ∈ [tMin, tMax]} — the
// empirical input to SampleSelectivity.  Pass ±Inf bounds for a full
// line.  It runs on every query of every segment, so it allocates
// nothing beyond dst; the arithmetic is, operation for operation, that
// of vec.PLD for a point whose foot lies inside the range and of
// vec.Dist to the range's end point otherwise, so the distances — and
// every plan choice made from them — are bit-identical to composing
// those functions.
func SegmentDistances(dst []float64, sample []vec.Vector, l vec.Line, tMin, tMax float64) []float64 {
	dst = dst[:0]
	dd := vec.NormSq(l.D)
	for _, p := range sample {
		var t float64
		if dd != 0 {
			var qpD float64
			for i, x := range p {
				qpD += (x - l.P[i]) * l.D[i]
			}
			t = qpD / dd
		}
		var s float64
		if t < tMin || t > tMax {
			end := tMax
			if t < tMin {
				end = tMin
			}
			for i, x := range p {
				r := x - (l.P[i] + end*l.D[i])
				s += r * r
			}
		} else {
			for i, x := range p {
				r := (x - l.P[i]) - t*l.D[i]
				s += r * r
			}
		}
		dst = append(dst, math.Sqrt(s))
	}
	return dst
}

// SampleSelectivity estimates the fraction of stored features within
// eps of the query from measured sample distances, with add-half
// (Laplace) smoothing so tiny samples never report exactly 0 or 1.
// Unlike the MBR-volume model it sees the data's actual concentration:
// overlapping extraction windows string features into near-1-D trails
// that a uniform-spread model misses by orders of magnitude.  Monotone
// non-decreasing in eps.
func SampleSelectivity(dists []float64, eps float64) float64 {
	if len(dists) == 0 {
		return 0
	}
	within := 0
	for _, d := range dists {
		if d <= eps {
			within++
		}
	}
	return (float64(within) + 0.5) / (float64(len(dists)) + 1)
}

// estimateNodes predicts the pages a line probe touches: the root-to-
// leaf spine is always paid, and the rest of the directory is entered
// in proportion to √selectivity (directory MBRs are fatter than leaf
// points, so they are penetrated more often than points qualify).
func estimateNodes(h rtree.CostHints, sel float64) float64 {
	if h.Nodes <= 0 {
		return 0
	}
	est := float64(h.Height) + float64(h.Nodes-1)*math.Sqrt(sel)
	return math.Min(est, float64(h.Nodes))
}

// EstimateTreeCost predicts the cost of the point-entry R*-tree probe
// (PathRTree) over an index holding windows candidate windows, from
// MBR geometry alone.
func EstimateTreeCost(h rtree.CostHints, windows int, eps float64) Cost {
	return EstimateTreeCostSampled(h, windows, eps, nil)
}

// EstimateTreeCostSampled is EstimateTreeCost refined by measured
// sample-to-line distances (SegmentDistances over h.Sample): the
// selectivity is the larger of the geometric and the empirical
// estimate, so concentrated data cannot fool the planner into a
// doomed index probe, and a degenerate ε still clamps to everything.
func EstimateTreeCostSampled(h rtree.CostHints, windows int, eps float64, sampleDists []float64) Cost {
	sel := lineSelectivity(h.Diameter, h.Volume, h.Dim, eps)
	if s := SampleSelectivity(sampleDists, eps); s > sel {
		sel = s
	}
	cands := float64(windows) * sel
	nodes := estimateNodes(h, sel)
	return Cost{Candidates: cands, NodeReads: nodes, Units: NodeReadCost*nodes + cands}
}

// EstimateScanCost predicts the cost of the sequential scan
// (PathScan): every indexed window is emitted and verified, no index
// pages are read.
func EstimateScanCost(windows int) Cost {
	w := float64(windows)
	if w < 0 {
		w = 0
	}
	return Cost{Candidates: w, Units: w}
}

// ChoosePath picks the row of plans a probe runs: the forced path when
// force is not PathAuto — an error when that row is unavailable or the
// table has none — otherwise the available row with the lowest
// estimated cost, ties going to the earlier row, so the choice is
// deterministic and a table that lists index probes before the scan
// keeps the paper's behavior on an exact tie.  It returns the row's
// index; every failure is an ErrUnsupported.
func ChoosePath(plans []PathPlan, force PathKind) (int, error) {
	chosen := -1
	for i, p := range plans {
		if force != PathAuto {
			if p.Path != force {
				continue
			}
			if !p.Available {
				return -1, fmt.Errorf("engine: %w: path %s unavailable: %s", ErrUnsupported, force, p.Reason)
			}
			return i, nil
		}
		if p.Available && (chosen < 0 || p.Cost.Units < plans[chosen].Cost.Units) {
			chosen = i
		}
	}
	if force != PathAuto {
		return -1, fmt.Errorf("engine: %w: path %s is not registered", ErrUnsupported, force)
	}
	if chosen < 0 {
		return -1, fmt.Errorf("engine: %w: no access path available", ErrUnsupported)
	}
	return chosen, nil
}
