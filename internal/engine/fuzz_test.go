package engine

import (
	"math"
	"testing"

	"scaleshift/internal/rtree"
)

// sane maps arbitrary fuzz floats into a bounded non-negative range so
// the properties are checked over meaningful geometry rather than NaN
// plumbing.
func sane(x, hi float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(math.Abs(x), hi)
}

// FuzzCostEstimatesMonotone checks the planner's cost-model contract:
// every estimate is non-negative and finite-or-clamped, and estimates
// are monotone non-decreasing in both the error bound and the store
// size — a planner whose predicted work shrank as the query loosened
// or the database grew would flip paths erratically.
func FuzzCostEstimatesMonotone(f *testing.F) {
	f.Add(0.1, 0.5, uint16(100), uint16(5000), 50.0, 1e6, uint16(2000), uint8(3), 1.0, 7.0, 0.2)
	f.Add(0.0, 0.0, uint16(0), uint16(0), 0.0, 0.0, uint16(0), uint8(1), 0.0, 0.0, 0.0)
	f.Add(1e3, 2e3, uint16(7), uint16(7), 1e-3, 1e-9, uint16(1), uint8(12), 1e6, 3.0, 9.0)
	f.Fuzz(func(t *testing.T, epsA, epsB float64, winA, winB uint16, diam, vol float64, entries uint16, dim uint8, d1, d2, d3 float64) {
		eps1, eps2 := sane(epsA, 1e9), sane(epsB, 1e9)
		if eps1 > eps2 {
			eps1, eps2 = eps2, eps1
		}
		w1, w2 := int(winA), int(winB)
		if w1 > w2 {
			w1, w2 = w2, w1
		}
		h := rtree.CostHints{
			Entries:  int(entries),
			Nodes:    1 + int(entries)/8,
			Height:   1 + int(entries)/64,
			Dim:      int(dim),
			Diameter: sane(diam, 1e6),
			Volume:   sane(vol, 1e12),
		}
		dists := []float64{sane(d1, 1e9), sane(d2, 1e9), sane(d3, 1e9)}

		checkCost := func(name string, c Cost) {
			if c.Candidates < 0 || c.NodeReads < 0 || c.Units < 0 {
				t.Fatalf("%s produced a negative estimate: %+v", name, c)
			}
			if math.IsNaN(c.Candidates) || math.IsNaN(c.NodeReads) || math.IsNaN(c.Units) {
				t.Fatalf("%s produced NaN: %+v", name, c)
			}
		}
		checkMonotone := func(name string, lo, hi Cost) {
			if lo.Units > hi.Units || lo.Candidates > hi.Candidates {
				t.Fatalf("%s not monotone: %+v then %+v", name, lo, hi)
			}
		}

		for _, w := range []int{w1, w2} {
			lo, hi := EstimateTreeCost(h, w, eps1), EstimateTreeCost(h, w, eps2)
			checkCost("tree", lo)
			checkCost("tree", hi)
			checkMonotone("tree in eps", lo, hi)

			los, his := EstimateTreeCostSampled(h, w, eps1, dists), EstimateTreeCostSampled(h, w, eps2, dists)
			checkCost("tree-sampled", los)
			checkCost("tree-sampled", his)
			checkMonotone("tree-sampled in eps", los, his)

			checkCost("scan", EstimateScanCost(w))
		}
		for _, eps := range []float64{eps1, eps2} {
			checkMonotone("tree in windows", EstimateTreeCost(h, w1, eps), EstimateTreeCost(h, w2, eps))
			checkMonotone("tree-sampled in windows", EstimateTreeCostSampled(h, w1, eps, dists), EstimateTreeCostSampled(h, w2, eps, dists))
			checkMonotone("scan in windows", EstimateScanCost(w1), EstimateScanCost(w2))
			if s1, s2 := SampleSelectivity(dists, eps1), SampleSelectivity(dists, eps2); s1 < 0 || s1 > 1 || math.IsNaN(s1) || s1 > s2 {
				t.Fatalf("sample selectivity not monotone in [0,1]: %v then %v", s1, s2)
			}
		}
	})
}

// FuzzPlanChoosesAvailablePath checks the planning contract over
// arbitrary availability patterns and costs: ChoosePath errors if and
// only if nothing is available (or an unavailable path is forced), and
// a successful choice always names an available path — the cheapest,
// unless forced.
func FuzzPlanChoosesAvailablePath(f *testing.F) {
	f.Add(true, true, 10.0, 30.0, uint8(0))
	f.Add(false, false, 1.0, 1.0, uint8(1))
	f.Add(false, true, 5.0, 5.0, uint8(2))
	f.Fuzz(func(t *testing.T, treeOK, scanOK bool, c1, c2 float64, forceRaw uint8) {
		plans := []PathPlan{
			row(PathRTree, treeOK, "r", units(sane(c1, 1e9))),
			row(PathScan, scanOK, "s", units(sane(c2, 1e9))),
		}
		avail := map[PathKind]bool{PathRTree: treeOK, PathScan: scanOK}
		force := PathKind(forceRaw % uint8(NumPathKinds))

		k, err := ChoosePath(plans, force)
		if err != nil {
			if force == PathAuto && (treeOK || scanOK) {
				t.Fatalf("auto plan errored with available paths: %v", err)
			}
			if force != PathAuto && avail[force] {
				t.Fatalf("forcing available %v errored: %v", force, err)
			}
			return
		}
		chosen := plans[k].Path
		if !avail[chosen] {
			t.Fatalf("plan chose unavailable path %v (avail %v)", chosen, avail)
		}
		if force != PathAuto && chosen != force {
			t.Fatalf("forced %v but chose %v", force, chosen)
		}
		for _, p := range plans {
			if force == PathAuto && p.Available && p.Cost.Units < plans[k].Cost.Units {
				t.Fatalf("chose %v at %v units over %v at %v", chosen, plans[k].Cost.Units, p.Path, p.Cost.Units)
			}
		}
	})
}
