package engine

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"scaleshift/internal/rtree"
	"scaleshift/internal/vec"
)

// row is one plan-table row for the choice tests.
func row(kind PathKind, available bool, reason string, cost Cost) PathPlan {
	return PathPlan{Path: kind, Available: available, Reason: reason, Cost: cost}
}

func units(u float64) Cost { return Cost{Candidates: u, Units: u} }

func TestPathKindStringParseRoundTrip(t *testing.T) {
	for _, k := range []PathKind{PathAuto, PathRTree, PathScan} {
		got, err := ParsePathKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParsePathKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	// "trail" named the retired sub-trail probe: unknown, like any other.
	for _, name := range []string{"btree", "trail"} {
		if _, err := ParsePathKind(name); err == nil {
			t.Errorf("ParsePathKind accepted the unknown path %q", name)
		}
	}
	if NumPathKinds != 3 || PathScan != 2 {
		t.Errorf("NumPathKinds = %d, PathScan = %d: wire and metrics indices moved", NumPathKinds, PathScan)
	}
	if s := PathKind(99).String(); !strings.Contains(s, "99") {
		t.Errorf("unknown kind String = %q", s)
	}
}

func TestPlanPicksCheapestAvailable(t *testing.T) {
	plans := []PathPlan{row(PathRTree, true, "", units(10)), row(PathScan, true, "", units(100))}
	k, err := ChoosePath(plans, PathAuto)
	if err != nil {
		t.Fatal(err)
	}
	if plans[k].Path != PathRTree || plans[k].Cost.Candidates != 10 {
		t.Errorf("chose %+v, want rtree cost-based", plans[k])
	}

	plans[1].Cost = units(1)
	if k, _ := ChoosePath(plans, PathAuto); plans[k].Path != PathScan {
		t.Errorf("after cheapening scan, chose %v", plans[k].Path)
	}
}

func TestPlanSkipsUnavailableAndRecordsReason(t *testing.T) {
	plans := []PathPlan{row(PathRTree, false, "no point entries", units(1)), row(PathScan, true, "", units(1000))}
	k, err := ChoosePath(plans, PathAuto)
	if err != nil {
		t.Fatal(err)
	}
	if plans[k].Path != PathScan {
		t.Errorf("chose unavailable path %v", plans[k].Path)
	}
	_, err = ChoosePath(plans, PathRTree)
	if !errors.Is(err, ErrUnsupported) || !strings.Contains(err.Error(), "no point entries") {
		t.Errorf("forcing the unavailable row: %v, want ErrUnsupported naming the reason", err)
	}
}

func TestPlanTieBreaksTowardRegistrationOrder(t *testing.T) {
	plans := []PathPlan{row(PathRTree, true, "", units(7)), row(PathScan, true, "", units(7))}
	k, err := ChoosePath(plans, PathAuto)
	if err != nil {
		t.Fatal(err)
	}
	if plans[k].Path != PathRTree {
		t.Errorf("tie chose %v, want the earlier row (rtree)", plans[k].Path)
	}
}

func TestPlanForce(t *testing.T) {
	plans := []PathPlan{
		row(PathRTree, false, "no tree", units(1)),
		row(PathScan, true, "", units(1000)),
	}
	k, err := ChoosePath(plans, PathScan)
	if err != nil {
		t.Fatal(err)
	}
	if plans[k].Path != PathScan {
		t.Errorf("forced scan got %v", plans[k].Path)
	}
	if _, err := ChoosePath(plans, PathRTree); !errors.Is(err, ErrUnsupported) {
		t.Errorf("forcing an unavailable path: %v, want ErrUnsupported", err)
	}
	if _, err := ChoosePath(plans, PathKind(42)); !errors.Is(err, ErrUnsupported) {
		t.Errorf("forcing a path the table lacks: %v, want ErrUnsupported", err)
	}
}

func TestPlanNoPathAvailable(t *testing.T) {
	if _, err := ChoosePath([]PathPlan{row(PathRTree, false, "x", Cost{})}, PathAuto); !errors.Is(err, ErrUnsupported) {
		t.Errorf("a table with no available path: %v, want ErrUnsupported", err)
	}
}

func TestExplainWriteText(t *testing.T) {
	ex := &Explain{Chosen: PathRTree, Pieces: 1, EstCandidates: 3, Plans: []PathPlan{
		row(PathRTree, true, "", units(3)),
		row(PathScan, false, "no windows", Cost{}),
	}}
	ex.ActualCandidates = 5
	ex.Matches = 2
	var b strings.Builder
	if err := ex.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"path=rtree", "cost-based", "unavailable: no windows", "5 actual", "2 matched", "stages:"} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText output missing %q:\n%s", want, out)
		}
	}
}

func TestEstimateCostShapes(t *testing.T) {
	h := rtree.CostHints{Entries: 1000, Nodes: 60, Height: 3, Dim: 6, Diameter: 100, Volume: 1e9}

	small := EstimateTreeCost(h, 1000, 0.01)
	huge := EstimateTreeCost(h, 1000, 1e6)
	if small.Units >= huge.Units {
		t.Errorf("tree cost not increasing in eps: %v vs %v", small.Units, huge.Units)
	}
	// At huge eps the probe degenerates to visiting everything, so the
	// scan (no index pages) must be cheaper.
	if scan := EstimateScanCost(1000); huge.Units <= scan.Units {
		t.Errorf("degenerate tree probe (%v) not costlier than scan (%v)", huge.Units, scan.Units)
	}
	// At tiny eps over a big store the tree must win.
	if scan := EstimateScanCost(1000); small.Units >= scan.Units {
		t.Errorf("selective tree probe (%v) not cheaper than scan (%v)", small.Units, scan.Units)
	}
}

func TestEstimatesDegenerateGeometry(t *testing.T) {
	// Empty tree: zero cost, no NaNs.
	c := EstimateTreeCost(rtree.CostHints{}, 0, 0.5)
	if c.Units != 0 || c.Candidates != 0 {
		t.Errorf("empty tree cost = %+v", c)
	}
	// Flat MBR (zero volume) clamps selectivity to 1.
	h := rtree.CostHints{Entries: 10, Nodes: 1, Height: 1, Dim: 6, Diameter: 5, Volume: 0}
	if c := EstimateTreeCost(h, 10, 0.1); c.Candidates != 10 {
		t.Errorf("flat-MBR candidates = %v, want all 10", c.Candidates)
	}
}

func TestSampleSelectivity(t *testing.T) {
	if s := SampleSelectivity(nil, 1); s != 0 {
		t.Errorf("empty sample selectivity = %v, want 0", s)
	}
	dists := []float64{0.5, 1, 2, 4}
	prev := 0.0
	for _, eps := range []float64{0, 0.5, 1.5, 3, 10} {
		s := SampleSelectivity(dists, eps)
		if s <= 0 || s >= 1 {
			t.Errorf("eps %g: selectivity %v outside (0,1)", eps, s)
		}
		if s < prev {
			t.Errorf("eps %g: selectivity fell from %v to %v", eps, prev, s)
		}
		prev = s
	}
	// All four within eps=10: smoothed to 4.5/5, not 1.
	if s := SampleSelectivity(dists, 10); s != 4.5/5 {
		t.Errorf("full-coverage selectivity %v, want 0.9", s)
	}
}

func TestSegmentDistances(t *testing.T) {
	l := vec.Line{P: vec.Vector{0, 0}, D: vec.Vector{1, 0}}
	sample := []vec.Vector{{5, 0}, {5, 3}, {-2, 0}}
	inf := math.Inf(1)

	// Full line: distance is perpendicular.
	d := SegmentDistances(nil, sample, l, -inf, inf)
	if d[0] != 0 || d[1] != 3 || d[2] != 0 {
		t.Errorf("line distances %v, want [0 3 0]", d)
	}
	// Segment [0, 1]: points beyond an endpoint measure to it.
	d = SegmentDistances(d, sample, l, 0, 1)
	if d[0] != 4 || d[2] != 2 {
		t.Errorf("segment distances %v, want [4 ... 2]", d)
	}
	if len(SegmentDistances(d, nil, l, 0, 1)) != 0 {
		t.Error("empty sample should return no distances")
	}
}

// TestSegmentDistancesBitIdenticalToPLD pins the allocation-free
// scoring to the composition of vec functions the planner was
// calibrated with — vec.PLD, and vec.Dist to the clamped end point — so
// no sampled selectivity, and with it no plan choice, can move.  The
// lines cover the paper's shape (through the origin), an offset base
// point, a zero direction, and magnitudes where a reassociated sum
// would round differently.
func TestSegmentDistancesBitIdenticalToPLD(t *testing.T) {
	reference := func(sample []vec.Vector, l vec.Line, tMin, tMax float64) []float64 {
		out := make([]float64, len(sample))
		for i, p := range sample {
			d, t := vec.PLD(p, l)
			switch {
			case t < tMin:
				d = vec.Dist(p, l.At(tMin))
			case t > tMax:
				d = vec.Dist(p, l.At(tMax))
			}
			out[i] = d
		}
		return out
	}
	rng := rand.New(rand.NewSource(17))
	inf := math.Inf(1)
	scratch := make([]float64, 0, 256)
	for trial := 0; trial < 400; trial++ {
		dim := 1 + rng.Intn(8)
		mag := math.Pow(10, float64(rng.Intn(7)-3)*50) // 1e-150 … 1e150
		sample := make([]vec.Vector, 1+rng.Intn(256))
		for i := range sample {
			sample[i] = make(vec.Vector, dim)
			for j := range sample[i] {
				sample[i][j] = rng.NormFloat64() * mag
			}
		}
		l := vec.Line{P: make(vec.Vector, dim), D: make(vec.Vector, dim)}
		for j := 0; j < dim; j++ {
			if trial%3 == 0 {
				l.P[j] = rng.NormFloat64() * mag
			}
			if trial%5 != 0 {
				l.D[j] = rng.NormFloat64() * mag
			}
		}
		tMin, tMax := -inf, inf
		if trial%2 == 0 {
			tMin, tMax = rng.NormFloat64(), rng.NormFloat64()+2
		}
		want := reference(sample, l, tMin, tMax)
		got := SegmentDistances(scratch, sample, l, tMin, tMax)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d distances for %d points", trial, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d point %d: %v (%x), composed vec functions give %v (%x)",
					trial, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
	sample := []vec.Vector{{1, 2, 3}, {4, 5, 6}}
	l := vec.Line{P: vec.Vector{0, 0, 0}, D: vec.Vector{1, 1, 0}}
	if allocs := testing.AllocsPerRun(20, func() { scratch = SegmentDistances(scratch, sample, l, 0, 1) }); allocs != 0 {
		t.Errorf("scoring into scratch allocated %.0f times", allocs)
	}
}

func TestSampledEstimateSeesConcentration(t *testing.T) {
	// A huge, mostly empty MBR: the geometric model thinks the probe is
	// selective, but every sampled feature sits on the query line.
	h := rtree.CostHints{Entries: 1000, Nodes: 60, Height: 3, Dim: 6, Diameter: 1e3, Volume: 1e15}
	geo := EstimateTreeCost(h, 1000, 1)
	onLine := make([]float64, 64)
	sampled := EstimateTreeCostSampled(h, 1000, 1, onLine)
	if sampled.Candidates <= geo.Candidates {
		t.Errorf("concentrated sample did not raise the estimate: %v vs %v", sampled.Candidates, geo.Candidates)
	}
	// Nearly all entries are candidates now, so the probe must cost
	// more than the scan — the regime where the planner flips.
	if scan := EstimateScanCost(1000); sampled.Units <= scan.Units {
		t.Errorf("saturated probe (%v) not costlier than scan (%v)", sampled.Units, scan.Units)
	}
	// A distant sample leaves the geometric floor intact.
	far := []float64{1e9, 1e9}
	if c := EstimateTreeCostSampled(h, 1000, 1, far); c.Candidates < geo.Candidates {
		t.Errorf("distant sample lowered the geometric estimate: %v < %v", c.Candidates, geo.Candidates)
	}
}
