package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"scaleshift/internal/bench/rstar"
	"scaleshift/internal/core"
	"scaleshift/internal/engine"
	"scaleshift/internal/geom"
	"scaleshift/internal/oracle"
	"scaleshift/internal/rtree"
	"scaleshift/internal/store"
	"scaleshift/internal/vec"
)

// The exactness suites: each is one dimension of oracle.Case — options,
// build, schedule, artifact round trip, query kind — held by
// oracle.Check to the sequential scan.

// testOpts uses a short window so small stores hold many windows.
func testOpts() core.Options {
	opts := core.DefaultOptions()
	opts.WindowLen = 32
	return opts
}

// stockCase is the standard mix over companies × days synthetic prices.
func stockCase(opts core.Options, companies, days int) oracle.Case {
	data := oracle.Stock(companies, days, 1)
	return oracle.Case{Opts: opts, Data: data, Queries: oracle.Mix(data, opts.WindowLen, 1)}
}

// disguised is a·w + b for the window of data at (seq, start, n).
func disguised(data []oracle.Seq, seq, start, n int, a, b float64) vec.Vector {
	return vec.Apply(data[seq].Values[start:start+n], a, b)
}

// onEveryPath returns each range query of qs under every access path,
// and its k-NN queries as they are.
func onEveryPath(qs []core.Query) []core.Query {
	var out []core.Query
	for _, q := range qs {
		if q.K > 0 {
			out = append(out, q)
			continue
		}
		for _, force := range []engine.PathKind{engine.PathAuto, engine.PathRTree, engine.PathScan} {
			q.Force = force
			out = append(out, q)
		}
	}
	return out
}

// grow turns data into a schedule that reaches it: the index is built
// over random prefixes of the first sequences, the rest arrive through
// AppendAndIndex, and every sequence is completed through AppendValues
// in random chunks of at most maxChunk, with a Compact now and then.
func grow(data []oracle.Seq, rng *rand.Rand, maxChunk int) ([]oracle.Seq, []oracle.Step) {
	introduced := rng.Intn(len(data) + 1)
	done := make([]int, len(data))
	var initial []oracle.Seq
	for seq := range introduced {
		done[seq] = rng.Intn(len(data[seq].Values) + 1)
		initial = append(initial, oracle.Seq{Name: data[seq].Name, Values: data[seq].Values[:done[seq]]})
	}
	var steps []oracle.Step
	for {
		var open []int
		for seq := range introduced {
			if done[seq] < len(data[seq].Values) {
				open = append(open, seq)
			}
		}
		switch {
		case introduced < len(data) && (len(open) == 0 || rng.Intn(3) == 0):
			done[introduced] = rng.Intn(len(data[introduced].Values) + 1)
			steps = append(steps, oracle.Step{Op: oracle.AppendAndIndex, Name: data[introduced].Name, Values: data[introduced].Values[:done[introduced]]})
			introduced++
		case len(open) == 0:
			return initial, steps
		case rng.Intn(8) == 0:
			steps = append(steps, oracle.Step{Op: oracle.Compact})
		default:
			seq := open[rng.Intn(len(open))]
			end := min(len(data[seq].Values), done[seq]+1+rng.Intn(maxChunk))
			steps = append(steps, oracle.Step{Op: oracle.AppendValues, Seq: seq, Values: data[seq].Values[done[seq]:end]})
			done[seq] = end
		}
	}
}

func TestSearchExactlyMatchesSeqScan(t *testing.T) {
	for _, strategy := range []geom.Strategy{geom.EnteringExiting, geom.BoundingSpheres} {
		t.Run(strategy.String(), func(t *testing.T) {
			opts := testOpts()
			opts.Strategy = strategy
			oracle.Check(t, stockCase(opts, 15, 150))
		})
	}
}

func TestNearestNeighborsMatchesBruteForce(t *testing.T) {
	c := stockCase(testOpts(), 12, 150)
	c.Queries = slices.DeleteFunc(c.Queries, func(q core.Query) bool { return q.K == 0 })
	for _, k := range []int{1, 5, 20} {
		c.Queries = append(c.Queries, core.Query{Vec: disguised(c.Data, 3, 40, 32, 1.3, 2), K: k})
	}
	oracle.Check(t, c)
}

// TestSearchLongMatchesBruteForce: multipiece queries of exactly three
// pieces and of a ragged length, at ε from a hair above 0 to loose, also
// with their page fetches replayed through a buffer pool.
func TestSearchLongMatchesBruteForce(t *testing.T) {
	data := oracle.Stock(10, 200, 1)
	var qs []core.Query
	var pools []*store.BufferPool
	for _, length := range []int{96, 100} {
		q := disguised(data, 7, 31, length, 1.7, -8)
		for _, frac := range []float64{1e-6, 0.1, 0.4} {
			pools = append(pools, store.NewBufferPool(4))
			qs = append(qs, core.Query{Vec: q, Eps: oracle.Eps(q, frac)},
				core.Query{Vec: q, Eps: oracle.Eps(q, frac), Pool: pools[len(pools)-1]})
		}
	}
	oracle.Check(t, oracle.Case{Data: data, Queries: qs})
	for i, pool := range pools {
		if pool.Hits()+pool.Misses() == 0 {
			t.Errorf("pool %d attached to a long query but never consulted", i)
		}
	}
}

func TestScaleBoundedSearchExact(t *testing.T) {
	for _, strategy := range []geom.Strategy{geom.EnteringExiting, geom.BoundingSpheres} {
		opts := testOpts()
		opts.Strategy = strategy
		c := stockCase(opts, 10, 130)
		q := disguised(c.Data, 4, 30, 32, 2, 5)
		costs := core.UnboundedCosts()
		costs.ScaleMin, costs.ScaleMax = 0.1, 3
		c.Queries = nil
		for _, frac := range []float64{0.02, 0.15, 0.5} {
			c.Queries = append(c.Queries, core.Query{Vec: q, Eps: oracle.Eps(q, frac), Costs: costs})
		}
		c.Queries = append(c.Queries, core.Query{Vec: q, K: 5, Costs: costs})
		oracle.Check(t, c)
	}
}

func TestHaarReductionIsExactToo(t *testing.T) {
	opts := testOpts()
	opts.Reduction = core.ReductionHaar
	oracle.Check(t, stockCase(opts, 10, 140))
	// Haar requires a power-of-two window.
	bad := testOpts()
	bad.Reduction = core.ReductionHaar
	bad.WindowLen = 100
	if _, err := core.NewIndex(store.New(), bad); err == nil {
		t.Error("non-power-of-two Haar window accepted")
	}
	// Unknown reduction kind rejected.
	ugly := testOpts()
	ugly.Reduction = core.ReductionKind(9)
	if _, err := core.NewIndex(store.New(), ugly); err == nil {
		t.Error("unknown reduction accepted")
	}
}

func TestAllVariantsAgree(t *testing.T) {
	for _, v := range []struct {
		name   string
		mutate func(*core.Options)
	}{
		{"baseline", func(o *core.Options) {}},
		{"spheres", func(o *core.Options) { o.Strategy = geom.BoundingSpheres }},
		{"haar", func(o *core.Options) { o.Reduction = core.ReductionHaar }},
		{"quadratic", func(o *core.Options) { o.Tree.Split = rtree.SplitQuadratic }},
		{"linear-noreinsert", func(o *core.Options) {
			o.Tree.Split = rtree.SplitLinear
			o.Tree.ReinsertCount = 0
		}},
		{"xtree", func(o *core.Options) { o.Tree.SupernodeMaxOverlap = 0.1 }},
		{"fc2", func(o *core.Options) { o.Coefficients = 2; o.Tree = rtree.DefaultConfig(4) }},
	} {
		t.Run(v.name, func(t *testing.T) {
			opts := testOpts()
			v.mutate(&opts)
			oracle.Check(t, stockCase(opts, 10, 130))
		})
	}
}

// TestBuildBulkMatchesBuild: a bulk-built index answers as the scan
// does, and stays dynamic; BuildBulk refuses an index that holds
// windows.
func TestBuildBulkMatchesBuild(t *testing.T) {
	c := stockCase(testOpts(), 12, 150)
	c.Build = (*core.Index).BuildBulk
	c.Steps = []oracle.Step{{Op: oracle.AppendAndIndex, Name: "X", Values: c.Data[3].Values[:60]}}
	oracle.Check(t, c)

	st := store.New()
	st.AppendSequence("a", c.Data[0].Values)
	ix, err := core.NewIndex(st, testOpts())
	if err == nil {
		err = ix.BuildBulk()
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.BuildBulk(); err == nil {
		t.Error("BuildBulk on non-empty index accepted")
	}
}

// TestSearchBatchMatchesSerial: Check answers every query through
// ExecBatch beside Exec, with the same ledger totals; one bad query
// fails the whole batch.
func TestSearchBatchMatchesSerial(t *testing.T) {
	c := stockCase(testOpts(), 10, 120)
	oracle.Check(t, c)
	st := store.New()
	st.AppendSequence("a", c.Data[0].Values)
	ix, err := core.NewIndex(st, testOpts())
	if err == nil {
		err = ix.Build()
	}
	if err != nil {
		t.Fatal(err)
	}
	bad := append(slices.Clone(c.Queries[:3]), core.Query{Vec: make(vec.Vector, 3), Eps: 1})
	if _, _, err := ix.ExecBatch(context.Background(), bad, 0, nil); err == nil {
		t.Error("bad query accepted in batch")
	}
}

// TestCrossPathEquivalence is the engine's core invariant: for
// randomized stores and queries, the tree, the scan oracle and the
// default (the tree) return the scan's answer, bit for bit.
func TestCrossPathEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := range 3 {
		data := oracle.Stock(3+rng.Intn(5), 32+rng.Intn(120), int64(trial+1))
		oracle.Check(t, oracle.Case{Data: data, Queries: onEveryPath(oracle.Mix(data, 32, int64(trial)))})
	}
}

// TestCrossPathEquivalenceLong: long queries whichever path serves the
// pieces.
func TestCrossPathEquivalenceLong(t *testing.T) {
	data := oracle.Stock(4, 150, 1)
	q := disguised(data, 1, 3, 64, 2, -5)
	var qs []core.Query
	for _, frac := range []float64{0.01, 0.3, 5} {
		qs = append(qs, core.Query{Vec: q, Eps: oracle.Eps(q, frac)})
	}
	oracle.Check(t, oracle.Case{Data: data, Queries: onEveryPath(qs)})
}

func TestBuildVariantsAgreeOnSearches(t *testing.T) {
	data := oracle.Stock(8, 420, 7)
	for name, build := range map[string]func(*core.Index) error{
		"insert":   (*core.Index).Build,
		"bulk":     (*core.Index).BuildBulk,
		"parallel": func(ix *core.Index) error { return ix.BuildBulkParallel(4) },
	} {
		t.Run(name, func(t *testing.T) {
			oracle.Check(t, oracle.Case{Data: data, Build: build, Queries: oracle.Mix(data, 32, 7)})
		})
	}
}

// TestFrozenIndexEquivalence: a fold is invisible — the arena rebuilt
// from the store over the same windows, on however many workers,
// replaces the built one yet reads, query for query, exactly the ledger
// the build did, and after appends Freeze folds them into an index that
// answers as the scan does.
func TestFrozenIndexEquivalence(t *testing.T) {
	for _, workers := range []int{1, 3} {
		c := stockCase(testOpts(), 8, 120)
		ledgers := func(ix *core.Index) ([]core.SearchStats, error) {
			out := make([]core.SearchStats, len(c.Queries))
			for i, q := range c.Queries {
				if _, err := ix.Exec(context.Background(), q, &out[i]); err != nil {
					return nil, err
				}
				out[i].PlanTime, out[i].ProbeTime, out[i].VerifyTime = 0, 0, 0
			}
			return out, nil
		}
		c.Build = func(ix *core.Index) error {
			if err := ix.Build(); err != nil {
				return err
			}
			built, err := ledgers(ix)
			arena := ix.FirstArena()
			if err == nil {
				err = ix.Refold(workers)
			}
			if err != nil {
				return err
			}
			if ix.FirstArena() == arena {
				return errors.New("the fold kept the old arena")
			}
			folded, err := ledgers(ix)
			for i, q := range c.Queries {
				if err == nil && q.K == 0 && folded[i] != built[i] {
					err = fmt.Errorf("query %d: ledger %+v after the fold, %+v before", i, folded[i], built[i])
				}
			}
			return err
		}
		c.Steps = []oracle.Step{
			{Op: oracle.AppendValues, Seq: 2, Values: c.Data[5].Values[:40]},
			{Op: oracle.AppendAndIndex, Name: "x", Values: c.Data[1].Values[7:90]},
			{Op: oracle.Freeze},
		}
		oracle.Check(t, c)
	}
}

// TestFileLoadedIndexEquivalence round-trips through the artifact on
// disk (the mmap zero-copy path) and through the stream loader.
func TestFileLoadedIndexEquivalence(t *testing.T) {
	c := stockCase(testOpts(), 8, 120)
	c.Steps = []oracle.Step{
		{Op: oracle.WriteFile},
		{Op: oracle.WriteBinary},
		{Op: oracle.AppendValues, Seq: 0, Values: c.Data[3].Values[:50]},
		{Op: oracle.WriteFile},
		{Op: oracle.WriteSegments},
	}
	oracle.Check(t, c)
}

// TestSegmentedEquivalence is the heart of the segmented-index
// contract: an index grown through arbitrary append/compact
// interleavings, under a random bound on its frozen segments, answers
// every query class as the scan does after every step.
func TestSegmentedEquivalence(t *testing.T) {
	data := oracle.Stock(5, 240, 1)
	for trial := range 4 {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		initial, steps := grow(data, rng, 120)
		maxFrozen := 2 + rng.Intn(3)
		oracle.Check(t, oracle.Case{
			Opts:    testOpts(),
			Data:    initial,
			Steps:   append(steps, oracle.Step{Op: oracle.Compact}),
			Setup:   func(ix *core.Index) { ix.MaxFrozen = maxFrozen },
			Queries: oracle.Mix(data, 32, int64(trial)),
		})
	}
}

// deltaCase grows data through a schedule that ends with a populated
// delta: every sequence starts as a random prefix, the even ones grow
// through two rounds of appends closed by a compaction (merging is off,
// so the index ends with three frozen segments), then every sequence,
// the odd ones for the first time, grows to its end with no compaction,
// each append at most maxChunk values.
// The delta so ends holding every window that straddles an odd
// sequence's packed/tail boundary.  The queries — range at each ε-frac,
// unbounded, scale-bounded and on the forced scan, k-NN, and a long
// query — are cut from such a straddling window, from a tail and from
// the frozen side.  The returned shape is filled in as the case runs.
func deltaCase(data []oracle.Seq, rng *rand.Rand, fracs []float64, maxChunk int) (oracle.Case, *deltaShape) {
	const n = 32
	done := make([]int, len(data))
	c := oracle.Case{Opts: testOpts(), Setup: func(ix *core.Index) { ix.MergeRatio, ix.MaxFrozen = 0, 0 }}
	for seq, s := range data {
		done[seq] = n + rng.Intn(len(s.Values)/2-n)
		c.Data = append(c.Data, oracle.Seq{Name: s.Name, Values: s.Values[:done[seq]]})
	}
	packed := slices.Clone(done)
	grow := func(seq, limit int) bool {
		if chunk := min(1+rng.Intn(maxChunk), limit-done[seq]); chunk > 0 {
			c.Steps = append(c.Steps, oracle.Step{Op: oracle.AppendValues, Seq: seq, Values: data[seq].Values[done[seq] : done[seq]+chunk]})
			done[seq] += chunk
		}
		return done[seq] < limit
	}
	for round := 1; round <= 2; round++ {
		for range 2 * len(data) {
			seq := 2 * rng.Intn((len(data)+1)/2)
			grow(seq, packed[seq]+round*(len(data[seq].Values)-packed[seq])/3)
		}
		c.Steps = append(c.Steps, oracle.Step{Op: oracle.Compact})
	}
	for left := true; left; {
		left = false
		for _, seq := range rng.Perm(len(data)) {
			left = grow(seq, len(data[seq].Values)) || left
		}
	}

	bounded := core.CostBounds{ScaleMin: 0.5, ScaleMax: 2, ShiftMin: math.Inf(-1), ShiftMax: math.Inf(1)}
	for _, src := range [][2]int{{1, packed[1] - n/2}, {3, len(data[3].Values) - n - 5}, {2, 3}} {
		w := data[src[0]].Values[src[1] : src[1]+n]
		q := vec.Apply(w, 1.7, 3*math.Abs(w[0]))
		if store.CheckDomain(-1, 0, q) != nil {
			q = slices.Clone(w)
		}
		for _, frac := range fracs {
			eps := oracle.Eps(q, frac)
			c.Queries = append(c.Queries, core.Query{Vec: q, Eps: eps}, core.Query{Vec: q, Eps: eps, Costs: bounded},
				core.Query{Vec: q, Eps: eps, Force: engine.PathScan})
		}
		c.Queries = append(c.Queries, core.Query{Vec: q, K: 5})
	}
	long := data[5].Values[len(data[5].Values)-3*n:]
	c.Queries = append(c.Queries, core.Query{Vec: long, Eps: oracle.Eps(long, 0.2)})

	shape := &deltaShape{packed: packed}
	c.Systems = []oracle.System{{Name: "the segmented index", Answer: func(ix *core.Index, qs []core.Query) ([]core.Result, error) {
		b := ix.Backlog()
		shape.windows, shape.frozen, shape.straddling = b.DeltaWindows, b.Frozen, 0
		for _, w := range ix.DeltaWindows() {
			if p := packed[w[0]]; w[1] < p && w[1]+n > p {
				shape.straddling++
			}
		}
		res, _, err := ix.ExecBatch(context.Background(), qs, 2, nil)
		return res, err
	}}}
	return c, shape
}

// deltaShape is what a deltaCase's index held after the last step: the
// delta's windows, how many of them straddle their sequence's packed
// length — its length when the index was built — and the frozen
// segments.
type deltaShape struct {
	windows, straddling, frozen int
	packed                      []int
}

// TestSegmentedDeltaDifferential runs every query class over random
// append schedules that end with a populated delta.
func TestSegmentedDeltaDifferential(t *testing.T) {
	data := oracle.Stock(6, 420, 1)
	for trial := range 4 {
		c, shape := deltaCase(data, rand.New(rand.NewSource(int64(7100+trial))), []float64{0.02, 0.3}, 128)
		oracle.Check(t, c)
		// Every odd sequence's n−1 windows across its packed length.
		if shape.windows <= 512 || shape.straddling < 31*(len(data)/2) || shape.frozen < 3 {
			t.Fatalf("trial %d: fixture too easy: %d delta windows (%d straddling), %d frozen segments", trial, shape.windows, shape.straddling, shape.frozen)
		}
	}
}

// TestSegmentedDeltaAdversarialMagnitudes repeats the differential at
// the magnitudes where a feature-space filter could go wrong: values at
// both edges of the numeric domain, constant runs (windows whose SE
// image is the origin, at distance 0 of every SE-line), and a delta
// whose features dwarf everything the frozen segments held when they
// were built, so the slack every segment is probed with has to come
// from the delta.
func TestSegmentedDeltaAdversarialMagnitudes(t *testing.T) {
	base := oracle.Stock(6, 300, 1)
	peak, low := 0.0, math.Inf(1)
	for _, s := range base {
		for _, v := range s.Values {
			peak, low = max(peak, v), min(low, v)
		}
	}
	scaled := func(f func(seq int, v float64) float64) []oracle.Seq {
		out := make([]oracle.Seq, len(base))
		for seq, s := range base {
			out[seq] = oracle.Seq{Name: s.Name, Values: make([]float64, len(s.Values))}
			for i, v := range s.Values {
				out[seq].Values[i] = f(seq, v)
			}
		}
		return out
	}
	plateaus := scaled(func(_ int, v float64) float64 { return v / peak })
	for seq, s := range plateaus {
		// One constant run in what will be frozen, one reaching the end of
		// the sequence (delta, straddling for the odd sequences), and one
		// sequence constant throughout.
		for i := range s.Values {
			if seq == 4 || (i >= 10 && i < 74) || i >= len(s.Values)-64 {
				s.Values[i] = s.Values[10]
			}
		}
	}
	for _, tc := range []struct {
		name string
		data []oracle.Seq
	}{
		// Each scaling rounds once, toward the inside of the domain.
		{"top of the domain", scaled(func(_ int, v float64) float64 { return v / peak * store.MaxMagnitude })},
		{"bottom of the domain", scaled(func(_ int, v float64) float64 { return v / low * store.MinMagnitude })},
		{"constant runs", plateaus},
		// The odd sequences reach the index only through the delta.
		{"delta raises the slack", scaled(func(seq int, v float64) float64 { return v / peak * math.Pow(1e6, float64(seq%2)) })},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, shape := deltaCase(tc.data, rand.New(rand.NewSource(99)), []float64{0, 0.05, 0.5}, 128)
			oracle.Check(t, c)
			if shape.windows == 0 || shape.straddling == 0 || shape.frozen < 3 {
				t.Fatalf("fixture too easy: %d delta windows (%d straddling), %d frozen segments", shape.windows, shape.straddling, shape.frozen)
			}
		})
	}
}

// TestNumericDomainEnforced: values outside the numeric domain are
// refused where they enter — a query with ErrInvalidQuery, a mutation
// with a *store.DomainError before the store is touched, a build over a
// store filled in process naming the first offending value — and inside
// it, up to either edge, the index answers as the scan does.  At 2^256
// the scan's ‖q‖²·‖v‖² overflows and the two part.
func TestNumericDomainEnforced(t *testing.T) {
	edges := oracle.Stock(3, 400, 1)
	for seq := range edges {
		edges[seq].Values = vec.Apply(edges[seq].Values, []float64{0x1p190, 0x1p-190, 1}[seq], 0)
	}
	for _, n := range []int{32, 128} {
		opts := core.DefaultOptions()
		opts.WindowLen = n
		oracle.Check(t, oracle.Case{Opts: opts, Data: edges, Queries: oracle.Mix(edges, n, 1)})
	}

	huge := vec.Apply(edges[2].Values, 0x1p256, 0)
	st := store.New()
	st.AppendSequence("a", edges[2].Values)
	ix, err := core.NewIndex(st, testOpts())
	if err == nil {
		err = ix.Build()
	}
	if err != nil {
		t.Fatal(err)
	}
	var domain *store.DomainError
	for name, err := range map[string]error{
		"AppendValues":       ix.AppendValues(0, []float64{1, 0x1p-300}),
		"AppendValues 2^256": ix.AppendValues(0, huge[:5]),
		"AppendAndIndex":     func() error { _, err := ix.AppendAndIndex("b", huge); return err }(),
	} {
		if !errors.As(err, &domain) {
			t.Errorf("%s outside the domain: %v", name, err)
		}
	}
	if st.NumSequences() != 1 || st.SequenceLen(0) != 400 {
		t.Errorf("a refused mutation touched the store: %d sequences, %d values", st.NumSequences(), st.SequenceLen(0))
	}
	for _, q := range []core.Query{{Vec: huge[:32], Eps: 1}, {Vec: huge[:32], K: 3}, {Vec: vec.Apply(huge[:32], 0x1p-600, 0), Eps: 0}} {
		if _, err := ix.Exec(context.Background(), q, nil); !errors.Is(err, core.ErrInvalidQuery) || !errors.As(err, &domain) {
			t.Errorf("query outside the domain: %v", err)
		}
	}
	st.AppendSequence("b", huge)
	if err := ix.Build(); !errors.As(err, &domain) || domain.Seq != 1 || domain.Index != 0 {
		t.Errorf("build over a value outside the domain: %v", err)
	}
	// Nor does a store read hold such a value.
	for name, write := range map[string]func(io.Writer) error{"ReadCSV": st.WriteCSV, "ReadBinary": st.WriteBinary} {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		read := store.ReadCSV
		if name == "ReadBinary" {
			read = store.ReadBinary
		}
		if _, err := read(&buf); !errors.As(err, &domain) || domain.Seq != 1 || domain.Index != 0 {
			t.Errorf("%s of a value outside the domain: %v", name, err)
		}
	}
}

func TestNearestNeighborsWithCosts(t *testing.T) {
	c := stockCase(testOpts(), 12, 150)
	costs := core.UnboundedCosts()
	costs.ScaleMin = 0.1
	c.Queries = []core.Query{{Vec: c.Data[3].Values[40:72], K: 15, Costs: costs}}
	oracle.Check(t, c)
}

// TestNearestNeighborsEdges holds k-NN to the scan where its bound is
// missing or unusual: k above the window count, outsized k, and cost
// bounds that fewer than k windows pass — no k seeds pass either, so
// every window is a candidate (PathScan) — and an index whose windows
// all sit in the delta, with no frozen segment to descend.
func TestNearestNeighborsEdges(t *testing.T) {
	small := oracle.Stock(2, 40, 1)
	q := disguised(small, 1, 3, 32, 2, 1)
	var qs []core.Query
	for _, k := range []int{1, 2*9 + 5, math.MaxInt / 2, 1 << 62} {
		qs = append(qs, core.Query{Vec: q, K: k})
	}
	oracle.Check(t, oracle.Case{Data: small, Queries: qs})

	data := oracle.Stock(12, 150, 1)
	q = disguised(data, 3, 40, 32, 0.5, 3)
	// The source's own transformation, exactly: fewer than 5 windows pass.
	src := vec.MinDist(q, data[3].Values[40:72])
	few := core.CostBounds{ScaleMin: src.Scale, ScaleMax: src.Scale, ShiftMin: src.Shift, ShiftMax: src.Shift}
	st := store.New()
	for _, s := range data {
		st.AppendSequence(s.Name, s.Values)
	}
	ix, err := core.NewIndex(st, testOpts())
	if err == nil {
		err = ix.Build()
	}
	if err != nil {
		t.Fatal(err)
	}
	var stats core.SearchStats
	res, err := ix.Exec(context.Background(), core.Query{Vec: q, K: 5, Costs: few}, &stats)
	if err != nil || res.Total >= 5 || res.Total == 0 || stats.Candidates < ix.WindowCount() {
		t.Errorf("cost bounds fewer than k pass: %d rows, %d candidates of %d windows: %v", res.Total, stats.Candidates, ix.WindowCount(), err)
	}
	c := oracle.Case{Queries: []core.Query{{Vec: q, K: 5, Costs: few}, {Vec: q, K: 1}, {Vec: q, K: 10}}}
	c.Data = data
	oracle.Check(t, c)

	c.Data = nil
	for _, s := range data[:6] {
		c.Steps = append(c.Steps, oracle.Step{Op: oracle.AppendAndIndex, Name: s.Name, Values: s.Values})
	}
	oracle.Check(t, c)
}

// TestNearestNeighborsTiesInStorageOrder makes a delta window identical
// to a frozen one and asks for it: the two tie at distance 0, and the
// answer orders them as the scan does, by (Seq, Start) — the delta's
// window (0, 100) before the frozen (1, 10).
func TestNearestNeighborsTiesInStorageOrder(t *testing.T) {
	data := oracle.Stock(2, 200, 1)
	q := data[1].Values[10:42]
	oracle.Check(t, oracle.Case{
		Data:    []oracle.Seq{{Name: "a", Values: data[0].Values[:100]}, data[1]},
		Steps:   []oracle.Step{{Op: oracle.Freeze}, {Op: oracle.AppendValues, Seq: 0, Values: q}},
		Queries: []core.Query{{Vec: q, K: 1}, {Vec: q, K: 10}},
	})
}

// TestSearchConstantQuery: a constant query has a degenerate SE-line
// (the origin): its matches are the windows whose own fluctuation is
// within ε, at scale 0.
func TestSearchConstantQuery(t *testing.T) {
	c := stockCase(testOpts(), 6, 80)
	q := make(vec.Vector, 32)
	for i := range q {
		q[i] = 42
	}
	c.Queries = []core.Query{{Vec: q, Eps: 0.5}, {Vec: q, Eps: 5}, {Vec: q, K: 3}}
	oracle.Check(t, c)
}

// TestConstantWindowsAnswer: in an index whose windows are all
// constant, every feature point is the extraction's rounding noise
// around the origin, and every window lies at distance 0 of any query
// (scale 0, shift the constant).  Range queries at ε = 0 and k-NN
// queries must still find them as the scan does, which takes the
// index-phase slack's featureNoise term: the feature magnitudes alone
// give no slack at all.
func TestConstantWindowsAnswer(t *testing.T) {
	var data []oracle.Seq
	for i, v := range []float64{3.7, -120.3, 0.011} {
		data = append(data, oracle.Seq{Name: fmt.Sprint("flat", i), Values: vec.Apply(make(vec.Vector, 100), 0, v)})
	}
	ramp := make(vec.Vector, 32)
	for i := range ramp {
		ramp[i] = 0.1 * float64(i)
	}
	flat := vec.Apply(make(vec.Vector, 32), 0, 42.1)
	var qs []core.Query
	for _, q := range []vec.Vector{ramp, flat, data[1].Values[:32]} {
		qs = append(qs, core.Query{Vec: q, Eps: 0}, core.Query{Vec: q, K: 1}, core.Query{Vec: q, K: 5})
	}
	oracle.Check(t, oracle.Case{Data: data, Queries: qs})
}

func TestStrategiesReturnIdenticalResults(t *testing.T) {
	for _, strategy := range []geom.Strategy{geom.EnteringExiting, geom.BoundingSpheres} {
		opts := testOpts()
		opts.Strategy = strategy
		c := stockCase(opts, 10, 120)
		c.Queries = onEveryPath(oracle.Mix(c.Data, 32, 9))
		oracle.Check(t, c)
	}
}

// TestDynamicAppendAndIndex: a sequence appended to a built index is
// searchable at once, and after Freeze.
func TestDynamicAppendAndIndex(t *testing.T) {
	c := stockCase(testOpts(), 5, 80)
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = 50 + 10*math.Sin(float64(i)/7)
	}
	c.Steps = []oracle.Step{{Op: oracle.AppendAndIndex, Name: "NEW", Values: vals}, {Op: oracle.Freeze}}
	q := vec.Apply(vals[20:52], 0.5, -3)
	c.Queries = append(c.Queries, core.Query{Vec: q, Eps: 1e-6}, core.Query{Vec: q, K: 2})
	oracle.Check(t, c)
}

// TestStatsInvariantsBatchAccumulate: Check holds a batch's ledger to
// the sum of its queries' run one at a time, here on an index growing
// through appends and compactions.
func TestStatsInvariantsBatchAccumulate(t *testing.T) {
	data := oracle.Stock(12, 120, 1)
	initial, steps := grow(data, rand.New(rand.NewSource(3)), 200)
	oracle.Check(t, oracle.Case{Data: initial, Steps: steps, Queries: oracle.Mix(data, 32, 3)})
}

// TestMutatedIndexAnswers is the write path's differential: every
// mutator, on a bulk-built, an insert-built, a file-mapped and an empty
// index, leaves an index that answers the moment it returns — range,
// cost-bounded, limited, long and k-NN queries — as the scan of the
// indexed windows does, and does so saved with the delta pending and
// reopened, and after Freeze, which leaves one direction-box segment
// (the insert-built MBR base's included) that a tight probe reads as it
// reads one built from scratch over the same windows.
func TestMutatedIndexAnswers(t *testing.T) {
	tail := make([]float64, 2*32+10)
	for i := range tail { // no two windows alike: k-NN ties have no order
		tail[i] = 40 + float64(i*i%17) + math.Sin(float64(i))
	}
	q, long := vec.Apply(tail[40:72], 1.5, -4), vec.Apply(tail[8:72], 0.7, 9)
	bounded := core.CostBounds{ScaleMin: 0.5, ScaleMax: 2, ShiftMin: math.Inf(-1), ShiftMax: math.Inf(1)}
	queries := []core.Query{{Vec: q, Eps: 6}, {Vec: q, Eps: 6, Costs: bounded}, {Vec: q, Eps: 20, Limit: 3}, {Vec: long, Eps: 8}, {Vec: q, K: 3}}
	data := oracle.Stock(5, 90, 3)
	for base, c := range map[string]oracle.Case{
		"bulk-built": {Data: data, Build: (*core.Index).BuildBulk},
		// An MBR directory until the first fold.
		"insert-built": {Data: data, Build: func(ix *core.Index) error { return ix.BuildWith(rstar.Load) }},
		"mapped":       {Data: data, Steps: []oracle.Step{{Op: oracle.WriteFile}}},
		"empty":        {},
	} {
		t.Run(base, func(t *testing.T) {
			last := len(c.Data) // the sequence AppendAndIndex adds
			c.Steps = append(c.Steps,
				oracle.Step{Op: oracle.AppendAndIndex, Name: "NEW", Values: tail},
				// Twice: the second append continues the first's stream.
				oracle.Step{Op: oracle.AppendValues, Seq: last, Values: tail[:7]},
				oracle.Step{Op: oracle.AppendValues, Seq: last, Values: tail[7:12]},
				oracle.Step{Op: oracle.IndexStore, Name: "RAW", Values: tail[3:]},
				oracle.Step{Op: oracle.WriteBinary},
				oracle.Step{Op: oracle.Freeze},
				oracle.Step{Op: oracle.Unindex, Seq: last},
				oracle.Step{Op: oracle.WriteBinary},
				oracle.Step{Op: oracle.Freeze},
			)
			c.Queries = append(slices.Clone(queries), core.Query{Vec: tail[20:52], Eps: 1e-6})
			answered := 0 // answers after the build and after each step
			c.Systems = []oracle.System{{Name: "the folded index", Answer: func(ix *core.Index, qs []core.Query) ([]core.Result, error) {
				if answered++; answered > 1 {
					switch c.Steps[answered-2].Op {
					case oracle.WriteFile:
						if ix.Mapped() == 0 {
							return nil, errors.New("the index opened from its file maps nothing")
						}
					case oracle.Freeze:
						var skip []int
						for _, s := range c.Steps[:answered-1] {
							if s.Op == oracle.Unindex {
								skip = append(skip, s.Seq)
							}
						}
						if err := foldedLikeFresh(ix, skip, q); err != nil {
							return nil, err
						}
					}
				}
				res, _, err := ix.ExecBatch(context.Background(), qs, 2, nil)
				return res, err
			}}}
			oracle.Check(t, c)
		})
	}
}

// foldedLikeFresh holds a folded index to the fold's shape — an empty
// delta, one frozen segment, a direction-box directory — and a tight
// probe of q down its tree to within 2% of the node reads of a bulk
// build from scratch over the same windows: the store's sequences but
// skip.
func foldedLikeFresh(ix *core.Index, skip []int, q vec.Vector) error {
	if b := ix.Backlog(); b.DeltaWindows != 0 || b.Frozen != 1 || ix.Directory() != core.DirectoryBox {
		return fmt.Errorf("Freeze left %d delta windows, %d frozen segments, a %s directory", b.DeltaWindows, b.Frozen, ix.Directory())
	}
	st := store.New()
	for seq, s := range oracle.FromStore(ix.Store()) {
		if !slices.Contains(skip, seq) {
			st.AppendSequence(s.Name, s.Values)
		}
	}
	fresh, err := core.NewIndex(st, ix.Options())
	if err == nil {
		err = fresh.BuildBulk()
	}
	if err != nil {
		return err
	}
	defer fresh.Close()
	var got, want core.SearchStats
	tight := core.Query{Vec: q, Eps: 0.5, Force: engine.PathRTree}
	if _, err := ix.Exec(context.Background(), tight, &got); err != nil {
		return err
	}
	if _, err := fresh.Exec(context.Background(), tight, &want); err != nil {
		return err
	}
	if d := got.IndexNodeAccesses - want.IndexNodeAccesses; want.IndexNodeAccesses == 0 || 50*max(d, -d) > want.IndexNodeAccesses {
		return fmt.Errorf("a tight probe reads %d nodes, %d of a from-scratch build", got.IndexNodeAccesses, want.IndexNodeAccesses)
	}
	return nil
}

// TestIndexSerializationRoundTrip: the index reopened from its artifact,
// and from a checkpoint with its store, answers as the scan does and
// stays dynamic.
func TestIndexSerializationRoundTrip(t *testing.T) {
	c := stockCase(testOpts(), 10, 140)
	c.Steps = []oracle.Step{{Op: oracle.WriteBinary}, {Op: oracle.Checkpoint}, {Op: oracle.Crash},
		{Op: oracle.AppendAndIndex, Name: "NEW", Values: c.Data[2].Values[:64]}}
	oracle.Check(t, c)
}

// TestWriteLoadSegments: a multi-segment index refuses to write its
// segments while its delta holds windows, reopens from them, grows on,
// and refuses a store that lacks windows the artifact covers.
func TestWriteLoadSegments(t *testing.T) {
	data := oracle.Stock(4, 250, 1)
	c := oracle.Case{Opts: testOpts(), Queries: oracle.Mix(data, 32, 4)}
	for seq, s := range data {
		c.Data = append(c.Data, oracle.Seq{Name: s.Name, Values: s.Values[:150]})
		c.Steps = append(c.Steps, oracle.Step{Op: oracle.AppendValues, Seq: seq, Values: s.Values[150:200]})
	}
	c.Steps = append(c.Steps, oracle.Step{Op: oracle.WriteSegments})
	for seq, s := range data {
		c.Steps = append(c.Steps, oracle.Step{Op: oracle.AppendValues, Seq: seq, Values: s.Values[200:]})
	}
	oracle.Check(t, c)

	st := store.New()
	for _, s := range c.Data {
		st.AppendSequence(s.Name, s.Values)
	}
	g, err := core.NewIndex(st, testOpts())
	if err == nil {
		err = g.Build()
	}
	if err == nil {
		err = g.AppendValues(0, data[0].Values[150:200])
	}
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteSegments(&buf); err == nil {
		t.Fatal("WriteSegments accepted a dirty delta")
	}
	if err := g.Compact(); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := g.WriteSegments(&buf); err != nil {
		t.Fatal(err)
	}
	short := store.New()
	for _, s := range data {
		short.AppendSequence(s.Name, s.Values[:100])
	}
	if _, _, err := core.LoadSegments(bytes.NewReader(buf.Bytes()), short); err == nil {
		t.Fatal("artifact loaded against a store missing its windows")
	}
}

// TestLimitDifferential holds Query.Limit to its contract — the limited
// answer is the unlimited answer's prefix, Total its size, and the
// ledger classifies every candidate alike, reading at most the
// unlimited query's data pages (the same ones under a finite cost
// bound) — on a built index and on the ends of two schedules that leave
// a populated delta, on one CPU and on four, for range and multipiece
// queries, unbounded and finite cost bounds, constant queries and
// constant windows, a query cut across a delta sequence's packed
// length, and with ε and a cost bound placed exactly on a window's
// distance and scale and on the floats either side, where the certified
// bound must hand the decision to the exact pass.
func TestLimitDifferential(t *testing.T) {
	const n = 32
	data := oracle.Stock(6, 420, 1)
	// A flat stretch: constant windows, and windows that leave it.
	for i := 150; i < 150+2*n; i++ {
		data[4].Values[i] = data[4].Values[150]
	}
	st := store.New()
	for _, s := range data {
		st.AppendSequence(s.Name, s.Values)
	}
	ref, err := core.NewIndex(st, testOpts())
	if err == nil {
		err = ref.Build()
	}
	if err != nil {
		t.Fatal(err)
	}
	inf := math.Inf(1)
	scaleBounded := core.CostBounds{ScaleMin: 0.5, ScaleMax: 2, ShiftMin: -inf, ShiftMax: inf}
	shiftBounded := core.CostBounds{ScaleMin: -inf, ScaleMax: inf, ShiftMin: -20, ShiftMax: 5}
	frozen, long, flat := data[2].Values[30:30+n], data[3].Values[40:40+2*n], data[4].Values[150:150+n]
	// Thresholds on the boundary: ε at the exact distance of a window in
	// the middle of a loose answer, a scale bound at its exact scale.
	loose, err := ref.Exec(context.Background(), core.Query{Vec: frozen, Eps: oracle.Eps(frozen, 0.4)}, nil)
	if err != nil || len(loose.Matches) < 20 {
		t.Fatalf("boundary query: %d matches, err %v", len(loose.Matches), err)
	}
	pivot := loose.Matches[len(loose.Matches)/2]
	queries := func(straddling vec.Vector) []core.Query {
		var qs []core.Query
		add := func(q vec.Vector, eps float64, costs core.CostBounds) {
			for _, limit := range []int{0, 1, 7, 100, 1e6} {
				qs = append(qs, core.Query{Vec: q, Eps: eps, Costs: costs, Limit: limit})
			}
		}
		for _, frac := range []float64{0.05, 0.4, 3} {
			add(vec.Apply(straddling, 1.3, -2), oracle.Eps(straddling, frac), core.CostBounds{})
			add(vec.Apply(frozen, 0.7, 11), oracle.Eps(frozen, frac), core.CostBounds{})
			add(vec.Apply(frozen, 0.7, 11), oracle.Eps(frozen, frac), scaleBounded)
			add(frozen, oracle.Eps(frozen, frac), shiftBounded)
			add(vec.Apply(long, 2, 1), oracle.Eps(long, frac), core.CostBounds{})
			add(long, oracle.Eps(long, frac), scaleBounded)
		}
		add(flat, oracle.Eps(frozen, 0.5), core.CostBounds{})
		add(flat, 0, core.CostBounds{})
		add(frozen, 0, core.CostBounds{})
		for _, side := range []float64{-inf, 0, inf} {
			eps, scale := pivot.Dist, pivot.Scale
			if side != 0 {
				eps, scale = math.Nextafter(eps, side), math.Nextafter(scale, side)
			}
			add(frozen, eps, core.CostBounds{})
			add(frozen, oracle.Eps(frozen, 0.4), core.CostBounds{ScaleMin: scale, ScaleMax: inf, ShiftMin: -inf, ShiftMax: inf})
		}
		return qs
	}

	var counted, unfetched int // candidates classified without the exact pass, and matches not fetched
	ledger := oracle.System{Name: "ExecBatch on one worker", Answer: func(ix *core.Index, qs []core.Query) ([]core.Result, error) {
		var stats core.SearchStats
		res, _, err := ix.ExecBatch(context.Background(), qs, 1, &stats)
		counted += stats.Candidates - stats.ExactChecks
		unfetched += stats.NormCertified
		return res, err
	}}
	cases := []oracle.Case{{Data: data, Queries: queries(data[1].Values[200 : 200+n]), Systems: []oracle.System{ledger}}}
	for trial := range 2 {
		c, shape := deltaCase(data, rand.New(rand.NewSource(int64(9100+trial))), nil, 400)
		p := shape.packed[1] - n/2
		c.Queries, c.Systems, c.Final = queries(data[1].Values[p:p+n]), append(c.Systems, ledger), true
		cases = append(cases, c)
	}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, c := range cases {
				counted, unfetched = 0, 0
				oracle.Check(t, c)
				if counted == 0 || unfetched == 0 {
					t.Fatalf("%d candidates classified from the bounds alone, %d of them without being fetched", counted, unfetched)
				}
			}
		})
	}
}

// TestAppendValuesPointMode: samples arriving on a live series make
// the windows spanning its old end searchable (requirement 2 of §3).
func TestAppendValuesPointMode(t *testing.T) {
	opts := testOpts()
	opts.WindowLen = 16
	series := make([]float64, 50)
	for i := range series {
		series[i] = float64(i % 7)
	}
	w := series[30:46] // spans the old end at 40
	oracle.Check(t, oracle.Case{
		Opts:    opts,
		Data:    []oracle.Seq{{Name: "live", Values: series[:40]}},
		Steps:   []oracle.Step{{Op: oracle.AppendValues, Seq: 0, Values: series[40:]}, {Op: oracle.Freeze}},
		Queries: []core.Query{{Vec: vec.Apply(w, 2, 1), Eps: 1e-6 * (1 + vec.Norm(w))}, {Vec: w, Eps: 0.5}, {Vec: w, K: 4}},
	})
}

// TestExtendThenUnindexPointMode is the regression test for the
// feature-reproducibility bug: features of windows indexed after an
// extension must be regenerated bit-exactly by UnindexSequence even
// though they were first computed by a slider starting mid-sequence
// (fixed by restarting the sliding DFT at absolute checkpoints).
func TestExtendThenUnindexPointMode(t *testing.T) {
	opts := testOpts()
	opts.WindowLen = 16
	vals := make([]float64, 380)
	for i := range vals {
		vals[i] = float64(i*i%23) + float64(i%5)
	}
	c := oracle.Case{Opts: opts, Data: []oracle.Seq{{Name: "live", Values: vals[:300]}}, Queries: oracle.Mix([]oracle.Seq{{Values: vals}}, 16, 1)}
	// Extend across several increments, past the 256-window checkpoint.
	for i := range 4 {
		c.Steps = append(c.Steps, oracle.Step{Op: oracle.AppendValues, Values: vals[300+20*i : 320+20*i]})
	}
	c.Steps = append(c.Steps, oracle.Step{Op: oracle.Freeze}, oracle.Step{Op: oracle.Unindex}, oracle.Step{Op: oracle.Freeze})
	oracle.Check(t, c)
}

// TestSegmentedTieredRetention: fed in small rounds, each closed by a
// compaction — a flat policy's worst case — with the backstop out of
// the way, the size-tiered ladder must form (partial merges, not a full
// merge every round) and stay logarithmic, and the index answer as the
// scan does after every step and reopened from its segments
// (LoadSegments rejects gaps or overlaps in merged coverage).
func TestSegmentedTieredRetention(t *testing.T) {
	data := oracle.Stock(4, 400, 1)
	c := oracle.Case{Opts: testOpts(), Setup: func(ix *core.Index) { ix.MaxFrozen = 1024 }}
	for _, s := range data {
		c.Data = append(c.Data, oracle.Seq{Name: s.Name, Values: s.Values[:60]})
	}
	rounds := 0
	for pos := 60; pos < 400; pos += 8 {
		for seq, s := range data {
			c.Steps = append(c.Steps, oracle.Step{Op: oracle.AppendValues, Seq: seq, Values: s.Values[pos:min(pos+8, 400)]})
		}
		c.Steps = append(c.Steps, oracle.Step{Op: oracle.Compact})
		rounds++
	}
	c.Steps = append(c.Steps, oracle.Step{Op: oracle.WriteSegments})
	q := disguised(data, 1, 7, 32, 1.4, -3)
	c.Queries = []core.Query{{Vec: q, Eps: oracle.Eps(q, 0.1)}, {Vec: q, K: 3}}
	maxFrozen, compactions := 0, 0
	c.Systems = []oracle.System{{Name: "the tiered index", Answer: func(ix *core.Index, qs []core.Query) ([]core.Result, error) {
		b := ix.Backlog()
		maxFrozen, compactions = max(maxFrozen, b.Frozen), max(compactions, b.Compactions)
		res, _, err := ix.ExecBatch(context.Background(), qs, 2, nil)
		return res, err
	}}}
	oracle.Check(t, c)
	if compactions < rounds {
		t.Fatalf("only %d compactions over %d rounds", compactions, rounds)
	}
	// Ratio-2 tiering admits at most ~log2(total/chunkWindows)+2
	// segments; 43 rounds under a flat policy would hold 40+.
	if maxFrozen > 12 || maxFrozen < 3 {
		t.Fatalf("the ladder peaked at %d segments over %d rounds, want 3 to 12", maxFrozen, rounds)
	}
}
