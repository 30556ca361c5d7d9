package core

import (
	"context"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"scaleshift/internal/query"
	"scaleshift/internal/stock"
	"scaleshift/internal/store"
)

// The verifier's inner loop: a fixed-seed 200 × 650 store served the way
// ssserve serves it (paper options, bulk-loaded, frozen), ten disguised
// windows, and two error bounds — tight (a handful of candidates: probe
// and fixed costs) and loose (over 20 000 candidates per query:
// ordering and verification) — and the same store served the way an
// append-mode ssserve holds it mid-stream: three frozen segments and a
// delta of some 4 000 windows, every one straddling its sequence's
// packed/tail boundary.  `make bench-verify` runs the benchmarks;
// TestExecRangeAllocCeiling pins the allocation count.
const (
	execFixtureTightFrac = 0.001
	execFixtureLooseFrac = 0.04
)

var execFixture struct {
	once    sync.Once
	err     error
	ix      *Index
	queries []query.Query
	scale   float64
}

func execRangeFixture(tb testing.TB) (*Index, []query.Query, float64) {
	tb.Helper()
	f := &execFixture
	f.once.Do(func() {
		st := store.New()
		cfg := stock.DefaultConfig()
		cfg.Companies, cfg.Days = 200, 650
		if _, f.err = stock.Populate(st, cfg); f.err != nil {
			return
		}
		if f.ix, f.err = NewIndex(st, DefaultOptions()); f.err != nil {
			return
		}
		if f.err = f.ix.BuildBulk(); f.err != nil {
			return
		}
		if f.err = f.ix.Freeze(); f.err != nil {
			return
		}
		qcfg := query.DefaultConfig()
		qcfg.N = 10
		if f.queries, f.err = query.Generate(st, qcfg); f.err != nil {
			return
		}
		f.scale, f.err = query.SENormScale(st, qcfg.WindowLen, 1000, qcfg.Seed)
	})
	if f.err != nil {
		tb.Fatal(f.err)
	}
	return f.ix, f.queries, f.scale
}

// segmentedExecFixture is the append-mode shape of the fixture: the
// 200 × 650 store behind a SegmentedIndex that then takes 16-value
// appends round-robin over the sequences, as the ingest workload sends
// them.  Two rounds are compacted into a frozen segment each (merging
// off, so three frozen segments stand); later appends stay in the
// delta.  Every sequence gains fewer than WindowLen values, so every
// delta window straddles its sequence's packed/tail boundary.
type segmentedExecFixture struct {
	g       *SegmentedIndex
	queries []query.Query
	scale   float64
	feed    [][]float64 // per sequence, the values not yet appended
	next    int         // the sequence the next append goes to
}

const execFixtureAppendLen = 16

func newSegmentedExecFixture(tb testing.TB, deltaAppends int) *segmentedExecFixture {
	tb.Helper()
	const companies, days, extraDays = 200, 650, 96
	names, vals := stockSeries(tb, companies, days+extraDays)
	f := &segmentedExecFixture{feed: make([][]float64, companies)}
	st := store.New()
	for seq := range names {
		st.AppendSequence(names[seq], vals[seq][:days])
		f.feed[seq] = vals[seq][days:]
	}
	var err error
	if f.g, err = NewSegmentedIndex(st, DefaultOptions()); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { f.g.Close() })
	f.g.MergeRatio, f.g.MaxFrozen = 0, 0
	qcfg := query.DefaultConfig()
	qcfg.N = 10
	if f.queries, err = query.Generate(st, qcfg); err != nil {
		tb.Fatal(err)
	}
	if f.scale, err = query.SENormScale(st, qcfg.WindowLen, 1000, qcfg.Seed); err != nil {
		tb.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		f.appendMore(tb, companies)
		if err := f.g.Compact(); err != nil {
			tb.Fatal(err)
		}
	}
	f.appendMore(tb, deltaAppends)
	if b := f.g.Backlog(); b.Frozen != 3 || b.DeltaWindows != deltaAppends*execFixtureAppendLen {
		tb.Fatalf("fixture holds %d frozen segments and %d delta windows", b.Frozen, b.DeltaWindows)
	}
	return f
}

// appendMore sends the next appends of the round-robin.
func (f *segmentedExecFixture) appendMore(tb testing.TB, appends int) {
	tb.Helper()
	for ; appends > 0; appends-- {
		seq := f.next
		f.next = (f.next + 1) % len(f.feed)
		if err := f.g.AppendValues(seq, f.feed[seq][:execFixtureAppendLen]); err != nil {
			tb.Fatal(err)
		}
		f.feed[seq] = f.feed[seq][execFixtureAppendLen:]
	}
}

// execFixtureDeltaAppends fills the benchmarks' delta to 4 000 windows,
// just under the compaction threshold an ingesting server hovers at.
const execFixtureDeltaAppends = 250

func benchmarkExec(b *testing.B, ix execer, queries []query.Query, q Query) {
	ctx := context.Background()
	var stats SearchStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Vec = queries[i%len(queries)].Values
		if _, err := ix.Exec(ctx, q, &stats); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(stats.Candidates)/float64(b.N), "candidates/op")
	if stats.NormCertified > 0 {
		b.ReportMetric(float64(stats.NormCertified)/float64(b.N), "norm-certified/op")
	}
}

func benchmarkExecRange(b *testing.B, frac float64) {
	ix, queries, scale := execRangeFixture(b)
	benchmarkExec(b, ix, queries, Query{Eps: frac * scale})
}

func benchmarkExecRangeSegmentedDelta(b *testing.B, frac float64) {
	f := newSegmentedExecFixture(b, execFixtureDeltaAppends)
	benchmarkExec(b, f.g, f.queries, Query{Eps: frac * f.scale})
}

func BenchmarkExecRangeTight(b *testing.B) { benchmarkExecRange(b, execFixtureTightFrac) }
func BenchmarkExecRangeLoose(b *testing.B) { benchmarkExecRange(b, execFixtureLooseFrac) }

// BenchmarkExecRangeLooseLimit100 is the loose query as ssserve runs it
// by default: the first 100 rows exact, the rest counted.
func BenchmarkExecRangeLooseLimit100(b *testing.B) {
	ix, queries, scale := execRangeFixture(b)
	benchmarkExec(b, ix, queries, Query{Eps: execFixtureLooseFrac * scale, Limit: 100})
}

// BenchmarkExecRangePaperLooseLimit100 is the benchmark's range_loose
// query in process: the 1000 × 650 store, ε-frac 0.02, the first 100
// rows exact.  The 200 × 650 fixture at 0.04 has a different share of
// windows whose own norm is within ε (the a ≈ 0 shell the norm bound
// counts without fetching), so what the verifier and the kernels do to
// range_loose is measured at its own scale; norm-certified/op is that
// share of candidates/op.
func BenchmarkExecRangePaperLooseLimit100(b *testing.B) {
	st := populatedStore(b, 1000, 650, 1)
	ix, err := NewIndex(st, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	if err := ix.BuildBulkParallel(0); err != nil {
		b.Fatal(err)
	}
	qcfg := query.DefaultConfig()
	qcfg.N = 20
	queries, err := query.Generate(st, qcfg)
	if err != nil {
		b.Fatal(err)
	}
	scale, err := query.SENormScale(st, qcfg.WindowLen, 1000, qcfg.Seed)
	if err != nil {
		b.Fatal(err)
	}
	benchmarkExec(b, ix, queries, Query{Eps: 0.02 * scale, Limit: 100})
}

func BenchmarkExecRangeSegmentedDeltaTight(b *testing.B) {
	benchmarkExecRangeSegmentedDelta(b, execFixtureTightFrac)
}

func BenchmarkExecRangeSegmentedDeltaLoose(b *testing.B) {
	benchmarkExecRangeSegmentedDelta(b, execFixtureLooseFrac)
}

func BenchmarkExecRangeSegmentedDeltaLooseLimit100(b *testing.B) {
	f := newSegmentedExecFixture(b, execFixtureDeltaAppends)
	benchmarkExec(b, f.g, f.queries, Query{Eps: execFixtureLooseFrac * f.scale, Limit: 100})
}

// BenchmarkExecKNNSegmentedDelta is the 10-nearest query over the same
// index; candidates/op counts the windows refined.
func BenchmarkExecKNNSegmentedDelta(b *testing.B) {
	f := newSegmentedExecFixture(b, execFixtureDeltaAppends)
	benchmarkExec(b, f.g, f.queries, Query{K: 10})
}

// TestExecRangeAllocCeiling pins the point of the pooled, id-based
// pipeline: a range query's allocations scale neither with its
// candidate count nor, on a segmented index, with the size of the delta
// it filters or the number of delta candidates that straddle a
// packed/tail boundary, and with a Limit neither allocations nor bytes
// scale with the match count.  What remains per query is the plan and
// Explain (one SegmentPlan per segment), the verifier's query-side
// vectors, the page sets, and one exactly sized answer slice.
func TestExecRangeAllocCeiling(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector's sync.Pool drops items at random, so pooled buffers are reallocated")
	}
	const ceiling = 400
	ctx := context.Background()
	// measure returns the allocations and candidates of one query.
	measure := func(ix execer, q Query) (allocs float64, candidates int) {
		var stats SearchStats
		run := func() {
			if _, err := ix.Exec(ctx, q, &stats); err != nil {
				t.Fatal(err)
			}
		}
		run() // grow the pooled buffers to this query's size
		stats = SearchStats{}
		allocs = testing.AllocsPerRun(10, run)
		return allocs, stats.Candidates / 11 // AllocsPerRun adds a warm-up run
	}
	cases := []struct {
		name          string
		frac          float64
		minCandidates int
	}{
		{"tight", execFixtureTightFrac, 1},
		{"loose", execFixtureLooseFrac, 20000},
	}

	ix, queries, scale := execRangeFixture(t)
	for _, tc := range cases {
		allocs, candidates := measure(ix, Query{Vec: queries[0].Values, Eps: tc.frac * scale})
		t.Logf("%s: %d candidates, %.0f allocs/query (GOMAXPROCS %d)", tc.name, candidates, allocs, runtime.GOMAXPROCS(0))
		if candidates < tc.minCandidates {
			t.Errorf("%s: only %d candidates per query, the fixture needs at least %d", tc.name, candidates, tc.minCandidates)
		}
		if allocs > ceiling {
			t.Errorf("%s: %.0f allocs per query over %d candidates, ceiling %d", tc.name, allocs, candidates, ceiling)
		}
	}

	// A limited query pays for the rows it returns, not for the matches it
	// counts: twice the ε finds almost twice the matches, in the same
	// allocations and the same bytes, a small fraction of what the
	// unlimited answer takes.
	measureBytes := func(q Query) (bytes uint64, matches int) {
		// The steady state is the cheapest of a few runs: a collection, or
		// a run that lands on a P whose pool is empty, regrows the pooled
		// buffers and would charge them to this query.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		bytes = math.MaxUint64
		for i := 0; i < 10; i++ {
			var stats SearchStats
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := ix.Exec(ctx, q, &stats); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			bytes, matches = min(bytes, after.TotalAlloc-before.TotalAlloc), stats.Results
		}
		return bytes, matches
	}
	limited := Query{Vec: queries[0].Values, Eps: execFixtureLooseFrac * scale, Limit: 100}
	wider := limited
	wider.Eps *= 2
	unlimited := limited
	unlimited.Limit = 0
	allocs, _ := measure(ix, limited)
	widerAllocs, _ := measure(ix, wider)
	bytes, matches := measureBytes(limited)
	widerBytes, widerMatches := measureBytes(wider)
	unlimitedBytes, _ := measureBytes(unlimited)
	t.Logf("limit 100: %d matches in %.0f allocs, %d B; %d matches in %.0f allocs, %d B; unlimited %d B",
		matches, allocs, bytes, widerMatches, widerAllocs, widerBytes, unlimitedBytes)
	if matches < 10000 || widerMatches < matches+10000 {
		t.Errorf("limit 100: %d and %d matches, the comparison needs at least 10000 and 10000 more", matches, widerMatches)
	}
	if widerAllocs > allocs+4 || widerBytes > bytes+bytes/4+4096 {
		t.Errorf("limit 100: %.0f allocs and %d B for %d matches, %.0f allocs and %d B for %d",
			allocs, bytes, matches, widerAllocs, widerBytes, widerMatches)
	}
	if bytes > unlimitedBytes/10 {
		t.Errorf("limit 100: %d B per query, the unlimited answer takes %d B", bytes, unlimitedBytes)
	}

	// The segmented index, at a delta of 2 000 windows and again at 4 000.
	f := newSegmentedExecFixture(t, execFixtureDeltaAppends/2)
	var atHalf [2]float64
	for pass := 0; pass < 2; pass++ {
		delta := f.g.Backlog().DeltaWindows
		for i, tc := range cases {
			q := Query{Vec: f.queries[0].Values, Eps: tc.frac * f.scale}
			allocs, candidates := measure(f.g, q)
			t.Logf("segmented %s, %d-window delta: %d candidates, %.0f allocs/query", tc.name, delta, candidates, allocs)
			if candidates < tc.minCandidates {
				t.Errorf("segmented %s: only %d candidates per query, the fixture needs at least %d", tc.name, candidates, tc.minCandidates)
			}
			if allocs > ceiling {
				t.Errorf("segmented %s: %.0f allocs per query with a %d-window delta, ceiling %d", tc.name, allocs, delta, ceiling)
			}
			if pass == 0 {
				atHalf[i] = allocs
			} else if allocs > atHalf[i]+4 {
				t.Errorf("segmented %s: %.0f allocs per query with a %d-window delta, %.0f at half of it", tc.name, allocs, delta, atHalf[i])
			}
		}
		if pass == 0 {
			f.appendMore(t, execFixtureDeltaAppends-execFixtureDeltaAppends/2)
		}
	}
}

// TestExecKNNAllocCeiling pins the typed best-first queue: a 10-NN
// query over the segmented fixture pushes some 19 000 queue entries,
// and boxed one object each while the queue went through
// container/heap.  What is left is geom.LineRectDist's breakpoint
// slices, a few per internal entry visited — some 12 000 a query here.
func TestExecKNNAllocCeiling(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector's sync.Pool drops items at random, so pooled buffers are reallocated")
	}
	const ceiling = 15000
	f := newSegmentedExecFixture(t, execFixtureDeltaAppends)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(3, func() {
		for _, q := range f.queries {
			if _, err := f.g.Exec(ctx, Query{Vec: q.Values, K: 10}, nil); err != nil {
				t.Fatal(err)
			}
		}
	}) / float64(len(f.queries))
	t.Logf("%.0f allocs per 10-NN query", allocs)
	if allocs > ceiling {
		t.Errorf("%.0f allocs per 10-NN query, ceiling %d", allocs, ceiling)
	}
}
