package core

import (
	"context"
	"runtime"
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
// ordering and verification).  `make bench-verify` runs the two
// benchmarks; TestExecRangeAllocCeiling pins the allocation count.
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

func benchmarkExecRange(b *testing.B, frac float64) {
	ix, queries, scale := execRangeFixture(b)
	ctx := context.Background()
	var stats SearchStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Exec(ctx, Query{Vec: queries[i%len(queries)].Values, Eps: frac * scale}, &stats); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(stats.Candidates)/float64(b.N), "candidates/op")
}

func BenchmarkExecRangeTight(b *testing.B) { benchmarkExecRange(b, execFixtureTightFrac) }
func BenchmarkExecRangeLoose(b *testing.B) { benchmarkExecRange(b, execFixtureLooseFrac) }

// TestExecRangeAllocCeiling pins the point of the pooled, id-based
// pipeline: a range query's allocations do not scale with its candidate
// count.  What remains per query is the plan and Explain, the
// verifier's query-side vectors, the page sets, and one exactly sized
// answer slice.
func TestExecRangeAllocCeiling(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector's sync.Pool drops items at random, so pooled buffers are reallocated")
	}
	const ceiling = 400
	ix, queries, scale := execRangeFixture(t)
	ctx := context.Background()
	q := queries[0].Values
	for _, tc := range []struct {
		name          string
		frac          float64
		minCandidates int
	}{
		{"tight", execFixtureTightFrac, 1},
		{"loose", execFixtureLooseFrac, 20000},
	} {
		var stats SearchStats
		run := func() {
			if _, err := ix.Exec(ctx, Query{Vec: q, Eps: tc.frac * scale}, &stats); err != nil {
				t.Fatal(err)
			}
		}
		run() // grow the pooled buffers to this query's size
		stats = SearchStats{}
		allocs := testing.AllocsPerRun(10, run)
		perQuery := stats.Candidates / 11 // AllocsPerRun adds a warm-up run
		t.Logf("%s: %d candidates, %.0f allocs/query (GOMAXPROCS %d)", tc.name, perQuery, allocs, runtime.GOMAXPROCS(0))
		if perQuery < tc.minCandidates {
			t.Errorf("%s: only %d candidates per query, the fixture needs at least %d", tc.name, perQuery, tc.minCandidates)
		}
		if allocs > ceiling {
			t.Errorf("%s: %.0f allocs per query over %d candidates, ceiling %d", tc.name, allocs, perQuery, ceiling)
		}
	}
}
