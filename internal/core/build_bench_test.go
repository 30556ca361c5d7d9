package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"scaleshift/internal/engine"
	"scaleshift/internal/query"
	"scaleshift/internal/store"
)

// The build pipeline's inner loop (`make bench-build`): what a cold
// start, a compaction and an artifact write cost in time, bytes and
// allocations, at the verifier fixture's size and at paper scale.

func benchmarkBuildBulk(b *testing.B, companies int) {
	st := populatedStore(b, companies, 650, 1)
	var stages BuildStages
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, err := NewIndex(st, DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if err := ix.Build(); err != nil {
			b.Fatal(err)
		}
		s := ix.BuildStages()
		stages.Extract, stages.Tile, stages.Emit = stages.Extract+s.Extract, stages.Tile+s.Tile, stages.Emit+s.Emit
		if err := ix.Freeze(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(stages.Extract.Seconds()*1e3/float64(b.N), "extract-ms/op")
	b.ReportMetric(stages.Tile.Seconds()*1e3/float64(b.N), "tile-ms/op")
	b.ReportMetric(stages.Emit.Seconds()*1e3/float64(b.N), "emit-ms/op")
}

// BenchmarkBuildBulk is the cold start's index build, with its stage
// split: extraction, tiling and the serving arena (Freeze is a no-op
// after a bulk build).
func BenchmarkBuildBulk(b *testing.B) {
	for _, companies := range []int{200, 1000} {
		b.Run(fmt.Sprintf("%dx650", companies), func(b *testing.B) { benchmarkBuildBulk(b, companies) })
	}
}

// BenchmarkCompactSegment folds a 4 096-window delta — the compaction
// threshold — into a frozen segment, re-extracting its windows as every
// fold does.
func BenchmarkCompactSegment(b *testing.B) {
	f := newSegmentedExecFixture(b, 4096/execFixtureAppendLen)
	f.g.mu.Lock()
	d, snap := f.g.delta.prefix(f.g.delta.n), f.g.st.Snapshot()
	f.g.mu.Unlock()
	if d.n != 4096 {
		b.Fatalf("delta holds %d windows", d.n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mergeSegments(snap, f.g.fmap, f.g.opts, nil, d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteIndexArtifact writes the 1000 × 650 index's SSIDX
// artifact to a file, as a cold start caching its build does.
func BenchmarkWriteIndexArtifact(b *testing.B) {
	ix, err := NewIndex(populatedStore(b, 1000, 650, 1), DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	if err := ix.Build(); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench.index")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := os.Create(path)
		if err != nil {
			b.Fatal(err)
		}
		if err := ix.WriteBinary(f); err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexMutatePaper is the write path of a plain Index at paper
// scale (1000 × 650): one 650-value sequence appended (searchable when
// AppendAndIndex returns), folded in by Freeze, then unindexed — and what
// a tight probe reads of the folded arena beside a from-scratch build of
// the same store.
func BenchmarkIndexMutatePaper(b *testing.B) {
	st := populatedStore(b, 1000, 650, 1)
	ix, err := NewIndex(st, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	if err := ix.Build(); err != nil {
		b.Fatal(err)
	}
	_, vals := fullSequences(b, populatedStore(b, 1, 650, 2))
	scale, err := query.SENormScale(st, 128, 1000, 1)
	if err != nil {
		b.Fatal(err)
	}
	q := Query{Vec: vals[0][100:228], Eps: 0.001 * scale, Force: engine.PathRTree} // range_tight's ε
	var appendT, foldT, unindexT time.Duration
	var folded, fresh SearchStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		seq, err := ix.AppendAndIndex("NEW", vals[0])
		appendT += time.Since(start)
		if err == nil {
			err = ix.Freeze()
		}
		foldT += time.Since(start)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.StopTimer()
			scratch, err := NewIndex(st, DefaultOptions())
			if err == nil {
				err = scratch.Build()
			}
			if err == nil {
				_, err = scratch.Exec(context.Background(), q, &fresh)
			}
			if err == nil {
				_, err = ix.Exec(context.Background(), q, &folded)
			}
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		start = time.Now()
		if err := ix.UnindexSequence(seq); err != nil {
			b.Fatal(err)
		}
		unindexT += time.Since(start)
	}
	n := float64(b.N)
	b.ReportMetric(appendT.Seconds()*1e6/n, "append-us/op")
	b.ReportMetric(foldT.Seconds()*1e3/n, "append+freeze-ms/op")
	b.ReportMetric(unindexT.Seconds()*1e3/n, "unindex-ms/op")
	b.ReportMetric(float64(folded.IndexNodeAccesses), "folded-nodes")
	b.ReportMetric(float64(fresh.IndexNodeAccesses), "fresh-nodes")
}

// buildCost is what one bulk build of st allocates.
func buildCost(t *testing.T, st *store.Store) (allocs, bytes, arena uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ix, err := NewIndex(st, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Build(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, uint64(ix.IndexByteCount())
}

// TestBuildBulkAllocCeiling pins the point of the arena-native loader:
// a bulk build makes no object per window, nor per checkpoint segment.
// What it allocates is a few buffers per tree level and per worker, so
// doubling the windows (100 × 650 to 200 × 650 adds 52 300 windows in
// 300 segments) adds a tree level's worth at most; and everything it
// allocates — the float64 feature columns the cascade sorts (48 B a
// window), the sort's own scratch, and the float32 arena (37 B) — stays
// within 150 bytes a window.
func TestBuildBulkAllocCeiling(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector allocates shadow state of its own")
	}
	const ceiling, growth = 1000, 100
	small, _, _ := buildCost(t, populatedStore(t, 100, 650, 1))
	large, bytes, arena := buildCost(t, populatedStore(t, 200, 650, 1))
	t.Logf("allocations per build: %d at 100 x 650, %d at 200 x 650; %d bytes for a %d-byte arena (GOMAXPROCS %d)",
		small, large, bytes, arena, runtime.GOMAXPROCS(0))
	if large > ceiling {
		t.Errorf("%d allocations per build, ceiling %d", large, ceiling)
	}
	if large > small+growth {
		t.Errorf("allocations grew from %d to %d as the window count doubled", small, large)
	}
	if windows := uint64(200 * (650 - DefaultOptions().WindowLen + 1)); bytes > 150*windows {
		t.Errorf("build allocated %d bytes for %d windows and a %d-byte arena, over 150 a window", bytes, windows, arena)
	}
}
