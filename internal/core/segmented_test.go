package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"scaleshift/internal/engine"
	"scaleshift/internal/store"
	"scaleshift/internal/vec"
)

// fullSequences reads every sequence of st out as (name, values).
func fullSequences(t testing.TB, st *store.Store) ([]string, [][]float64) {
	t.Helper()
	names := make([]string, st.NumSequences())
	vals := make([][]float64, st.NumSequences())
	for seq := range names {
		names[seq] = st.SequenceName(seq)
		n := st.SequenceLen(seq)
		buf := make(vec.Vector, n)
		if err := st.Window(seq, 0, n, buf, nil); err != nil {
			t.Fatal(err)
		}
		vals[seq] = buf
	}
	return names, vals
}

// growSegmented replays the full sequences into a fresh store through
// a SegmentedIndex with a random append/compact interleaving driven by
// rng, and returns the segmented index over the final content.
func growSegmented(t testing.TB, opts Options, names []string, vals [][]float64, rng *rand.Rand) *SegmentedIndex {
	t.Helper()
	st := store.New()
	// Random initial prefixes for a random number of leading sequences;
	// the rest arrive later via AppendSequence.
	introduced := rng.Intn(len(names) + 1)
	done := make([]int, len(names)) // values appended so far
	for seq := 0; seq < introduced; seq++ {
		cut := rng.Intn(len(vals[seq]) + 1)
		st.AppendSequence(names[seq], vals[seq][:cut])
		done[seq] = cut
	}
	g, err := NewSegmentedIndex(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	for {
		remaining := introduced < len(names)
		for seq := 0; seq < introduced; seq++ {
			if done[seq] < len(vals[seq]) {
				remaining = true
			}
		}
		if !remaining {
			break
		}
		switch {
		case rng.Intn(8) == 0:
			if err := g.Compact(); err != nil {
				t.Fatal(err)
			}
		case introduced < len(names) && rng.Intn(3) == 0:
			cut := rng.Intn(len(vals[introduced]) + 1)
			seq, err := g.AppendSequence(names[introduced], vals[introduced][:cut])
			if err != nil {
				t.Fatal(err)
			}
			if seq != introduced {
				t.Fatalf("AppendSequence returned seq %d, want %d", seq, introduced)
			}
			done[introduced] = cut
			introduced++
		default:
			if introduced == 0 {
				continue
			}
			seq := rng.Intn(introduced)
			left := len(vals[seq]) - done[seq]
			if left == 0 {
				continue
			}
			chunk := 1 + rng.Intn(left)
			if err := g.AppendValues(seq, vals[seq][done[seq]:done[seq]+chunk]); err != nil {
				t.Fatal(err)
			}
			done[seq] += chunk
		}
	}
	if rng.Intn(2) == 0 {
		if err := g.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func matchesEqual(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSegmentedEquivalence is the heart of the segmented-index
// contract: an index grown through arbitrary append/compact
// interleavings answers every query class bit-identically to a
// from-scratch bulk build over the same final data.
func TestSegmentedEquivalence(t *testing.T) {
	opts := testOptions()
	ref := buildTestIndex(t, opts, 5, 400)
	if err := ref.Freeze(); err != nil {
		t.Fatal(err)
	}
	names, vals := fullSequences(t, ref.Store())
	q, eps := testQueryEps(t, ref)

	longQ := make(vec.Vector, 3*opts.WindowLen)
	if err := ref.Store().Window(2, 11, len(longQ), longQ, nil); err != nil {
		t.Fatal(err)
	}
	longQ = vec.Apply(longQ, 0.8, 2)

	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		g := growSegmented(t, opts, names, vals, rng)
		g.MaxFrozen = 2 + rng.Intn(3)

		if got, want := g.WindowCount(), ref.WindowCount(); got != want {
			t.Fatalf("trial %d: segmented covers %d windows, reference %d", trial, got, want)
		}

		for _, mult := range []float64{0.5, 1, 2} {
			e := eps * mult
			var rs, gs SearchStats
			want, err := search(ref, q, e, &rs)
			if err != nil {
				t.Fatal(err)
			}
			got, err := search(g, q, e, &gs)
			if err != nil {
				t.Fatal(err)
			}
			if !matchesEqual(got, want) {
				t.Fatalf("trial %d eps %g: segmented range results diverge:\n%v\nvs\n%v", trial, e, got, want)
			}
			if err := gs.CheckInvariants(); err != nil {
				t.Fatalf("trial %d: segmented stats: %v", trial, err)
			}
			if err := rs.CheckInvariants(); err != nil {
				t.Fatalf("trial %d: reference stats: %v", trial, err)
			}
		}

		// Scale-bounded query (exercises segment-restricted probes) and
		// a forced scan (must match too — same verifier).
		costs := CostBounds{ScaleMin: 0.5, ScaleMax: 2, ShiftMin: math.Inf(-1), ShiftMax: math.Inf(1)}
		want, _, err := run(context.Background(), ref, Query{Vec: q, Eps: eps, Costs: costs}, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := run(context.Background(), g, Query{Vec: q, Eps: eps, Costs: costs}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !matchesEqual(got, want) {
			t.Fatalf("trial %d: scale-bounded results diverge", trial)
		}
		gotScan, _, err := run(context.Background(), g, Query{Vec: q, Eps: eps, Force: engine.PathScan}, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantScan, _, err := run(context.Background(), ref, Query{Vec: q, Eps: eps, Force: engine.PathScan}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !matchesEqual(gotScan, wantScan) {
			t.Fatalf("trial %d: forced-scan results diverge", trial)
		}

		wantLong, err := search(ref, longQ, 2*eps, nil)
		if err != nil {
			t.Fatal(err)
		}
		gotLong, err := search(g, longQ, 2*eps, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !matchesEqual(gotLong, wantLong) {
			t.Fatalf("trial %d: long-query results diverge:\n%v\nvs\n%v", trial, gotLong, wantLong)
		}

		var ns SearchStats
		wantNN, err := nearest(ref, q, 5, nil)
		if err != nil {
			t.Fatal(err)
		}
		gotNN, err := nearest(g, q, 5, &ns)
		if err != nil {
			t.Fatal(err)
		}
		if !matchesEqual(gotNN, wantNN) {
			t.Fatalf("trial %d: k-NN results diverge:\n%v\nvs\n%v", trial, gotNN, wantNN)
		}

		// The Explain must carry one plan per probed segment.
		_, ex, err := run(context.Background(), g, Query{Vec: q, Eps: eps}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(ex.Segments) == 0 {
			t.Fatalf("trial %d: segmented Explain has no segment plans", trial)
		}
		var buf bytes.Buffer
		if err := ex.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSegmentedConcurrent drives appends, background compaction, and
// queries from many goroutines at once (the -race harness), then
// quiesces and asserts bit-identity against a from-scratch build.
func TestSegmentedConcurrent(t *testing.T) {
	opts := testOptions()
	ref := buildTestIndex(t, opts, 6, 300)
	names, vals := fullSequences(t, ref.Store())
	q, eps := testQueryEps(t, ref)

	st := store.New()
	// Start with short prefixes of every sequence so writers only ever
	// extend their own sequences (no cross-writer interleaving).
	prefix := 40
	done := make([]int, len(names))
	for seq := range names {
		st.AppendSequence(names[seq], vals[seq][:prefix])
		done[seq] = prefix
	}
	g, err := NewSegmentedIndex(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	g.CompactThreshold = 64
	g.MaxFrozen = 3
	g.StartCompactor()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// One writer per pair of sequences.
	for w := 0; w < 3; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				idle := true
				for seq := w * 2; seq < w*2+2 && seq < len(names); seq++ {
					left := len(vals[seq]) - done[seq]
					if left == 0 {
						continue
					}
					idle = false
					chunk := 1 + rng.Intn(min(left, 37))
					if err := g.AppendValues(seq, vals[seq][done[seq]:done[seq]+chunk]); err != nil {
						t.Error(err)
						return
					}
					done[seq] += chunk
				}
				if idle {
					return
				}
			}
		}()
	}
	// Query hammerers: results are not compared mid-flight (the data is
	// in motion) but must be error-free with sane stats.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var s SearchStats
				if _, err := search(g, q, eps, &s); err != nil {
					t.Error(err)
					return
				}
				if err := s.CheckInvariants(); err != nil {
					t.Error(err)
					return
				}
				if _, err := nearest(g, q, 3, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	// Wait for writers, then stop the readers.
	writersDone := make(chan struct{})
	go func() {
		// The first 3 Adds are writers; simplest is a second WaitGroup,
		// but polling done[] is race-free only under quiescence — so
		// watch the counts through the segmented index itself.
		for {
			if g.WindowCount() == ref.WindowCount() {
				close(writersDone)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	select {
	case <-writersDone:
	case <-time.After(30 * time.Second):
		t.Error("writers did not finish in 30s")
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Quiesced: flush the delta and compare bit-identically.
	if err := g.Compact(); err != nil {
		t.Fatal(err)
	}
	want, err := search(ref, q, eps, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := search(g, q, eps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !matchesEqual(got, want) {
		t.Fatalf("post-quiesce results diverge:\n%v\nvs\n%v", got, want)
	}
	b := g.Backlog()
	if b.Compactions == 0 {
		t.Fatal("background compactor never ran")
	}
	if b.DeltaWindows != 0 {
		t.Fatalf("delta not empty after final compact: %d", b.DeltaWindows)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentedCompactionLifecycle exercises thresholds, merges, the
// fault-injection hook, and the Backlog gauges.
func TestSegmentedCompactionLifecycle(t *testing.T) {
	opts := testOptions()
	ref := buildTestIndex(t, opts, 4, 200)
	names, vals := fullSequences(t, ref.Store())

	st := store.New()
	for seq := range names {
		st.AppendSequence(names[seq], vals[seq][:50])
	}
	g, err := NewSegmentedIndex(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	g.MaxFrozen = 2

	// Grow, compacting after each sequence: with MaxFrozen=2 this must
	// trigger merges, ending with a bounded frozen list.
	for seq := range names {
		if err := g.AppendValues(seq, vals[seq][50:]); err != nil {
			t.Fatal(err)
		}
		if err := g.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	b := g.Backlog()
	if b.Frozen > g.MaxFrozen {
		t.Fatalf("frozen segments %d exceed MaxFrozen %d after merges", b.Frozen, g.MaxFrozen)
	}
	if b.DeltaWindows != 0 {
		t.Fatalf("delta not empty after compactions: %d", b.DeltaWindows)
	}
	if b.Compactions == 0 || b.CompactPauseMax == 0 {
		t.Fatalf("compaction gauges not recorded: %+v", b)
	}
	if got, want := b.FrozenWindows, ref.WindowCount(); got != want {
		t.Fatalf("frozen windows %d, want %d", got, want)
	}

	// A failing hook aborts the compaction, records the error, and
	// leaves the delta intact (still served exactly).
	if err := g.AppendValues(0, []float64{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	before := g.Backlog().DeltaWindows
	if before == 0 {
		t.Fatal("expected delta windows before faulted compaction")
	}
	g.compactHook = func() error { return fmt.Errorf("injected fault") }
	if err := g.Compact(); err == nil {
		t.Fatal("faulted compaction did not error")
	}
	b = g.Backlog()
	if b.LastCompactErr == "" {
		t.Fatal("fault not recorded in Backlog")
	}
	if b.DeltaWindows != before {
		t.Fatalf("faulted compaction changed the delta: %d -> %d", before, b.DeltaWindows)
	}
	g.compactHook = nil
	if err := g.Compact(); err != nil {
		t.Fatal(err)
	}
	if b = g.Backlog(); b.LastCompactErr != "" || b.DeltaWindows != 0 {
		t.Fatalf("recovery compaction left state: %+v", b)
	}
}

// TestSegmentedTieredRetention pins the size-tiered compaction policy:
// under a long run of small folds the frozen list must stay
// logarithmic in the ingested volume WITHOUT the MaxFrozen full-merge
// backstop ever firing, partial merges must only ever touch an
// adjacent run (checked structurally via the per-sequence contiguous
// coverage the segment artifact validates), and the results must stay
// bit-identical to a from-scratch build.
func TestSegmentedTieredRetention(t *testing.T) {
	opts := testOptions()
	ref := buildTestIndex(t, opts, 4, 400)
	if err := ref.Freeze(); err != nil {
		t.Fatal(err)
	}
	names, vals := fullSequences(t, ref.Store())
	q, eps := testQueryEps(t, ref)

	st := store.New()
	for seq := range names {
		st.AppendSequence(names[seq], vals[seq][:60])
	}
	g, err := NewSegmentedIndex(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	// Push the backstop out of the way: the tiered ladder alone must
	// keep the list small.
	g.MaxFrozen = 1024

	// Feed the rest in small per-round chunks, compacting every round —
	// the worst case for a flat policy (one new segment per round).
	const chunk = 8
	rounds, maxFrozen := 0, 0
	for pos := 60; pos < 400; pos += chunk {
		hi := pos + chunk
		if hi > 400 {
			hi = 400
		}
		for seq := range names {
			if err := g.AppendValues(seq, vals[seq][pos:hi]); err != nil {
				t.Fatal(err)
			}
		}
		if err := g.Compact(); err != nil {
			t.Fatal(err)
		}
		rounds++
		if f := g.Backlog().Frozen; f > maxFrozen {
			maxFrozen = f
		}
	}
	b := g.Backlog()
	if b.Compactions < rounds {
		t.Fatalf("only %d compactions over %d rounds", b.Compactions, rounds)
	}
	if b.DeltaWindows != 0 {
		t.Fatalf("delta not drained: %d windows", b.DeltaWindows)
	}
	// Ratio-2 tiering admits at most ~log2(total/chunkWindows)+2
	// segments; 42 rounds under a flat policy would hold 40+.  The
	// ladder must both form (partial merges, not a full merge every
	// round) and stay logarithmic.
	if maxFrozen > 12 {
		t.Fatalf("tiered retention let the ladder grow to %d segments over %d rounds", maxFrozen, rounds)
	}
	if maxFrozen < 3 {
		t.Fatalf("no ladder formed (max %d segments): merges are rewriting the world", maxFrozen)
	}
	if got, want := g.WindowCount(), ref.WindowCount(); got != want {
		t.Fatalf("segmented covers %d windows, reference %d", got, want)
	}

	want, err := search(ref, q, eps, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := search(g, q, eps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !matchesEqual(got, want) {
		t.Fatalf("tiered index diverges from reference:\n%v\nvs\n%v", got, want)
	}

	// The artifact round trip re-validates that every partial merge
	// preserved contiguous per-sequence coverage (LoadSegments rejects
	// gaps or overlaps), and the loaded copy serves identically.
	var buf bytes.Buffer
	if err := g.WriteSegments(&buf); err != nil {
		t.Fatal(err)
	}
	g2, rebuilt, err := LoadSegments(bytes.NewReader(buf.Bytes()), st)
	if err != nil || len(rebuilt) > 0 {
		t.Fatalf("tiered layout failed artifact validation: %v (rebuilt %v)", err, rebuilt)
	}
	defer g2.Close()
	got2, err := search(g2, q, eps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !matchesEqual(got2, want) {
		t.Fatalf("reloaded tiered index diverges:\n%v\nvs\n%v", got2, want)
	}
}

// TestSegmentedMergeRunPolicy unit-tests the decide step directly:
// the run must be a suffix, absorb equal-size neighbours (binary
// counter), stop at a much larger older segment, and fall back to a
// full merge when MaxFrozen would be exceeded.
func TestSegmentedMergeRunPolicy(t *testing.T) {
	g := &SegmentedIndex{MergeRatio: 2, MaxFrozen: 8}
	segs := func(counts ...int) []*frozenSeg {
		out := make([]*frozenSeg, len(counts))
		for i, c := range counts {
			out[i] = &frozenSeg{count: c}
		}
		return out
	}
	cases := []struct {
		frozen []*frozenSeg
		cut    int
		want   int
	}{
		{segs(), 10, 0},             // nothing frozen: pure fold
		{segs(1000), 10, 1},         // big old segment untouched
		{segs(1000, 10), 10, 1},     // equal neighbour absorbed
		{segs(1000, 20, 10), 10, 1}, // cascade: 10+10 absorbs 20
		{segs(1000, 50, 10), 10, 2}, // 50 > 2*(10+10): cascade stops
		{segs(8, 4, 2), 1, 0},       // counter roll-up reaches the head
		{segs(1000, 500), 0, 2},     // empty delta: nothing to fold
		{segs(40, 20, 10), 1000, 0}, // huge fold swallows everything
	}
	for i, c := range cases {
		g.frozen = c.frozen
		if got := g.mergeRunLocked(c.cut); got != c.want {
			t.Errorf("case %d: mergeRun(cut=%d over %d segments) = %d, want %d",
				i, c.cut, len(c.frozen), got, c.want)
		}
	}

	// The MaxFrozen backstop: a fold that would leave 4 segments with
	// MaxFrozen=3 must merge everything instead.
	g = &SegmentedIndex{MergeRatio: 2, MaxFrozen: 3}
	g.frozen = segs(1000, 100, 10)
	if got := g.mergeRunLocked(1); got != 0 {
		t.Errorf("backstop: got run start %d, want 0 (full merge)", got)
	}

	// MergeRatio=0 disables tiering entirely (ssgen's explicit chunks).
	g = &SegmentedIndex{MergeRatio: 0, MaxFrozen: 10}
	g.frozen = segs(10, 10, 10)
	if got := g.mergeRunLocked(10); got != 3 {
		t.Errorf("tiering disabled: got run start %d, want 3 (pure fold)", got)
	}
}

// TestWriteLoadSegments round-trips a multi-segment artifact and
// verifies the loaded index serves identically — including when the
// store has grown past the artifact (the WAL-replay restart shape).
func TestWriteLoadSegments(t *testing.T) {
	opts := testOptions()
	ref := buildTestIndex(t, opts, 4, 250)
	names, vals := fullSequences(t, ref.Store())
	q, eps := testQueryEps(t, ref)

	st := store.New()
	for seq := range names {
		st.AppendSequence(names[seq], vals[seq][:150])
	}
	g, err := NewSegmentedIndex(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for seq := range names {
		if err := g.AppendValues(seq, vals[seq][150:200]); err != nil {
			t.Fatal(err)
		}
	}

	// Uncompacted delta refuses to serialize.
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
	if g.Backlog().Frozen < 2 {
		t.Fatalf("want a multi-segment artifact, got %d segments", g.Backlog().Frozen)
	}

	// Reopen against the same store, then grow both the original and
	// the loaded copy to the full data and compare against ref.
	g2, rebuilt, err := LoadSegments(bytes.NewReader(buf.Bytes()), st)
	if err != nil || len(rebuilt) > 0 {
		t.Fatalf("round trip: %v (rebuilt %v)", err, rebuilt)
	}
	defer g2.Close()
	if got, want := g2.WindowCount(), g.WindowCount(); got != want {
		t.Fatalf("loaded index covers %d windows, original %d", got, want)
	}
	for seq := range names {
		if err := g2.AppendValues(seq, vals[seq][200:]); err != nil {
			t.Fatal(err)
		}
	}
	want, err := search(ref, q, eps, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := search(g2, q, eps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !matchesEqual(got, want) {
		t.Fatalf("loaded+grown segmented index diverges:\n%v\nvs\n%v", got, want)
	}

	// Loading against a SHORTER store (artifact covers windows the
	// store lacks) must be rejected, not served.
	short := store.New()
	for seq := range names {
		short.AppendSequence(names[seq], vals[seq][:100])
	}
	if _, _, err := LoadSegments(bytes.NewReader(buf.Bytes()), short); err == nil {
		t.Fatal("artifact loaded against a store missing its windows")
	}
}
