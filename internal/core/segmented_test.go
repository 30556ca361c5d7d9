package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

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
	g := freshIndex(t, st, opts)
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
	g := freshIndex(t, st, opts)
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
