package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"scaleshift/internal/engine"
	"scaleshift/internal/seqscan"
	"scaleshift/internal/store"
	"scaleshift/internal/vec"
)

// The delta is filtered in feature space like a frozen leaf, so the
// suites below hold a segmented index that ENDS with a populated delta
// — windows in the tail, windows straddling the packed/tail boundary,
// more than one block of them — to the two independent oracles: a
// from-scratch Index over the same final data and the sequential scan.

// stockSeries generates companies price series of the given length.
func stockSeries(t testing.TB, companies, days int) ([]string, [][]float64) {
	t.Helper()
	return fullSequences(t, populatedStore(t, companies, days, 1))
}

// deltaFixture is a segmented index grown to a final state with a
// populated delta, beside its oracles.
type deltaFixture struct {
	g   *SegmentedIndex
	ref *Index // from-scratch bulk build over the same final data
	// packed is each sequence's length when the index was created: the
	// packed/tail boundary of every sequence that grew afterwards.
	packed []int
}

// growWithDelta replays vals through a SegmentedIndex on a random
// schedule with a fixed shape.  Every sequence starts as a random
// prefix; the even sequences then grow through two rounds of small
// appends, each round closed by a compaction that adds a frozen segment
// (merging is off, so the index ends with three); finally every
// sequence — the odd ones for the first time — grows to its full length
// in random small chunks with no compaction.  The delta therefore ends
// holding, for every odd sequence, all n−1 windows that straddle its
// packed/tail boundary, and tail windows of every sequence.
func growWithDelta(t testing.TB, opts Options, names []string, vals [][]float64, rng *rand.Rand) *deltaFixture {
	t.Helper()
	n := opts.WindowLen
	st := store.New()
	done := make([]int, len(names))
	for seq := range names {
		done[seq] = n + rng.Intn(len(vals[seq])/2-n)
		st.AppendSequence(names[seq], vals[seq][:done[seq]])
	}
	f := &deltaFixture{packed: slices.Clone(done)}
	var err error
	if f.g, err = NewSegmentedIndex(st, opts); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.g.Close() })
	f.g.MergeRatio, f.g.MaxFrozen = 0, 0
	grow := func(seq, limit int) {
		chunk := min(1+rng.Intn(16), limit-done[seq])
		if chunk <= 0 {
			return
		}
		if err := f.g.AppendValues(seq, vals[seq][done[seq]:done[seq]+chunk]); err != nil {
			t.Fatal(err)
		}
		done[seq] += chunk
	}
	for round := 1; round <= 2; round++ {
		for op := 0; op < 10*len(names); op++ {
			seq := 2 * rng.Intn((len(names)+1)/2)
			// Stop short of the end: the last phase needs something to add.
			grow(seq, f.packed[seq]+round*(len(vals[seq])-f.packed[seq])/3)
		}
		if err := f.g.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	for left := true; left; {
		left = false
		for _, seq := range rng.Perm(len(names)) {
			grow(seq, len(vals[seq]))
			left = left || done[seq] < len(vals[seq])
		}
	}

	refStore := store.New()
	for seq := range names {
		refStore.AppendSequence(names[seq], vals[seq])
	}
	if f.ref, err = NewIndex(refStore, opts); err != nil {
		t.Fatal(err)
	}
	if err := f.ref.BuildBulk(); err != nil {
		t.Fatal(err)
	}
	if got, want := f.g.WindowCount(), f.ref.WindowCount(); got != want {
		t.Fatalf("segmented index covers %d windows, from-scratch index %d", got, want)
	}
	return f
}

// deltaShape reports the delta's size, how many of its windows straddle
// their sequence's packed/tail boundary, and the frozen segment count.
func (f *deltaFixture) deltaShape() (windows, straddling, frozen int) {
	pin := f.g.cell.Acquire()
	defer pin.Release()
	m := pin.Value()
	n := f.g.opts.WindowLen
	for _, id := range m.delta.appendIDs(nil) {
		seq, start := store.DecodeWindowID(id)
		if start < f.packed[seq] && start+n > f.packed[seq] {
			straddling++
		}
	}
	return m.delta.n, straddling, len(m.frozen)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameMatches compares two answers window for window with
// Float64bits-identical (dist, scale, shift).
func sameMatches(a, b []Match) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d matches vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Seq != y.Seq || x.Start != y.Start || x.Name != y.Name ||
			!sameBits(x.Dist, y.Dist) || !sameBits(x.Scale, y.Scale) || !sameBits(x.Shift, y.Shift) {
			return fmt.Errorf("match %d: %+v vs %+v", i, x, y)
		}
	}
	return nil
}

// sameAsScan compares an answer with the sequential scan's.
func sameAsScan(got []Match, scan []seqscan.Result) error {
	if len(got) != len(scan) {
		return fmt.Errorf("%d matches, the scan finds %d", len(got), len(scan))
	}
	for i, m := range got {
		s := scan[i]
		if m.Seq != s.Seq || m.Start != s.Start ||
			!sameBits(m.Dist, s.Dist) || !sameBits(m.Scale, s.Scale) || !sameBits(m.Shift, s.Shift) {
			return fmt.Errorf("match %d: %+v, the scan has %+v", i, m, s)
		}
	}
	return nil
}

// checkRange holds one range (or long) query on the segmented index,
// under every forced path, to the from-scratch index and to the scan,
// and returns the match count.
func (f *deltaFixture) checkRange(t *testing.T, label string, q vec.Vector, eps float64, costs CostBounds) int {
	t.Helper()
	ctx := context.Background()
	scan, err := seqscan.Search(f.ref.Store(), q, eps, costs.Allow, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := run(ctx, f.ref, Query{Vec: q, Eps: eps, Costs: costs}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameAsScan(want, scan); err != nil {
		t.Fatalf("%s: from-scratch index vs scan: %v", label, err)
	}
	for _, force := range []engine.PathKind{engine.PathAuto, engine.PathRTree, engine.PathScan} {
		var stats SearchStats
		got, _, err := run(ctx, f.g, Query{Vec: q, Eps: eps, Costs: costs, Force: force}, &stats)
		if err != nil {
			t.Fatalf("%s, %s: %v", label, force, err)
		}
		if err := sameMatches(got, want); err != nil {
			t.Fatalf("%s, %s: segmented vs from-scratch index: %v", label, force, err)
		}
		if err := stats.CheckInvariants(); err != nil {
			t.Fatalf("%s, %s: %v", label, force, err)
		}
	}
	return len(want)
}

// checkKNN holds a k-NN query to the scan, distance for distance.  Tied
// windows may come back in either order, so each returned window's
// transformation is also checked against its own exact MinDist.
func (f *deltaFixture) checkKNN(t *testing.T, label string, q vec.Vector, k int) {
	t.Helper()
	got, err := nearest(f.g, q, k, nil)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	scan, err := seqscan.Nearest(f.ref.Store(), q, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(scan) {
		t.Fatalf("%s: %d neighbours, the scan finds %d", label, len(got), len(scan))
	}
	w := make(vec.Vector, len(q))
	for i, m := range got {
		if !sameBits(m.Dist, scan[i].Dist) {
			t.Fatalf("%s: neighbour %d at distance %v, the scan's is at %v", label, i, m.Dist, scan[i].Dist)
		}
		if err := f.ref.Store().Window(m.Seq, m.Start, len(q), w, nil); err != nil {
			t.Fatal(err)
		}
		if e := vec.MinDist(q, w); !sameBits(m.Dist, e.Dist) || !sameBits(m.Scale, e.Scale) || !sameBits(m.Shift, e.Shift) {
			t.Fatalf("%s: neighbour %d = %+v, its exact distance is %+v", label, i, m, e)
		}
	}
}

// window reads one window of the final data.
func (f *deltaFixture) window(t *testing.T, seq, start, n int) vec.Vector {
	t.Helper()
	w := make(vec.Vector, n)
	if err := f.ref.Store().Window(seq, start, n, w, nil); err != nil {
		t.Fatal(err)
	}
	return w
}

// seNorm is ‖T_se(w)‖, the unit ε is chosen in.
func seNorm(w vec.Vector) float64 { return vec.Norm(vec.SETransform(w)) }

// TestSegmentedDeltaDifferential runs every query class over random
// append schedules that end with a populated delta: range with
// unbounded and scale-bounded costs under Force auto/rtree/scan, long,
// and k-NN, with queries cut from the delta's straddling windows, from
// its tail windows and from the frozen side.
func TestSegmentedDeltaDifferential(t *testing.T) {
	opts := testOptions()
	n := opts.WindowLen
	names, vals := stockSeries(t, 6, 420)
	bounded := CostBounds{ScaleMin: 0.5, ScaleMax: 2, ShiftMin: math.Inf(-1), ShiftMax: math.Inf(1)}
	for trial := 0; trial < 4; trial++ {
		rng := rand.New(rand.NewSource(int64(7100 + trial)))
		f := growWithDelta(t, opts, names, vals, rng)
		windows, straddling, frozen := f.deltaShape()
		if windows <= deltaBlockLen || straddling < (n-1)*(len(names)/2) || frozen < 3 {
			t.Fatalf("trial %d: fixture too easy: %d delta windows (%d straddling), %d frozen segments", trial, windows, straddling, frozen)
		}
		matched := 0
		for _, src := range []struct {
			what       string
			seq, start int
		}{
			{"straddling", 1, f.packed[1] - n/2},
			{"tail", 3, len(vals[3]) - n - 5},
			{"frozen", 2, 3},
		} {
			w := f.window(t, src.seq, src.start, n)
			q := vec.Apply(w, 1.3, -2)
			for _, frac := range []float64{0.02, 0.3} {
				label := fmt.Sprintf("trial %d, %s query, eps %g", trial, src.what, frac)
				matched += f.checkRange(t, label, q, frac*seNorm(w), UnboundedCosts())
				matched += f.checkRange(t, label+", scale-bounded", q, frac*seNorm(w), bounded)
			}
			f.checkKNN(t, fmt.Sprintf("trial %d, %s query", trial, src.what), q, 5)
		}
		// A long query ending on the last appended sample: its later
		// pieces are delta windows.
		long := f.window(t, 5, len(vals[5])-3*n, 3*n)
		matched += f.checkRange(t, fmt.Sprintf("trial %d, long query", trial), vec.Apply(long, 0.8, 2), 0.2*seNorm(long), UnboundedCosts())
		if matched == 0 {
			t.Fatalf("trial %d: no query matched anything; the comparison is vacuous", trial)
		}
	}
}

// TestSegmentedDeltaAdversarialMagnitudes repeats the differential at
// the magnitudes where a feature-space filter could go wrong: values
// near the ends of the range the exact distance itself survives, constant
// runs (windows whose SE image is the origin, at distance 0 of every
// SE-line), and a delta whose features dwarf everything the frozen
// segments held when they were built, so the slack every segment is
// probed with has to come from the delta.
//
// The large end is 1e75, not 1e150: vec.MinDist forms ‖u‖²·‖v‖², which
// overflows from about 1e77 on, and past that the sequential scan — the
// oracle — reports every window at distance 0.  The small end has no
// such limit short of the subnormals.
func TestSegmentedDeltaAdversarialMagnitudes(t *testing.T) {
	opts := testOptions()
	n := opts.WindowLen
	names, base := stockSeries(t, 6, 300)
	var peak float64
	for _, s := range base {
		for _, v := range s {
			peak = math.Max(peak, math.Abs(v))
		}
	}
	scaled := func(mag func(seq int) float64) [][]float64 {
		out := make([][]float64, len(base))
		for seq, s := range base {
			out[seq] = make([]float64, len(s))
			for i, v := range s {
				out[seq][i] = v / peak * mag(seq)
			}
		}
		return out
	}
	plateaus := scaled(func(int) float64 { return 1 })
	for seq, s := range plateaus {
		// One constant run in what will be frozen, one reaching the end of
		// the sequence (delta, straddling for the odd sequences), and one
		// sequence constant throughout.
		for i := range s {
			if seq == 4 || (i >= 10 && i < 10+2*n) || i >= len(s)-2*n {
				s[i] = s[10]
			}
		}
	}
	for _, tc := range []struct {
		name string
		vals [][]float64
	}{
		{"1e75", scaled(func(int) float64 { return 1e75 })},
		{"1e-150", scaled(func(int) float64 { return 1e-150 })},
		{"constant runs", plateaus},
		// The odd sequences reach the index only through the delta.
		{"delta raises the slack", scaled(func(seq int) float64 { return math.Pow(1e6, float64(seq%2)) })},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := growWithDelta(t, opts, names, tc.vals, rand.New(rand.NewSource(99)))
			if windows, straddling, frozen := f.deltaShape(); windows == 0 || straddling == 0 || frozen < 3 {
				t.Fatalf("fixture too easy: %d delta windows (%d straddling), %d frozen segments", windows, straddling, frozen)
			}
			matched := 0
			for _, src := range [][2]int{{1, f.packed[1] - n/2}, {3, len(tc.vals[3]) - n - 40}, {2, 60}} {
				w := f.window(t, src[0], src[1], n)
				mag := math.Abs(w[0])
				q := vec.Apply(w, 1.7, 3*mag)
				for _, frac := range []float64{0, 0.05, 0.5} {
					label := fmt.Sprintf("query (%d,%d), eps %g", src[0], src[1], frac)
					matched += f.checkRange(t, label, q, frac*seNorm(w), UnboundedCosts())
					matched += f.checkRange(t, label+", scale-bounded", q, frac*seNorm(w),
						CostBounds{ScaleMin: 0.25, ScaleMax: 4, ShiftMin: math.Inf(-1), ShiftMax: math.Inf(1)})
				}
				f.checkKNN(t, fmt.Sprintf("query (%d,%d)", src[0], src[1]), q, 4)
			}
			if matched == 0 {
				t.Fatal("no query matched anything; the comparison is vacuous")
			}
		})
	}
}

// TestSegmentedKNNStopsEarlyInDelta pins the delta's k-NN bound.  With
// a delta of thousands of windows, a query refines exactly the windows
// it would refine were the delta a frozen segment — the stream carries
// the same lower bounds in the same order, so it stops at the same
// place — which is a small multiple of what a from-scratch index
// refines (each segment's stream starts before the shared top-k is at
// its final value) and nowhere near one refinement per delta window.
func TestSegmentedKNNStopsEarlyInDelta(t *testing.T) {
	opts := testOptions()
	n := opts.WindowLen
	names, vals := stockSeries(t, 12, 600)
	f := growWithDelta(t, opts, names, vals, rand.New(rand.NewSource(5)))
	windows, _, frozen := f.deltaShape()
	if windows < 2000 {
		t.Fatalf("delta holds only %d windows", windows)
	}
	const k = 5
	sources := [][2]int{{1, f.packed[1] - n/2}, {6, 40}, {9, len(vals[9]) - n}}
	withDelta := make([]SearchStats, len(sources))
	knn := func(i int, ix execer, stats *SearchStats) []Match {
		q := vec.Apply(f.window(t, sources[i][0], sources[i][1], n), 0.7, 4)
		got, err := nearest(ix, q, k, stats)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	for i, src := range sources {
		var ref SearchStats
		if err := sameMatches(knn(i, f.g, &withDelta[i]), knn(i, f.ref, &ref)); err != nil {
			t.Fatalf("query %v: %v", src, err)
		}
		seg := withDelta[i]
		t.Logf("query %v: %d refined with a %d-window delta, %d on the from-scratch index", src, seg.Candidates, windows, ref.Candidates)
		if limit := (frozen + 1) * (ref.Candidates + k); seg.Candidates > limit || seg.Candidates > windows/8 {
			t.Errorf("query %v: refined %d candidates with a %d-window delta; the from-scratch index refines %d (limit %d)",
				src, seg.Candidates, windows, ref.Candidates, limit)
		}
		if seg.LeafEntriesChecked < windows {
			t.Errorf("query %v: %d leaf entries checked, fewer than the delta's %d feature tests", src, seg.LeafEntriesChecked, windows)
		}
	}
	// Freeze the delta as a fourth segment (merging is off): the same
	// windows, now behind a best-first tree stream.
	if err := f.g.Compact(); err != nil {
		t.Fatal(err)
	}
	if windows, _, frozen := f.deltaShape(); windows != 0 || frozen != 4 {
		t.Fatalf("after compaction: %d delta windows, %d frozen segments", windows, frozen)
	}
	for i, src := range sources {
		var frozenStats SearchStats
		knn(i, f.g, &frozenStats)
		// Windows tied at the stopping bound may fall on either side.
		if d := withDelta[i].Candidates - frozenStats.Candidates; d < -k || d > k {
			t.Errorf("query %v: refined %d candidates with the delta, %d with the same windows frozen", src, withDelta[i].Candidates, frozenStats.Candidates)
		}
	}
}

// TestSegmentedPinnedReadersRace is the race detector's view of the
// delta's pin-by-length discipline: readers hold manifests whose delta
// view ends inside a block the writer keeps filling, and re-run range
// and k-NN queries on them while appends and compactions proceed.  A
// pinned manifest's data cannot change, so every re-run must reproduce
// its first answer exactly.
func TestSegmentedPinnedReadersRace(t *testing.T) {
	opts := testOptions()
	n := opts.WindowLen
	names, vals := stockSeries(t, 6, 500)
	st := store.New()
	for seq := range names {
		st.AppendSequence(names[seq], vals[seq][:200])
	}
	g, err := NewSegmentedIndex(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	w := make(vec.Vector, n)
	if err := st.Window(2, 150, n, w, nil); err != nil {
		t.Fatal(err)
	}
	q, eps := vec.Apply(w, 1.2, 1), 0.3*seNorm(w)
	ctx := context.Background()

	// Readers pin first, so the appenders never run unobserved; an
	// appender yields every fourth round and compacts every twentieth,
	// beside the other appender's appends and the readers' sweeps.
	var appenders, readers, pinned sync.WaitGroup
	var stale atomic.Int64 // re-runs on a manifest that had been superseded
	stop := make(chan struct{})
	forces := []engine.PathKind{engine.PathAuto, engine.PathRTree, engine.PathScan}
	pinned.Add(3)
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for iter := 0; ; iter++ {
				select {
				case <-stop:
					return
				default:
				}
				pin := g.cell.Acquire()
				m := pin.Value()
				if iter == 0 {
					pinned.Done()
				}
				first, err := exec(ctx, m, Query{Vec: q, Eps: eps}, nil)
				firstNN, errNN := exec(ctx, m, Query{Vec: q, K: 4}, nil)
				for _, force := range forces {
					if err != nil || errNN != nil {
						t.Error(err, errNN)
						break
					}
					if g.Generation() > m.gen {
						stale.Add(1)
					}
					var again, againNN Result
					again, err = exec(ctx, m, Query{Vec: q, Eps: eps, Force: force}, nil)
					againNN, errNN = exec(ctx, m, Query{Vec: q, K: 4}, nil)
					if err := sameMatches(again.Matches, first.Matches); err != nil {
						t.Errorf("generation %d, delta %d, %s: range answer changed under a pinned manifest: %v", m.gen, m.delta.n, force, err)
					}
					if err := sameMatches(againNN.Matches, firstNN.Matches); err != nil {
						t.Errorf("generation %d, delta %d: k-NN answer changed under a pinned manifest: %v", m.gen, m.delta.n, err)
					}
				}
				pin.Release()
				if t.Failed() {
					return
				}
			}
		}()
	}
	pinned.Wait()
	for wr := 0; wr < 2; wr++ {
		appenders.Add(1)
		go func(wr int) {
			defer appenders.Done()
			rng := rand.New(rand.NewSource(int64(wr)))
			for pos, round := 200, 1; pos < 500; round++ {
				chunk := min(1+rng.Intn(8), 500-pos)
				for seq := wr; seq < len(names); seq += 2 {
					if err := g.AppendValues(seq, vals[seq][pos:pos+chunk]); err != nil {
						t.Error(err)
						return
					}
				}
				pos += chunk
				if round%20 == 0 {
					if err := g.Compact(); err != nil {
						t.Error(err)
						return
					}
				}
				if round%4 == 0 {
					runtime.Gosched()
				}
			}
		}(wr)
	}
	appenders.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}
	if stale.Load() == 0 {
		t.Fatal("no query ran on a superseded manifest; the readers never overlapped the writers")
	}

	// Quiesced: the final state still answers like a from-scratch build.
	ref := store.New()
	for seq := range names {
		ref.AppendSequence(names[seq], vals[seq])
	}
	scan, err := seqscan.Search(ref, q, eps, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := search(g, q, eps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameAsScan(got, scan); err != nil {
		t.Fatal(err)
	}
	if g.Backlog().Compactions == 0 {
		t.Fatal("no compaction ran beside the pinned readers")
	}
}

// TestDeltaSegViews unit-tests the columnar segment: prefix views stay
// fixed while the writer appends into their last block, suffix copies
// carry ids and feature rows across block boundaries, and the batched
// sweep agrees with the scalar leaf test on every window.
func TestDeltaSegViews(t *testing.T) {
	const dim = 6
	rng := rand.New(rand.NewSource(3))
	var d deltaSeg
	d.dim = dim
	var feats []vec.Vector
	add := func(count int) {
		for i := 0; i < count; i++ {
			f := make(vec.Vector, dim)
			for j := range f {
				f[j] = rng.NormFloat64()
			}
			d.append(int64(len(feats)), f)
			feats = append(feats, f)
		}
	}
	line := vec.Line{P: make(vec.Vector, dim), D: vec.Vector{1, -2, 0.5, 0, 3, 1}}
	// check holds a view that must cover exactly the windows [lo, hi).
	check := func(label string, v deltaSeg, lo, hi int) {
		t.Helper()
		ids := v.appendIDs(nil)
		if len(ids) != hi-lo || v.n != hi-lo {
			t.Fatalf("%s: view holds %d ids (n %d), want %d", label, len(ids), v.n, hi-lo)
		}
		for i, id := range ids {
			if id != int64(lo+i) {
				t.Fatalf("%s: window %d has id %d, want %d", label, i, id, lo+i)
			}
		}
		for _, eq := range []engine.Query{
			{Line: line, Eps: 1.5},
			{Line: line, Eps: 1.5, Segment: true, TMin: -0.1, TMax: 0.2},
		} {
			sc := acquireScratch()
			if err := v.filter(context.Background(), eq, sc); err != nil {
				t.Fatal(err)
			}
			var want []int64
			for i := lo; i < hi; i++ {
				dist := vec.PLDFast(feats[i], line)
				if eq.Segment {
					dist = vec.PSegDFast(feats[i], line, eq.TMin, eq.TMax)
				}
				if dist <= eq.Eps {
					want = append(want, int64(i))
				}
			}
			if !slices.Equal(sc.ids, want) || sc.tree.LeafEntriesChecked != hi-lo {
				t.Fatalf("%s (segment %v): filter kept %d of %d windows after %d tests, the scalar test keeps %d",
					label, eq.Segment, len(sc.ids), hi-lo, sc.tree.LeafEntriesChecked, len(want))
			}
			if len(want) == 0 || len(want) == hi-lo {
				t.Fatalf("%s: the filter is not selective here (%d of %d)", label, len(want), hi-lo)
			}
			sc.release()
		}
		// The k-NN stream: every window once, bounds ascending and equal
		// to the scalar distance.
		sc := acquireScratch()
		defer sc.release()
		seen, last := 0, -1.0
		v.stream(line, sc, func(lb float64, id int64) bool {
			if lb < last || !sameBits(lb, vec.PLDFast(feats[id], line)) {
				t.Fatalf("%s: stream yields window %d at bound %v after %v", label, id, lb, last)
			}
			seen, last = seen+1, lb
			return true
		})
		if seen != hi-lo {
			t.Fatalf("%s: stream visited %d windows, want %d", label, seen, hi-lo)
		}
	}

	add(deltaBlockLen + 100)
	pinned := d.prefix(d.n)
	add(deltaBlockLen) // fills the pinned view's last block and opens another
	check("pinned prefix", pinned, 0, deltaBlockLen+100)
	check("shorter prefix", d.prefix(70), 0, 70)
	check("everything", d.prefix(d.n), 0, 2*deltaBlockLen+100)
	for _, from := range []int{0, 1, deltaBlockLen - 1, deltaBlockLen, deltaBlockLen + 37} {
		rest := d.suffix(from)
		check(fmt.Sprintf("suffix from %d", from), rest, from, d.n)
		// The copy is independent: appending to it leaves d alone.
		rest.append(-1, feats[0])
		check("original after a suffix append", d.prefix(d.n), 0, 2*deltaBlockLen+100)
	}
	if rest := d.suffix(d.n); rest.n != 0 || len(rest.blocks) != 0 {
		t.Fatalf("empty suffix holds %d windows in %d blocks", rest.n, len(rest.blocks))
	}
}
