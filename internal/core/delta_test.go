package core

import (
	"bytes"
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
	"scaleshift/internal/rtree"
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
	f.g = freshIndex(t, st, opts)
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

// window reads one window of the final data.
func (f *deltaFixture) window(t *testing.T, seq, start, n int) vec.Vector {
	t.Helper()
	w := make(vec.Vector, n)
	if err := f.ref.Store().Window(seq, start, n, w, nil); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestSegmentedKNNStopsEarlyInDelta pins the delta's k-NN bound.  With
// a delta of thousands of windows, a query refines about the windows it
// would refine were the delta a frozen segment — the delta's windows
// compete for the seeds at the distances a frozen leaf gives them, and
// the range pass tests them as a leaf does — which is a small multiple
// of what a from-scratch index refines and nowhere near one refinement
// per delta window.
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
			t.Fatalf("query %v: the segmented index's neighbours are not the from-scratch index's: %v", src, err)
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
	// windows, now seeded by a greedy descent of their own tree.
	if err := f.g.Compact(); err != nil {
		t.Fatal(err)
	}
	if windows, _, frozen := f.deltaShape(); windows != 0 || frozen != 4 {
		t.Fatalf("after compaction: %d delta windows, %d frozen segments", windows, frozen)
	}
	for i, src := range sources {
		var frozenStats SearchStats
		knn(i, f.g, &frozenStats)
		// The delta's windows and the greedy path of their own tree seed
		// differently, so the bound may move by a few windows.
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
	g := freshIndex(t, st, opts)
	defer g.Close()
	w := make(vec.Vector, n)
	if err := st.Window(2, 150, n, w, nil); err != nil {
		t.Fatal(err)
	}
	q, eps := vec.Apply(w, 1.2, 1), 0.3*vec.Norm(vec.SETransform(w))
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
	want, err := search(freshIndex(t, ref, opts), q, eps, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := search(g, q, eps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameMatches(got, want); err != nil {
		t.Fatalf("the quiesced index answers unlike a from-scratch build: %v", err)
	}
	if g.Backlog().Compactions == 0 {
		t.Fatal("no compaction ran beside the pinned readers")
	}
}

// TestDeltaFeaturesAreBulkFeatures holds every feature point the delta
// absorbs to the one a fresh bulk build extracts for its window,
// Float64bits-equal, under both reductions.  The index is opened from
// an artifact whose sequences end mid-segment, so each first append
// restarts its stream at a checkpoint; the appends that follow, to the
// three sequences in turn, come in chunks that end just before a
// featureCheckpoint, start on one, cross one within a window of their
// first start, cross several in one run, and are drawn at random.
func TestDeltaFeaturesAreBulkFeatures(t *testing.T) {
	for _, red := range []ReductionKind{ReductionDFT, ReductionHaar} {
		t.Run(red.String(), func(t *testing.T) {
			opts := testOptions()
			opts.WindowLen, opts.Reduction = 16, red
			rng := rand.New(rand.NewSource(43))
			walk := func(n int) []float64 {
				out, x := make([]float64, n), 50.0
				for i := range out {
					x += rng.NormFloat64()
					out[i] = x
				}
				return out
			}
			full := [][]float64{walk(1100), walk(1097), walk(800)}
			chunks := [][]int{nil, {6, 1, 10, 239, 20, 1, 255, 300}, {700}}
			for left := 800; left > 0; left -= chunks[0][len(chunks[0])-1] {
				chunks[0] = append(chunks[0], min(left, 1+rng.Intn(40)))
			}
			st := store.New()
			have := make([]int, len(full))
			for seq, vals := range full {
				for _, c := range chunks[seq] {
					have[seq] -= c
				}
				have[seq] += len(vals)
				st.AppendSequence(fmt.Sprint(seq), vals[:have[seq]])
			}
			var art bytes.Buffer
			if err := freshIndex(t, st, opts).WriteBinary(&art); err != nil {
				t.Fatal(err)
			}
			ix, err := LoadIndex(&art, st)
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			for round := 0; round < len(chunks[0]); round++ {
				for seq := range full {
					if round < len(chunks[seq]) {
						c := chunks[seq][round]
						if err := ix.AppendValues(seq, full[seq][have[seq]:have[seq]+c]); err != nil {
							t.Fatal(err)
						}
						have[seq] += c
					}
				}
			}

			ref, err := NewIndex(st, opts)
			if err != nil {
				t.Fatal(err)
			}
			bulk := map[int64][]float64{}
			if err := ref.BuildWith(func(cfg rtree.Config, ids []int64, cols []float64) (*rtree.FlatTree, error) {
				for k, id := range ids {
					for j := range cfg.Dim {
						bulk[id] = append(bulk[id], cols[j*len(ids)+k])
					}
				}
				return rtree.BulkLoadFlat(cfg, ids, cols, 1)
			}); err != nil {
				t.Fatal(err)
			}
			ix.mu.Lock()
			d := ix.delta.prefix(ix.delta.n)
			ix.mu.Unlock()
			if want := 800 + 832 + 700; d.n != want {
				t.Fatalf("the delta holds %d windows, the appends completed %d", d.n, want)
			}
			for b, blk := range d.blocks {
				for k := range d.count(b) {
					seq, start := store.DecodeWindowID(blk.ids[k])
					want := bulk[blk.ids[k]]
					if want == nil {
						t.Fatalf("window (%d, %d) is in the delta but not in the bulk build", seq, start)
					}
					for j, w := range want {
						if got := blk.feats[j*deltaBlockLen+k]; math.Float64bits(got) != math.Float64bits(w) {
							t.Fatalf("window (%d, %d) coordinate %d: delta %v, bulk %v", seq, start, j, got, w)
						}
					}
				}
			}
		})
	}
}

// TestDeltaSegViews unit-tests the columnar segment: prefix views stay
// fixed while the writer appends into their last block, suffix copies
// carry ids and feature rows across block boundaries, and the batched
// sweep agrees with the scalar leaf test on every window, in the filter
// and in the k-NN seed selection.
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
		// The k-NN seeds: the max nearest windows, each at the scalar
		// distance.
		sc := acquireScratch()
		defer sc.release()
		const max = 40
		if err := v.seeds(context.Background(), line, max, sc); err != nil {
			t.Fatal(err)
		}
		sc.seeds.keep(max)
		all := make([]float64, 0, hi-lo)
		for i := lo; i < hi; i++ {
			all = append(all, vec.PLDFast(feats[i], line))
		}
		slices.Sort(all)
		if want := min(max, hi-lo); len(sc.seeds) != want || sc.tree.LeafEntriesChecked != hi-lo {
			t.Fatalf("%s: %d seeds after %d tests, want %d after %d", label, len(sc.seeds), sc.tree.LeafEntriesChecked, want, hi-lo)
		}
		for _, s := range sc.seeds {
			if d := vec.PLDFast(feats[s.id], line); math.Float64bits(s.dist) != math.Float64bits(d) || d > all[len(sc.seeds)-1] {
				t.Fatalf("%s: seed %d at %v, its distance %v, the %dth nearest %v", label, s.id, s.dist, d, len(sc.seeds), all[len(sc.seeds)-1])
			}
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

// seNorm is ‖T_se(w)‖, the unit ε is chosen in.
func seNorm(w vec.Vector) float64 { return vec.Norm(vec.SETransform(w)) }
