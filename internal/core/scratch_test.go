package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"scaleshift/internal/engine"
	"scaleshift/internal/query"
	"scaleshift/internal/seqscan"
	"scaleshift/internal/store"
	"scaleshift/internal/vec"
)

// windowIDs returns every window id of sv at window length n, in
// storage order.
func windowIDs(sv storeView, n int) []int64 {
	var all []int64
	for seq := range sv.NumSequences() {
		for start := 0; start+n <= sv.SequenceLen(seq); start++ {
			all = append(all, store.EncodeWindowID(seq, start))
		}
	}
	return all
}

// sortCompact is the order orderIDs must produce: slices.Sort, then
// slices.Compact, over a copy of ids.
func sortCompact(ids []int64) []int64 {
	out := slices.Clone(ids)
	slices.Sort(out)
	return slices.Compact(out)
}

// TestSortIDsMatchesSlicesSort holds orderIDs to slices.Sort followed by
// slices.Compact over valid window ids of two store views: a store whose
// sequences were grown — packed pages and tails, window counts on and
// either side of a 64-bit word, sequences too short for a window — and
// the snapshot a segmented index with frozen segments and a delta
// answers from.  The inputs are the shapes the executor meets — leaf
// order, the scan's storage order, reversed, duplicates (a long query's
// pieces), one window many times — at sizes on both sides of the
// bitmap cutover; an id outside the layout takes the sort.  Between
// calls the pooled bitmap must be all zero again.
func TestSortIDsMatchesSlicesSort(t *testing.T) {
	const n = 32
	grown := store.New()
	for i, l := range []int{n - 1, n, n + 63, n + 64, 2*n + 100, 650, n + 127, 0, 3*store.ValuesPerPage + 5} {
		seq := grown.AppendSequence(fmt.Sprintf("s%d", i), make([]float64, l/2))
		if err := grown.AppendValues(seq, make([]float64, l-l/2)); err != nil {
			t.Fatal(err)
		}
	}
	f := newSegmentedExecFixture(t, 40)
	snap := f.g.cell.Acquire()
	defer snap.Release()
	views := []struct {
		name string
		sv   storeView
		n    int
	}{
		{"grown store", grown, n},
		{"segmented with a delta", snap.Value().sv, snap.Value().opts.WindowLen},
	}
	r := rand.New(rand.NewSource(13))
	sc := &queryScratch{}
	for _, v := range views {
		wb := newWindowBits(v.sv, v.n)
		all := windowIDs(v.sv, v.n)
		cut := (wb.words[len(wb.words)-1] + bitmapWordsPerID - 1) / bitmapWordsPerID
		gens := map[string]func(i int) int64{
			"random":         func(int) int64 { return all[r.Intn(len(all))] },
			"already sorted": func(i int) int64 { return all[i%len(all)] },
			"reversed":       func(i int) int64 { return all[len(all)-1-i%len(all)] },
			"all equal":      func(int) int64 { return all[len(all)/2] },
			"few distinct":   func(int) int64 { return all[r.Intn(3)] },
			"pairs":          func(i int) int64 { return all[(i/2*7919)%len(all)] },
		}
		for name, gen := range gens {
			for _, size := range []int{0, 1, 2, 255, cut - 1, cut, cut + 1, len(all), 2 * len(all)} {
				in := make([]int64, max(size, 0))
				for i := range in {
					in[i] = gen(i)
				}
				want := sortCompact(in)
				sc.ids = slices.Clone(in)
				sc.orderIDs(&wb)
				if !slices.Equal(sc.ids, want) {
					t.Fatalf("%s, %s, %d ids: %d ordered, slices.Sort+Compact gives %d", v.name, name, size, len(sc.ids), len(want))
				}
				if slices.ContainsFunc(sc.bits[:cap(sc.bits)], func(w uint64) bool { return w != 0 }) {
					t.Fatalf("%s, %s, %d ids: the bitmap was left dirty", v.name, name, size)
				}
			}
		}
		// A window the layout does not hold sends a dense set to the sort.
		for _, stray := range []int64{store.EncodeWindowID(v.sv.NumSequences(), 0), store.EncodeWindowID(0, 1<<20), -1} {
			in := append(slices.Clone(all), stray)
			r.Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
			want := sortCompact(in)
			sc.ids = in
			sc.orderIDs(&wb)
			if !slices.Equal(sc.ids, want) || slices.ContainsFunc(sc.bits[:cap(sc.bits)], func(w uint64) bool { return w != 0 }) {
				t.Fatalf("%s: stray id %#x: wrong order or a dirty bitmap", v.name, stray)
			}
		}
	}
}

// TestLongQueryOverlappingProposals builds the candidate set of a long
// query the way the pre-ordering executor defined it — every piece's
// hits, in leaf order, translated to the alignment they propose,
// overhangs dropped, duplicates merged — and checks the ordered pipeline
// verifies exactly that set: same Candidates count, and the matches of
// a scan over the same data with identical bits.
func TestLongQueryOverlappingProposals(t *testing.T) {
	ix := buildTestIndex(t, testOptions(), 8, 200)
	st := ix.Store()
	n := ix.Options().WindowLen
	const pieces = 3
	w := make(vec.Vector, pieces*n)
	if err := st.Window(5, 40, len(w), w, nil); err != nil {
		t.Fatal(err)
	}
	q := vec.Apply(w, 0.6, 11)
	scale, err := query.SENormScale(st, len(q), 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	eps := 0.5 * scale
	ctx := context.Background()

	type window struct{ seq, start int }
	want := map[window]bool{}
	proposals, outOfOrder := 0, false
	for i := 0; i < pieces; i++ {
		sc := acquireScratch()
		pin := ix.cell.Acquire()
		_, err := pin.Value().probe(ctx, q[i*n:(i+1)*n], eps/math.Sqrt(pieces), UnboundedCosts(), engine.PathRTree, nil, sc)
		pin.Release()
		if err != nil {
			t.Fatal(err)
		}
		outOfOrder = outOfOrder || !slices.IsSorted(sc.ids)
		for _, id := range sc.ids {
			seq, start := store.DecodeWindowID(id)
			if start < i*n || start-i*n+len(q) > st.SequenceLen(seq) {
				continue
			}
			want[window{seq, start - i*n}] = true
			proposals++
		}
		sc.release()
	}
	if !outOfOrder || proposals <= len(want) {
		t.Fatalf("fixture too easy: out of order %v, %d proposals for %d distinct alignments", outOfOrder, proposals, len(want))
	}

	var stats SearchStats
	got, ex, err := run(ctx, ix, Query{Vec: q, Eps: eps, Force: engine.PathRTree}, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Candidates != len(want) || ex.ActualCandidates != len(want) {
		t.Errorf("Candidates = %d (explain %d), want the %d distinct proposals", stats.Candidates, ex.ActualCandidates, len(want))
	}
	if stats.Candidates != stats.FalseAlarms+stats.CostRejected+stats.Results {
		t.Errorf("ledger does not balance: %+v", stats)
	}
	scan, err := seqscan.Search(st, q, eps, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameAsScan(got, scan); err != nil || len(got) == 0 {
		t.Fatalf("%d matches: %v", len(got), err)
	}
	for i, m := range got {
		if !want[window{m.Seq, m.Start}] {
			t.Fatalf("match %d = %+v was never proposed", i, m)
		}
	}
}

// BenchmarkOrderIDs measures the two ways orderIDs can order a candidate
// set over the paper-scale store view (1000 sequences × 650 values,
// windows of 128: 523 000 windows in 9 000 bitmap words), at set sizes
// from a tight query's to a loose one's, the ids in a random order as a
// probe emits them.  Where bitmap/op drops below sort/op is what
// bitmapWordsPerID encodes.
func BenchmarkOrderIDs(b *testing.B) {
	st := store.New()
	for seq := 0; seq < 1000; seq++ {
		st.AppendSequence(fmt.Sprintf("s%d", seq), make([]float64, 650))
	}
	wb := newWindowBits(st, DefaultOptions().WindowLen)
	all := windowIDs(st, DefaultOptions().WindowLen)
	r := rand.New(rand.NewSource(17))
	for _, size := range []int{64, 512, 768, 900, 1024, 2048, 4096, 16384, 68565} {
		in := make([]int64, size)
		for i, k := range r.Perm(len(all))[:size] {
			in[i] = all[k]
		}
		for _, method := range []string{"sort", "bitmap"} {
			b.Run(fmt.Sprintf("ids=%d/%s", size, method), func(b *testing.B) {
				sc := &queryScratch{ids: make([]int64, 0, size)}
				for i := 0; i < b.N; i++ {
					sc.ids = append(sc.ids[:0], in...)
					if method == "sort" {
						slices.Sort(sc.ids)
						sc.ids = slices.Compact(sc.ids)
					} else if !sc.bitmapOrder(&wb) {
						b.Fatal("an id outside the layout")
					}
				}
			})
		}
	}
}
