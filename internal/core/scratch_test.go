package core

import (
	"context"
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

// TestSortIDsMatchesSlicesSort holds the radix order to slices.Sort on
// the shapes the executor meets — leaf-order ids of one store, the scan
// path's already-sorted ids, duplicates, ids that differ in one byte or
// above the low 16 bits of either half — and around the comparison-sort
// cutover.
func TestSortIDsMatchesSlicesSort(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	gens := map[string]func(i int) int64{
		"random windows": func(int) int64 { return store.EncodeWindowID(r.Intn(1000), r.Intn(523)) },
		"already sorted": func(i int) int64 { return store.EncodeWindowID(i/300, i%300) },
		"reversed":       func(i int) int64 { return store.EncodeWindowID(4000-i/300, 299-i%300) },
		"all equal":      func(int) int64 { return store.EncodeWindowID(7, 99) },
		"one byte":       func(int) int64 { return store.EncodeWindowID(3, 0x4200+r.Intn(256)) },
		"few distinct":   func(int) int64 { return store.EncodeWindowID(r.Intn(2), r.Intn(3)) },
		"seq above 2^16": func(int) int64 { return store.EncodeWindowID(1<<16+r.Intn(1<<20), r.Intn(523)) },
		"start above 2^16": func(int) int64 {
			return store.EncodeWindowID(r.Intn(50), 1<<16+r.Intn(1<<24))
		},
		"every byte":   func(int) int64 { return int64(r.Uint64() >> 1) },
		"negative too": func(int) int64 { return int64(r.Uint64()) },
	}
	for name, gen := range gens {
		for _, n := range []int{0, 1, 2, 255, 256, 257, 1000, 5000} {
			ids := make([]int64, n)
			for i := range ids {
				ids[i] = gen(i)
			}
			want := slices.Clone(ids)
			slices.Sort(want)
			// A spare too small for the input must be replaced, one large
			// enough reused.
			for _, spare := range [][]int64{nil, make([]int64, 0, n)} {
				in := slices.Clone(ids)
				sorted, other := sortIDs(in, spare)
				if !slices.Equal(sorted, want) {
					t.Fatalf("%s, n=%d: radix order differs from slices.Sort", name, n)
				}
				if len(other) > 0 && len(sorted) > 0 && &other[:1][0] == &sorted[0] {
					t.Fatalf("%s, n=%d: sorted and spare buffers alias", name, n)
				}
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
		if _, err := ix.man.probe(ctx, q[i*n:(i+1)*n], eps/math.Sqrt(pieces), UnboundedCosts(), engine.PathRTree, sc); err != nil {
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
	if len(got) == 0 || len(got) != len(scan) {
		t.Fatalf("%d matches, scan finds %d", len(got), len(scan))
	}
	for i, m := range got {
		s := scan[i]
		if m.Seq != s.Seq || m.Start != s.Start || !want[window{m.Seq, m.Start}] ||
			math.Float64bits(m.Dist) != math.Float64bits(s.Dist) ||
			math.Float64bits(m.Scale) != math.Float64bits(s.Scale) ||
			math.Float64bits(m.Shift) != math.Float64bits(s.Shift) {
			t.Fatalf("match %d = %+v, scan has %+v", i, m, s)
		}
	}
}
