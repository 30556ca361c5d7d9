package core

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"scaleshift/internal/query"
	"scaleshift/internal/stock"
	"scaleshift/internal/store"
	"scaleshift/internal/vec"
)

// populatedStore returns a synthetic store whose sequences are long
// enough to span several feature checkpoints, so parallel extraction
// exercises multi-segment sharding.
func populatedStore(t testing.TB, companies, days, seed int) *store.Store {
	t.Helper()
	st := store.New()
	cfg := stock.DefaultConfig()
	cfg.Companies = companies
	cfg.Days = days
	cfg.Seed = int64(seed)
	if _, err := stock.Populate(st, cfg); err != nil {
		t.Fatal(err)
	}
	return st
}

// sortedFeatures extracts every leaf feature point of the index in a
// canonical (ID-sorted) order.
func sortedFeatures(ix *Index) []rtreeFeature {
	items := ix.flat.All()
	feats := make([]rtreeFeature, len(items))
	for i, it := range items {
		feats[i] = rtreeFeature{id: it.ID, point: it.Point}
	}
	sort.Slice(feats, func(i, j int) bool { return feats[i].id < feats[j].id })
	return feats
}

type rtreeFeature struct {
	id    int64
	point vec.Vector
}

// TestBuildBulkParallelDeterministic asserts the headline determinism
// guarantee: BuildBulkParallel produces a byte-identical index to
// BuildBulk for every worker count, and its feature points are
// bit-identical to the sequential extraction's.
func TestBuildBulkParallelDeterministic(t *testing.T) {
	opts := testOptions()
	for _, tc := range []struct{ companies, days, seed int }{
		{3, 120, 1},  // single checkpoint segment per sequence
		{6, 600, 2},  // several segments per sequence
		{13, 340, 3}, // worker count above segment-per-sequence count
	} {
		t.Run(fmt.Sprintf("c%dd%d", tc.companies, tc.days), func(t *testing.T) {
			st := populatedStore(t, tc.companies, tc.days, tc.seed)
			ref, err := NewIndex(st, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.BuildBulk(); err != nil {
				t.Fatal(err)
			}
			var refBin bytes.Buffer
			if err := ref.WriteBinary(&refBin); err != nil {
				t.Fatal(err)
			}
			refFeats := sortedFeatures(ref)

			for _, workers := range []int{0, 1, 2, 4, 13} {
				par, err := NewIndex(st, opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := par.BuildBulkParallel(workers); err != nil {
					t.Fatal(err)
				}
				var parBin bytes.Buffer
				if err := par.WriteBinary(&parBin); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(refBin.Bytes(), parBin.Bytes()) {
					t.Fatalf("workers=%d: serialized index differs from BuildBulk (%d vs %d bytes)",
						workers, parBin.Len(), refBin.Len())
				}
				parFeats := sortedFeatures(par)
				if len(parFeats) != len(refFeats) {
					t.Fatalf("workers=%d: %d features, want %d", workers, len(parFeats), len(refFeats))
				}
				for i := range refFeats {
					if parFeats[i].id != refFeats[i].id {
						t.Fatalf("workers=%d: feature %d has ID %d, want %d",
							workers, i, parFeats[i].id, refFeats[i].id)
					}
					for d := range refFeats[i].point {
						if parFeats[i].point[d] != refFeats[i].point[d] {
							t.Fatalf("workers=%d: feature ID %d dim %d: %v != %v (not bit-identical)",
								workers, refFeats[i].id, d, parFeats[i].point[d], refFeats[i].point[d])
						}
					}
				}
			}
		})
	}
}

// TestBuildVariantsAgreeOnSearches asserts that insert-built,
// bulk-built, and parallel-bulk-built indexes return identical search
// and nearest-neighbour results.
func TestBuildVariantsAgreeOnSearches(t *testing.T) {
	opts := testOptions()
	st := populatedStore(t, 8, 420, 7)

	build := func(f func(*Index) error) *Index {
		ix, err := NewIndex(st, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := f(ix); err != nil {
			t.Fatal(err)
		}
		return ix
	}
	variants := map[string]*Index{
		"insert":   build(func(ix *Index) error { return ix.Build() }),
		"bulk":     build(func(ix *Index) error { return ix.BuildBulk() }),
		"parallel": build(func(ix *Index) error { return ix.BuildBulkParallel(4) }),
	}

	scale, err := query.SENormScale(st, opts.WindowLen, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	w := make(vec.Vector, opts.WindowLen)
	for _, src := range []struct{ seq, start int }{{0, 3}, {4, 200}, {7, 377}} {
		if err := st.Window(src.seq, src.start, opts.WindowLen, w, nil); err != nil {
			t.Fatal(err)
		}
		ref, err := search(variants["insert"], w, 0.2*scale, nil)
		if err != nil {
			t.Fatal(err)
		}
		refNN, err := nearest(variants["insert"], w, 5, nil)
		if err != nil {
			t.Fatal(err)
		}
		for name, ix := range variants {
			got, err := search(ix, w, 0.2*scale, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(ref) {
				t.Fatalf("%s: %d matches, insert %d", name, len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("%s: match %d = %+v, insert %+v", name, i, got[i], ref[i])
				}
			}
			gotNN, err := nearest(ix, w, 5, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(gotNN) != len(refNN) {
				t.Fatalf("%s: %d neighbours, insert %d", name, len(gotNN), len(refNN))
			}
			for i := range refNN {
				if gotNN[i] != refNN[i] {
					t.Fatalf("%s: neighbour %d = %+v, insert %+v", name, i, gotNN[i], refNN[i])
				}
			}
		}
	}
}

// TestBuildBulkParallelValidation covers the edges: non-empty index
// rejected, empty store is a no-op, and the built index remains dynamic.
func TestBuildBulkParallelValidation(t *testing.T) {
	opts := testOptions()
	st := populatedStore(t, 3, 120, 9)

	ix, err := NewIndex(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.BuildBulkParallel(4); err != nil {
		t.Fatal(err)
	}
	if err := ix.BuildBulkParallel(4); err == nil {
		t.Error("BuildBulkParallel on non-empty index accepted")
	}
	// Still dynamic after a parallel bulk load.
	if _, err := ix.AppendAndIndex("X", make([]float64, 64)); err != nil {
		t.Fatal(err)
	}

	empty, err := NewIndex(store.New(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := empty.BuildBulkParallel(4); err != nil {
		t.Fatalf("empty store: %v", err)
	}
	if empty.WindowCount() != 0 {
		t.Fatalf("empty store indexed %d windows", empty.WindowCount())
	}
}
