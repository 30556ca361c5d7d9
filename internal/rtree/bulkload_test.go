package rtree

import (
	"bytes"
	"math/rand"
	"testing"

	"scaleshift/internal/vec"
)

// Item is a point with its identifier, as the tests hand points to the
// bulk loader and read them back (storedItems).
type Item struct {
	Point vec.Vector
	ID    int64
}

func randVec(r *rand.Rand, n int) vec.Vector {
	v := make(vec.Vector, n)
	for i := range v {
		v[i] = r.Float64()*20 - 10
	}
	return v
}

func idSet(items []Item) map[int64]bool {
	m := make(map[int64]bool, len(items))
	for _, it := range items {
		m[it.ID] = true
	}
	return m
}

func bulkItems(r *rand.Rand, n, dim int) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Point: randVec(r, dim), ID: int64(i)}
	}
	return items
}

// bulkLoad bulk loads items (BulkLoadFlat over their columns).
func bulkLoad(cfg Config, items []Item, workers int) (*FlatTree, error) {
	ids, cols := columnsOf(items, cfg.Dim)
	return BulkLoadFlat(cfg, ids, cols, workers)
}

func TestBulkLoadValidAndComplete(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	for _, n := range []int{0, 1, 7, 20, 21, 100, 5000} {
		items := bulkItems(r, n, 4)
		f, err := bulkLoad(DefaultConfig(4), items, 1)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if f.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, f.Len())
		}
		if err := f.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got := idSet(storedItems(f))
		if len(got) != n {
			t.Fatalf("n=%d: %d items reachable", n, len(got))
		}
	}
}

func TestBulkLoadRejectsBadInput(t *testing.T) {
	if _, err := BulkLoadFlat(Config{}, nil, nil, 1); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := BulkLoadFlat(DefaultConfig(2), []int64{1}, []float64{1, 2, 3}, 1); err == nil {
		t.Error("wrong-dimension point accepted")
	}
}

func TestBulkLoadCopiesPoints(t *testing.T) {
	p := vec.Vector{1, 2}
	cfg := Config{Dim: 2, MaxEntries: 8, MinEntries: 3}
	f, err := bulkLoad(cfg, []Item{{Point: p, ID: 1}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	p[0] = 99
	if storedItems(f)[0].Point[0] != 1 {
		t.Error("bulk load shares caller's slice")
	}
}

func BenchmarkBulkLoad50k(b *testing.B) {
	r := rand.New(rand.NewSource(44))
	items := bulkItems(r, 50000, 6)
	cfg := DefaultConfig(6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bulkLoad(cfg, items, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBulkLoadParallelDeterministic asserts the tentpole determinism
// requirement: the parallel bulk load emits the arena bytes of
// the sequential one at every worker count, including sizes that
// exercise the parallel merge sort (> parallelSortCutoff) and
// duplicate keys that would expose an unstable sort.
func TestBulkLoadParallelDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for _, n := range []int{100, 5000, parallelSortCutoff + 1234} {
		items := bulkItems(r, n, 4)
		// Duplicate coordinates: stability is what keeps ties ordered.
		for i := 0; i+10 < len(items); i += 10 {
			items[i+1].Point = items[i].Point.Clone()
		}
		want, err := bulkLoad(DefaultConfig(4), items, 1)
		if err != nil {
			t.Fatal(err)
		}
		wantArena := want.AppendArena(nil)
		for _, workers := range []int{0, 1, 2, 4, 13} {
			got, err := bulkLoad(DefaultConfig(4), items, workers)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if !bytes.Equal(wantArena, got.AppendArena(nil)) {
				t.Fatalf("n=%d workers=%d: parallel bulk load differs from sequential", n, workers)
			}
		}
	}
}
