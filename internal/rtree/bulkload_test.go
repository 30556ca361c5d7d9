package rtree

import (
	"bytes"
	"math/rand"
	"testing"

	"scaleshift/internal/geom"
	"scaleshift/internal/vec"
)

func bulkItems(r *rand.Rand, n, dim int) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Point: randVec(r, dim), ID: int64(i)}
	}
	return items
}

// bulkLoadTree bulk loads items (BulkLoadFlat over their columns) and
// thaws the arena into the mutable tree these tests inspect.
func bulkLoadTree(cfg Config, items []Item, workers int) (*Tree, error) {
	ids, cols := columnsOf(items, cfg.Dim)
	f, err := BulkLoadFlat(cfg, ids, cols, workers)
	if err != nil {
		return nil, err
	}
	return f.Thaw()
}

func TestBulkLoadValidAndComplete(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	for _, n := range []int{0, 1, 7, 20, 21, 100, 5000} {
		items := bulkItems(r, n, 4)
		tr, err := bulkLoadTree(DefaultConfig(4), items, 1)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tr.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, tr.Len())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got := idSet(tr.Freeze().All())
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
	cfg := Config{Dim: 2, MaxEntries: 8, MinEntries: 3, Split: SplitRStar}
	tr, err := bulkLoadTree(cfg, []Item{{Point: p, ID: 1}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	p[0] = 99
	if tr.Freeze().All()[0].Point[0] != 1 {
		t.Error("bulk load shares caller's slice")
	}
}

func TestBulkLoadSearchMatchesInsertBuilt(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	items := bulkItems(r, 2000, 3)
	cfg := Config{Dim: 3, MaxEntries: 8, MinEntries: 3, ReinsertCount: 2, Split: SplitRStar}
	bulk, err := bulkLoadTree(cfg, items, 1)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		inc.Insert(it.Point, it.ID)
	}
	fb, fi := bulk.Freeze(), inc.Freeze()
	for q := 0; q < 25; q++ {
		rect := randRect(r, 3)
		if !sameIDSet(idSet(fb.RangeSearch(rect, nil)), idSet(fi.RangeSearch(rect, nil))) {
			t.Fatal("range results differ between bulk and incremental trees")
		}
		l := vec.Line{P: randVec(r, 3), D: randVec(r, 3)}
		if !sameIDSet(idSet(fb.LineSearch(l, 1.5, geom.EnteringExiting, nil)),
			idSet(fi.LineSearch(l, 1.5, geom.EnteringExiting, nil))) {
			t.Fatal("line results differ between bulk and incremental trees")
		}
	}
}

func TestBulkLoadedTreeSupportsMutation(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	items := bulkItems(r, 1000, 2)
	cfg := Config{Dim: 2, MaxEntries: 8, MinEntries: 3, ReinsertCount: 2, Split: SplitRStar}
	tr, err := bulkLoadTree(cfg, items, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Insert new items.
	for i := 0; i < 300; i++ {
		tr.Insert(randVec(r, 2), int64(10000+i))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("after inserts: %v", err)
	}
	// Delete original items.
	for i := 0; i < 500; i++ {
		if !tr.Delete(items[i].Point, items[i].ID) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("after deletes: %v", err)
	}
	if tr.Len() != 800 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestBulkLoadPackingQuality(t *testing.T) {
	// Packing guarantees a smaller tree, and — tiled and summarised for
	// lines through the origin — one that such a line reads fewer pages
	// of than an insert-built R*-tree's MBR directory, even on uniform
	// data, where R* insertion is at its best.
	r := rand.New(rand.NewSource(43))
	items := bulkItems(r, 5000, 4)
	cfg := DefaultConfig(4)
	ids, cols := columnsOf(items, 4)
	fb, err := BulkLoadFlat(cfg, ids, cols, 1)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		inc.Insert(it.Point, it.ID)
	}
	if fb.NodeCount() > inc.NodeCount() {
		t.Errorf("bulk tree has %d nodes, incremental %d", fb.NodeCount(), inc.NodeCount())
	}
	var bulkAcc, incAcc int
	fi := inc.Freeze()
	for q := 0; q < 40; q++ {
		l := vec.Line{P: make(vec.Vector, 4), D: randVec(r, 4)}
		var sb, si SearchStats
		got := fb.LineSearch(l, 0.3, geom.EnteringExiting, &sb)
		want := fi.LineSearch(l, 0.3, geom.EnteringExiting, &si)
		if !sameIDSet(idSet(got), idSet(want)) {
			t.Fatalf("query %d: the two trees return different points", q)
		}
		bulkAcc += sb.NodeAccesses
		incAcc += si.NodeAccesses
	}
	t.Logf("node accesses: bulk-loaded %d, insert-built %d", bulkAcc, incAcc)
	if bulkAcc > incAcc {
		t.Errorf("bulk tree accesses %d vs incremental %d; the tiling hurt", bulkAcc, incAcc)
	}
}

func BenchmarkBulkLoad50k(b *testing.B) {
	r := rand.New(rand.NewSource(44))
	items := bulkItems(r, 50000, 6)
	cfg := DefaultConfig(6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bulkLoadTree(cfg, items, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBulkLoadParallelDeterministic asserts the tentpole determinism
// requirement: the parallel bulk load freezes into the arena bytes of
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
		want, err := bulkLoadTree(DefaultConfig(4), items, 1)
		if err != nil {
			t.Fatal(err)
		}
		wantArena := want.Freeze().AppendArena(nil)
		for _, workers := range []int{0, 1, 2, 4, 13} {
			got, err := bulkLoadTree(DefaultConfig(4), items, workers)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if err := got.CheckInvariants(); err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if !bytes.Equal(wantArena, got.Freeze().AppendArena(nil)) {
				t.Fatalf("n=%d workers=%d: parallel bulk load differs from sequential", n, workers)
			}
		}
	}
}
