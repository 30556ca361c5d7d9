package rtree

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"testing"

	"scaleshift/internal/geom"
	"scaleshift/internal/vec"
)

// randPoint returns a dim-dimensional point with coordinates in
// [-scale, scale).
func randPoint(rng *rand.Rand, dim int, scale float64) vec.Vector {
	p := make(vec.Vector, dim)
	for i := range p {
		p[i] = (rng.Float64()*2 - 1) * scale
	}
	return p
}

func randLine(rng *rand.Rand, dim int) vec.Line {
	return vec.Line{P: randPoint(rng, dim, 5), D: randPoint(rng, dim, 1)}
}

// buildPointTree inserts n random points one by one.
func buildPointTree(t *testing.T, rng *rand.Rand, cfg Config, n int) *Tree {
	t.Helper()
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		tr.Insert(randPoint(rng, cfg.Dim, 10), int64(i))
	}
	return tr
}

// buildRectTree inserts n random small rects one by one.
func buildRectTree(t *testing.T, rng *rand.Rand, cfg Config, n int) *Tree {
	t.Helper()
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		c := randPoint(rng, cfg.Dim, 10)
		r := geom.RectFromPoint(c)
		for j := range c {
			r.H[j] += rng.Float64()
		}
		tr.InsertRect(r, int64(i))
	}
	return tr
}

func sortItems(items []Item) {
	for i := 1; i < len(items); i++ {
		for j := i; j > 0 && items[j].ID < items[j-1].ID; j-- {
			items[j], items[j-1] = items[j-1], items[j]
		}
	}
}

func itemIDs(items []Item) []int64 {
	var ids []int64
	for _, it := range items {
		ids = append(ids, it.ID)
	}
	return ids
}

func sortRectItems(items []RectItem) {
	for i := 1; i < len(items); i++ {
		for j := i; j > 0 && items[j].ID < items[j-1].ID; j-- {
			items[j], items[j-1] = items[j-1], items[j]
		}
	}
}

// checkSearchEquivalence asserts every search variant returns
// identical results AND identical stats on the pointer tree and its
// frozen form.  Point trees exercise the Item variants; rect trees the
// RectItem variants.
func checkSearchEquivalence(t *testing.T, tr *Tree, f *FlatTree, rng *rand.Rand, points bool) {
	t.Helper()
	dim := tr.Config().Dim
	ctx := context.Background()
	for q := 0; q < 30; q++ {
		l := randLine(rng, dim)
		eps := rng.Float64() * 4
		tMin, tMax := rng.Float64()*2-1, rng.Float64()*3
		for _, strat := range []geom.Strategy{geom.EnteringExiting, geom.BoundingSpheres} {
			if points {
				var ts, fs SearchStats
				want := tr.LineSearch(l, eps, strat, &ts)
				got := f.LineSearch(l, eps, strat, &fs)
				sortItems(want)
				sortItems(got)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("LineSearch diverged (q=%d strat=%d): %d vs %d items", q, strat, len(want), len(got))
				}
				if ts != fs {
					t.Fatalf("LineSearch stats diverged: %+v vs %+v", ts, fs)
				}
				ts, fs = SearchStats{}, SearchStats{}
				want = tr.SegmentSearch(l, tMin, tMax, eps, strat, &ts)
				got = f.SegmentSearch(l, tMin, tMax, eps, strat, &fs)
				sortItems(want)
				sortItems(got)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("SegmentSearch diverged (q=%d)", q)
				}
				if ts != fs {
					t.Fatalf("SegmentSearch stats diverged: %+v vs %+v", ts, fs)
				}
				// The ID-emitting descents the query engine drives: same
				// hits in the same order as the item searches, same stats,
				// on both representations.
				ts, fs = SearchStats{}, SearchStats{}
				wantIDs, err1 := tr.LineSearchIDs(ctx, l, eps, strat, &ts, nil)
				gotIDs, err2 := f.LineSearchIDs(ctx, l, eps, strat, &fs, nil)
				if err1 != nil || err2 != nil {
					t.Fatalf("context search errors: %v %v", err1, err2)
				}
				if !reflect.DeepEqual(wantIDs, gotIDs) || !reflect.DeepEqual(gotIDs, itemIDs(f.LineSearch(l, eps, strat, nil))) {
					t.Fatalf("LineSearchIDs diverged (q=%d)", q)
				}
				if ts != fs {
					t.Fatalf("LineSearchIDs stats diverged: %+v vs %+v", ts, fs)
				}
				wantIDs, err1 = tr.SegmentSearchIDs(ctx, l, tMin, tMax, eps, strat, nil, nil)
				gotIDs, err2 = f.SegmentSearchIDs(ctx, l, tMin, tMax, eps, strat, nil, nil)
				if err1 != nil || err2 != nil {
					t.Fatalf("context search errors: %v %v", err1, err2)
				}
				if !reflect.DeepEqual(wantIDs, gotIDs) || !reflect.DeepEqual(gotIDs, itemIDs(f.SegmentSearch(l, tMin, tMax, eps, strat, nil))) {
					t.Fatalf("SegmentSearchIDs diverged (q=%d)", q)
				}
			} else {
				var ts, fs SearchStats
				want := tr.LineSearchRects(l, eps, strat, &ts)
				got := f.LineSearchRects(l, eps, strat, &fs)
				sortRectItems(want)
				sortRectItems(got)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("LineSearchRects diverged (q=%d strat=%d)", q, strat)
				}
				if ts != fs {
					t.Fatalf("LineSearchRects stats diverged: %+v vs %+v", ts, fs)
				}
				ts, fs = SearchStats{}, SearchStats{}
				want = tr.SegmentSearchRects(l, tMin, tMax, eps, strat, &ts)
				got = f.SegmentSearchRects(l, tMin, tMax, eps, strat, &fs)
				sortRectItems(want)
				sortRectItems(got)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("SegmentSearchRects diverged (q=%d)", q)
				}
				if ts != fs {
					t.Fatalf("SegmentSearchRects stats diverged: %+v vs %+v", ts, fs)
				}
				cw, err1 := tr.SegmentSearchRectsContext(ctx, l, tMin, tMax, eps, strat, nil)
				cg, err2 := f.SegmentSearchRectsContext(ctx, l, tMin, tMax, eps, strat, nil)
				if err1 != nil || err2 != nil {
					t.Fatalf("context search errors: %v %v", err1, err2)
				}
				sortRectItems(cw)
				sortRectItems(cg)
				if !reflect.DeepEqual(cw, cg) {
					t.Fatalf("SegmentSearchRectsContext diverged (q=%d)", q)
				}
			}
		}

		// Nearest-neighbour streams must be BIT-identical, in order —
		// same IDs, same float64 distances.
		if points {
			var ts, fs SearchStats
			k := 1 + rng.Intn(20)
			want := tr.NearestToLine(l, k, &ts)
			got := f.NearestToLine(l, k, &fs)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("NearestToLine(k=%d) diverged:\n%v\nvs\n%v", k, want, got)
			}
			if ts != fs {
				t.Fatalf("NearestToLine stats diverged: %+v vs %+v", ts, fs)
			}
		} else {
			var want, got []RectItemDist
			var ts, fs SearchStats
			tr.NearestRectsToLineFunc(l, &ts, func(d RectItemDist) bool {
				want = append(want, d)
				return len(want) < 15
			})
			f.NearestRectsToLineFunc(l, &fs, func(d RectItemDist) bool {
				got = append(got, d)
				return len(got) < 15
			})
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("NearestRectsToLineFunc diverged")
			}
			if ts != fs {
				t.Fatalf("NearestRectsToLineFunc stats diverged: %+v vs %+v", ts, fs)
			}
		}

		// Range queries (defined for point leaves only).
		if !points {
			continue
		}
		lo := randPoint(rng, dim, 8)
		r := geom.RectFromPoint(lo)
		for j := range lo {
			r.H[j] += rng.Float64() * 8
		}
		var ts, fs SearchStats
		want := tr.RangeSearch(r, &ts)
		got := f.RangeSearch(r, &fs)
		sortItems(want)
		sortItems(got)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("RangeSearch diverged (q=%d)", q)
		}
		if ts != fs {
			t.Fatalf("RangeSearch stats diverged: %+v vs %+v", ts, fs)
		}
	}
}

// flatConfigs is the structural matrix the equivalence tests sweep:
// low/high dimension, tiny/default fanout, R* and Guttman splits, with
// and without X-tree supernodes.
func flatConfigs() []Config {
	return []Config{
		{Dim: 2, MaxEntries: 4, MinEntries: 2, Split: SplitRStar},
		{Dim: 2, MaxEntries: 6, MinEntries: 2, ReinsertCount: 2, Split: SplitRStar},
		{Dim: 3, MaxEntries: 5, MinEntries: 2, Split: SplitQuadratic},
		{Dim: 6, MaxEntries: 8, MinEntries: 3, ReinsertCount: 2, Split: SplitRStar},
		{Dim: 4, MaxEntries: 4, MinEntries: 2, Split: SplitRStar, SupernodeMaxOverlap: 0.2},
	}
}

func TestFlatEquivalencePoints(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for ci, cfg := range flatConfigs() {
		for _, n := range []int{0, 1, 7, 300} {
			tr := buildPointTree(t, rng, cfg, n)
			f, err := tr.Freeze()
			if err != nil {
				t.Fatalf("cfg %d n %d: %v", ci, n, err)
			}
			if err := f.Validate(); err != nil {
				t.Fatalf("cfg %d n %d: frozen tree invalid: %v", ci, n, err)
			}
			checkFlatShape(t, tr, f)
			checkSearchEquivalence(t, tr, f, rng, true)
		}
	}
}

func TestFlatEquivalenceRects(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for ci, cfg := range flatConfigs() {
		tr := buildRectTree(t, rng, cfg, 250)
		f, err := tr.Freeze()
		if err != nil {
			t.Fatalf("cfg %d: %v", ci, err)
		}
		if err := f.Validate(); err != nil {
			t.Fatalf("cfg %d: frozen tree invalid: %v", ci, err)
		}
		checkFlatShape(t, tr, f)
		checkSearchEquivalence(t, tr, f, rng, false)
	}
}

func TestFlatEquivalenceBulkLoaded(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cfg := DefaultConfig(6)
	items := make([]Item, 2000)
	for i := range items {
		items[i] = Item{Point: randPoint(rng, 6, 10), ID: int64(i)}
	}
	tr, err := BulkLoad(cfg, items)
	if err != nil {
		t.Fatal(err)
	}
	f, err := tr.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	checkFlatShape(t, tr, f)
	checkSearchEquivalence(t, tr, f, rng, true)
}

func checkFlatShape(t *testing.T, tr *Tree, f *FlatTree) {
	t.Helper()
	if tr.Len() != f.Len() || tr.Height() != f.Height() || tr.NodeCount() != f.NodeCount() {
		t.Fatalf("shape diverged: len %d/%d height %d/%d nodes %d/%d",
			tr.Len(), f.Len(), tr.Height(), f.Height(), tr.NodeCount(), f.NodeCount())
	}
	tb, tok := tr.Bounds()
	fb, fok := f.Bounds()
	if tok != fok || (tok && !reflect.DeepEqual(tb, fb)) {
		t.Fatalf("bounds diverged: %v,%v vs %v,%v", tb, tok, fb, fok)
	}
	if !reflect.DeepEqual(tr.Stats(), f.Stats()) {
		t.Fatalf("level stats diverged:\n%+v\nvs\n%+v", tr.Stats(), f.Stats())
	}
	var tw, fw bytes.Buffer
	if err := tr.WriteStats(&tw); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteStats(&fw); err != nil {
		t.Fatal(err)
	}
	if tw.String() != fw.String() {
		t.Fatalf("WriteStats diverged:\n%s\nvs\n%s", tw.String(), fw.String())
	}
	want := tr.All()
	got := f.All()
	sortItems(want)
	sortItems(got)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("All() diverged: %d vs %d items", len(want), len(got))
	}
}

func TestFreezeThawRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cfg := Config{Dim: 3, MaxEntries: 6, MinEntries: 2, ReinsertCount: 2, Split: SplitRStar}
	tr := buildPointTree(t, rng, cfg, 400)
	f, err := tr.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	back, err := f.Thaw()
	if err != nil {
		t.Fatal(err)
	}
	want := tr.All()
	got := back.All()
	sortItems(want)
	sortItems(got)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("thawed tree lost or mutated items")
	}
	// The thawed tree must be fully mutable again.
	back.Insert(randPoint(rng, 3, 10), 10_000)
	if !back.Delete(want[0].Point, want[0].ID) {
		t.Fatal("delete on thawed tree failed")
	}
	if back.Len() != tr.Len() {
		t.Fatalf("len after insert+delete = %d, want %d", back.Len(), tr.Len())
	}
	// And refreezable: search equivalence against the original still
	// holds for the untouched items.
	if _, err := back.Freeze(); err != nil {
		t.Fatal(err)
	}
}

func TestArenaRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, rects := range []bool{false, true} {
		cfg := Config{Dim: 3, MaxEntries: 5, MinEntries: 2, Split: SplitRStar}
		var tr *Tree
		if rects {
			tr = buildRectTree(t, rng, cfg, 220)
		} else {
			tr = buildPointTree(t, rng, cfg, 220)
		}
		f, err := tr.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		arena := f.AppendArena(nil)
		if len(arena) != f.ArenaSize() {
			t.Fatalf("ArenaSize %d != emitted %d", f.ArenaSize(), len(arena))
		}
		// Aligned decode (zero-copy on little-endian hosts).
		g, err := FlatFromArena(arena)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		checkFlatShape(t, tr, g)
		checkSearchEquivalence(t, tr, g, rng, !rects)

		// Misaligned decode must transparently fall back to copying.
		buf := make([]byte, 4+len(arena))
		copy(buf[4:], arena)
		h, err := FlatFromArena(buf[4:])
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Validate(); err != nil {
			t.Fatal(err)
		}
		checkFlatShape(t, tr, h)
	}
}

// TestFlatArenaCorruption flips every byte and cuts every 8-byte
// prefix of a small arena: decoding must fail cleanly or produce a
// tree that either fails Validate or still answers a search without
// panicking — never a crash.
func TestFlatArenaCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cfg := Config{Dim: 2, MaxEntries: 4, MinEntries: 2, Split: SplitRStar}
	tr := buildPointTree(t, rng, cfg, 60)
	f, err := tr.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	arena := f.AppendArena(nil)
	l := randLine(rng, 2)

	probe := func(b []byte, what string, i int) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s at %d: panic %v", what, i, r)
			}
		}()
		g, err := FlatFromArena(b)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			return
		}
		// Structurally valid after corruption (e.g. a plane value
		// changed): traversal must still be safe.
		g.LineSearch(l, 1.0, geom.EnteringExiting, nil)
		g.RangeSearch(geom.Rect{L: vec.Vector{-1, -1}, H: vec.Vector{1, 1}}, nil)
	}

	for i := range arena {
		mut := append([]byte(nil), arena...)
		for bit := 0; bit < 8; bit += 3 {
			mut[i] ^= 1 << bit
			probe(mut, "flip", i)
			mut[i] = arena[i]
		}
	}
	for cut := 0; cut <= len(arena); cut += 8 {
		probe(arena[:cut], "cut", cut)
	}
}

func FuzzFlatFromArena(f *testing.F) {
	rng := rand.New(rand.NewSource(29))
	cfg := Config{Dim: 2, MaxEntries: 4, MinEntries: 2, Split: SplitRStar}
	tr, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		tr.Insert(randPoint(rng, 2, 10), int64(i))
	}
	ft, err := tr.Freeze()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ft.AppendArena(nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := FlatFromArena(data)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			return
		}
		l := vec.Line{P: vec.Vector{0, 0}, D: vec.Vector{1, 1}}
		g.LineSearch(l, 1.0, geom.EnteringExiting, nil)
		g.NearestToLine(l, 3, nil)
	})
}
