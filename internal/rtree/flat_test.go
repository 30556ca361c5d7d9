package rtree

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"scaleshift/internal/binio"
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

// checkSearchEquivalence asserts every search of the arena against the
// references over the builder it was frozen from, as the arena stores it
// (reference_test.go):
// the same hits in the same order, and the same SearchStats — node
// accesses, leaf checks and penetration primitives — for every range
// descent under both strategies; the brute-force order for the k-NN
// streams.
func checkSearchEquivalence(t *testing.T, tr *Tree, f *FlatTree, rng *rand.Rand) {
	t.Helper()
	dim := tr.Config().Dim
	ctx := context.Background()
	root := storedView(tr, f)
	all := leafEntries(root)
	for q := 0; q < 30; q++ {
		l := randLine(rng, dim)
		eps := rng.Float64() * 4
		tMin, tMax := rng.Float64()*2-1, rng.Float64()*3
		for _, strat := range []geom.Strategy{geom.EnteringExiting, geom.BoundingSpheres} {
			line := lineQuery{l: l, eps: eps, strategy: strat}
			seg := lineQuery{l: l, segment: true, tMin: tMin, tMax: tMax, eps: eps, strategy: strat}
			wantLine, lineStats := refLine(root, arenaUnits(f, line))
			wantSeg, segStats := refLine(root, arenaUnits(f, seg))
			var fs SearchStats
			if got := f.LineSearch(l, eps, strat, &fs); !reflect.DeepEqual(storedItems(f, wantLine), got) {
				t.Fatalf("LineSearch diverged (q=%d strat=%d): %d vs %d items", q, strat, len(wantLine), len(got))
			}
			if lineStats != fs {
				t.Fatalf("LineSearch stats diverged: %+v vs %+v", lineStats, fs)
			}
			fs = SearchStats{}
			if got := f.SegmentSearch(l, tMin, tMax, eps, strat, &fs); !reflect.DeepEqual(storedItems(f, wantSeg), got) {
				t.Fatalf("SegmentSearch diverged (q=%d)", q)
			}
			if segStats != fs {
				t.Fatalf("SegmentSearch stats diverged: %+v vs %+v", segStats, fs)
			}
			// The ID-emitting descents the query engine drives.
			fs = SearchStats{}
			gotIDs, err := f.LineSearchIDs(ctx, l, eps, strat, &fs, nil)
			if err != nil || !reflect.DeepEqual(entryIDs(wantLine), gotIDs) {
				t.Fatalf("LineSearchIDs diverged (q=%d): %v", q, err)
			}
			if lineStats != fs {
				t.Fatalf("LineSearchIDs stats diverged: %+v vs %+v", lineStats, fs)
			}
			fs = SearchStats{}
			gotIDs, err = f.SegmentSearchIDs(ctx, l, tMin, tMax, eps, strat, &fs, nil)
			if err != nil || !reflect.DeepEqual(entryIDs(wantSeg), gotIDs) {
				t.Fatalf("SegmentSearchIDs diverged (q=%d): %v", q, err)
			}
			if segStats != fs {
				t.Fatalf("SegmentSearchIDs stats diverged: %+v vs %+v", segStats, fs)
			}
		}

		// Nearest-neighbour stream: the brute-force order, bit for bit.
		dist := make(map[int64]float64, len(all))
		var ids []int64
		var dists []float64
		var ns SearchStats
		al := arenaUnits(f, lineQuery{l: l}).l
		for _, e := range all {
			dist[e.item.ID] = vec.PLDFast(e.item.Point, al) * f.q.scale
		}
		for _, id := range f.NearestToLine(l, 1+rng.Intn(20), &ns) {
			ids, dists = append(ids, id.Item.ID), append(dists, id.Dist)
		}
		checkStream(t, "nearest", ids, dists, dist)
		if len(all) > 0 && (len(ids) == 0 || ns.NodeAccesses < f.Height() || ns.NodeAccesses > f.NodeCount() || ns.LeafEntriesChecked < len(ids)) {
			t.Fatalf("nearest: %d hits with implausible stats %+v", len(ids), ns)
		}

		// Range queries.
		lo := randPoint(rng, dim, 8)
		r := geom.RectFromPoint(lo)
		for j := range lo {
			r.H[j] += rng.Float64() * 8
		}
		ar := geom.Rect{L: r.L.Clone(), H: r.H.Clone()}
		for j := range ar.L {
			ar.L[j] *= f.q.inv
			ar.H[j] *= f.q.inv
		}
		want, ws := refRange(root, ar)
		var fs SearchStats
		if got := f.RangeSearch(r, &fs); !reflect.DeepEqual(storedItems(f, want), got) {
			t.Fatalf("RangeSearch diverged (q=%d)", q)
		}
		if ws != fs {
			t.Fatalf("RangeSearch stats diverged: %+v vs %+v", ws, fs)
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
			f := tr.Freeze()
			if err := f.Validate(); err != nil {
				t.Fatalf("cfg %d n %d: frozen tree invalid: %v", ci, n, err)
			}
			checkFlatShape(t, tr, f)
			checkSearchEquivalence(t, tr, f, rng)
		}
	}
}

func TestFlatEquivalenceBulkLoaded(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cfg := DefaultConfig(6)
	items := make([]Item, 2000)
	for i := range items {
		items[i] = Item{Point: randPoint(rng, 6, 10), ID: int64(i)}
	}
	tr, err := bulkLoadTree(cfg, items, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := tr.Freeze()
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	checkFlatShape(t, tr, f)
	checkSearchEquivalence(t, tr, f, rng)
}

func checkFlatShape(t *testing.T, tr *Tree, f *FlatTree) {
	t.Helper()
	if tr.Len() != f.Len() || tr.Height() != f.Height() || tr.NodeCount() != f.NodeCount() {
		t.Fatalf("shape diverged: len %d/%d height %d/%d nodes %d/%d",
			tr.Len(), f.Len(), tr.Height(), f.Height(), tr.NodeCount(), f.NodeCount())
	}
	tb, tok := tr.Bounds()
	fb, fok := f.Bounds()
	if tok != fok || (tok && !reflect.DeepEqual(f.storedRect(tb), fb)) {
		t.Fatalf("bounds diverged: %v,%v vs %v,%v", tb, tok, fb, fok)
	}
	if want, got := storedItems(f, leafEntries(storedView(tr, f))), f.All(); !reflect.DeepEqual(want, got) {
		t.Fatalf("All() diverged: %d vs %d items", len(want), len(got))
	}
}

func TestFreezeThawRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cfg := Config{Dim: 3, MaxEntries: 6, MinEntries: 2, ReinsertCount: 2, Split: SplitRStar}
	tr := buildPointTree(t, rng, cfg, 400)
	f := tr.Freeze()
	back, err := f.Thaw()
	if err != nil {
		t.Fatal(err)
	}
	// The thawed tree holds what the arena stored, and freezing it again
	// rounds nothing: the same arena, byte for byte.
	if want, got := f.All(), entryItems(builderEntries(back)); !reflect.DeepEqual(want, got) {
		t.Fatal("thawed tree lost or mutated items")
	}
	again := back.Freeze()
	again.sample = f.sample // a thaw resamples by leaf walk
	if !bytes.Equal(f.AppendArena(nil), again.AppendArena(nil)) {
		t.Fatal("freezing a thawed arena changed it")
	}
	// The thawed tree must be fully mutable again — deleting by the point
	// the caller inserted, not the one the arena rounded it to.
	back.Insert(randPoint(rng, 3, 10), 10_000)
	inserted := builderEntries(tr)[0].item
	if !back.Delete(inserted.Point, inserted.ID) {
		t.Fatal("delete on thawed tree failed")
	}
	if back.Delete(inserted.Point, inserted.ID) {
		t.Fatal("second delete of the same item succeeded")
	}
	if back.Len() != tr.Len() {
		t.Fatalf("len after insert+delete = %d, want %d", back.Len(), tr.Len())
	}
	back.Freeze()
}

func TestArenaRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	cfg := Config{Dim: 3, MaxEntries: 5, MinEntries: 2, Split: SplitRStar}
	tr := buildPointTree(t, rng, cfg, 220)
	f := tr.Freeze()
	arena := f.AppendArena(nil)
	if len(arena) != f.ArenaSize() {
		t.Fatalf("ArenaSize %d != emitted %d", f.ArenaSize(), len(arena))
	}
	// Aligned decode (zero-copy on little-endian hosts).
	g, _, err := FlatFromArena(arena)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	checkFlatShape(t, tr, g)
	checkSearchEquivalence(t, tr, g, rng)

	// Misaligned decode must transparently fall back to copying.
	buf := make([]byte, 4+len(arena))
	copy(buf[4:], arena)
	h, _, err := FlatFromArena(buf[4:])
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	checkFlatShape(t, tr, h)
}

// TestRectLeafArenaRejected holds the one leaf shape: header word 9 of an
// arena is reserved-zero, and FlatFromArena refuses anything else with a
// version error naming the word, before it looks at a plane — a point
// arena with the word set to 1, and testdata/rect_leaf_arena.bin, a
// genuine rectangle-leaf arena (sub-trail MBRs of 8 windows over the
// 6 x 100 test store) frozen by the last commit that could write one.
func TestRectLeafArenaRejected(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "rect_leaf_arena.bin"))
	if err != nil {
		t.Fatal(err)
	}
	point := buildPointTree(t, rand.New(rand.NewSource(31)), Config{Dim: 2, MaxEntries: 4, MinEntries: 2, Split: SplitRStar}, 40)
	for what, arena := range map[string][]byte{"flipped": withLeafKind(point.Freeze().AppendArena(nil), 1), "fixture": old} {
		_, _, err := FlatFromArena(arena)
		if !errors.Is(err, binio.ErrVersion) || !strings.Contains(err.Error(), "unsupported leaf kind 1 in flat arena header word 9") {
			t.Errorf("%s: err = %v, want a version error naming header word 9", what, err)
		}
	}
}

// withLeafKind returns a copy of arena whose header word 9 says kind.
func withLeafKind(arena []byte, kind byte) []byte {
	out := bytes.Clone(arena)
	out[8*9] = kind
	return out
}

// TestFlatArenaCorruption flips every byte and cuts every 8-byte
// prefix of a small arena of each directory kind: decoding must fail
// cleanly or produce a tree that either fails Validate or still answers
// a search without panicking — never a crash.
func TestFlatArenaCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cfg := Config{Dim: 2, MaxEntries: 4, MinEntries: 2, Split: SplitRStar}
	tr := buildPointTree(t, rng, cfg, 60)
	boxes, _ := boxTree(t, rng, cfg, 60)
	l := randLine(rng, 2)

	probe := func(b []byte, what string, i int) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s at %d: panic %v", what, i, r)
			}
		}()
		g, _, err := FlatFromArena(b)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			return
		}
		// Structurally valid after corruption (e.g. a plane value
		// changed): traversal must still be safe.
		g.LineSearch(l, 1.0, geom.EnteringExiting, nil)
		g.NearestToLine(l, 3, nil)
		if g.dir == dirMBR {
			g.RangeSearch(geom.Rect{L: vec.Vector{-1, -1}, H: vec.Vector{1, 1}}, nil)
		}
	}

	for _, arena := range [][]byte{tr.Freeze().AppendArena(nil), boxes.AppendArena(nil)} {
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
	ft := tr.Freeze()
	f.Add(ft.AppendArena(nil))
	f.Add([]byte{})
	f.Add(withLeafKind(ft.AppendArena(nil), 1))
	old, err := os.ReadFile(filepath.Join("testdata", "rect_leaf_arena.bin"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(old)
	// A direction-box arena, the four single-value corruptions of it that
	// Validate refuses, and a directory kind nobody writes.
	boxes, _ := boxTree(f, rng, Config{Dim: 2, MaxEntries: 4, MinEntries: 2, Split: SplitRStar}, 120)
	f.Add(boxes.AppendArena(nil))
	for _, what := range []string{"shrunk direction box", "raised r_lo", "lowered r_hi", "root entry inside its child"} {
		f.Add(boxCorruptions(f, boxes)[what])
	}
	f.Add(withLeafKind(boxes.AppendArena(nil), 3))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, _, err := FlatFromArena(data)
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
