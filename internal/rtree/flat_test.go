package rtree

import (
	"bytes"
	"context"
	"errors"
	"math"
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

// mbrTwin freezes the nodes of f again, under the MBRs of what each
// holds (FlatFromNodes): the same leaves beneath the directory an
// insert-built tree has, whatever f's own was.
func mbrTwin(t testing.TB, f *FlatTree) *FlatTree {
	t.Helper()
	var rectsOf func(i int) []geom.Rect
	rectsOf = func(i int) []geom.Rect {
		s, e := f.nodeEntries(i)
		pl := f.nodePlanes(i)
		rects := make([]geom.Rect, e-s)
		for k := range rects {
			if f.nodeLevel(i) == 0 {
				p := f.leafItem(s+k, pl, k).Point
				rects[k] = geom.Rect{L: p, H: p}
				continue
			}
			below := rectsOf(f.child(i, s+k))
			rects[k] = geom.Rect{L: below[0].L.Clone(), H: below[0].H.Clone()}
			for _, r := range below[1:] {
				rects[k].Extend(r)
			}
		}
		return rects
	}
	twin, err := FlatFromNodes(f.cfg, 0, func(i int) (level, pages int, rects []geom.Rect, ids []int64, children []int) {
		s, e := f.nodeEntries(i)
		for ei := s; ei < e; ei++ {
			if f.nodeLevel(i) == 0 {
				ids = append(ids, int64(f.refs[ei]))
			} else {
				children = append(children, f.child(i, ei))
			}
		}
		return f.nodeLevel(i), f.nodePages(i), rectsOf(i), ids, children
	})
	if err != nil {
		t.Fatal(err)
	}
	if twin.Directory() != DirectoryMBR {
		t.Fatalf("FlatFromNodes wrote a %s directory", twin.Directory())
	}
	return twin
}

// buildPointTree bulk loads n random points and returns the tree's MBR
// twin.
func buildPointTree(t testing.TB, rng *rand.Rand, cfg Config, n int) *FlatTree {
	t.Helper()
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Point: randPoint(rng, cfg.Dim, 10), ID: int64(i)}
	}
	ids, cols := columnsOf(items, cfg.Dim)
	f, err := BulkLoadFlat(cfg, ids, cols, 1)
	if err != nil {
		t.Fatal(err)
	}
	return mbrTwin(t, f)
}

// checkSearchEquivalence asserts every search of the MBR-directory arena
// f against the references over its own nodes, as it stores them
// (reference_test.go):
// the same hits in the same order, and the same SearchStats — node
// accesses, leaf checks and penetration primitives — for every range
// descent under both strategies, and for the k-NN seeds' greedy descent.
func checkSearchEquivalence(t *testing.T, f *FlatTree, rng *rand.Rand) {
	t.Helper()
	dim := f.Config().Dim
	ctx := context.Background()
	root := storedView(f)
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

		// The k-NN seeds: the reference descent's leaf entries in order,
		// each at the leaf kernel's distance, bit for bit.
		al := arenaUnits(f, lineQuery{l: l}).l
		wantSeeds, seedStats := refSeeds(root, al)
		var ids []int64
		var ns SearchStats
		f.Seeds(l, &ns, func(id int64, d float64) {
			e := wantSeeds[min(len(ids), len(wantSeeds)-1)]
			if want := vec.PLDFast(e.item.Point, al) * f.q.scale; math.Float64bits(d) != math.Float64bits(want) {
				t.Fatalf("seeds (q=%d): id %d at %v, the leaf kernel's distance is %v", q, id, d, want)
			}
			ids = append(ids, id)
		})
		if !reflect.DeepEqual(entryIDs(wantSeeds), ids) || ns != seedStats {
			t.Fatalf("seeds diverged (q=%d): %v %+v vs %v %+v", q, ids, ns, entryIDs(wantSeeds), seedStats)
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

func TestFlatEquivalenceBulkLoaded(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{0, 1, 7, 300, 2000} {
		f := buildPointTree(t, rng, DefaultConfig(6), n)
		if err := f.Validate(); err != nil {
			t.Fatal(err)
		}
		checkSearchEquivalence(t, f, rng)
	}
}

// checkFlatShape asserts that got is the tree want is: size, shape,
// bounds and every item in document order.
func checkFlatShape(t *testing.T, want, got *FlatTree) {
	t.Helper()
	if want.Len() != got.Len() || want.Height() != got.Height() || want.NodeCount() != got.NodeCount() {
		t.Fatalf("shape diverged: len %d/%d height %d/%d nodes %d/%d",
			want.Len(), got.Len(), want.Height(), got.Height(), want.NodeCount(), got.NodeCount())
	}
	wb, wok := want.Bounds()
	gb, gok := got.Bounds()
	if wok != gok || !reflect.DeepEqual(wb, gb) {
		t.Fatalf("bounds diverged: %v,%v vs %v,%v", wb, wok, gb, gok)
	}
	if !reflect.DeepEqual(want.All(), got.All()) {
		t.Fatalf("All() diverged: %d vs %d items", len(want.All()), len(got.All()))
	}
}

func TestArenaRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	cfg := Config{Dim: 3, MaxEntries: 5, MinEntries: 2}
	f := buildPointTree(t, rng, cfg, 220)
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
	checkFlatShape(t, f, g)
	checkSearchEquivalence(t, g, rng)

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
	checkFlatShape(t, f, h)
}

// TestRectLeafArenaRejected holds the one leaf shape: FlatFromArena
// refuses, with a version error and before it looks at a plane, a point
// arena whose directory kind (header word 6) says 1, the retired
// rectangle-leaf kind, and testdata/rect_leaf_arena.bin, a genuine
// rectangle-leaf arena (sub-trail MBRs of 8 windows over the 6 x 100
// test store, arena version 2) frozen by the last commit that could
// write one.
func TestRectLeafArenaRejected(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "rect_leaf_arena.bin"))
	if err != nil {
		t.Fatal(err)
	}
	point := buildPointTree(t, rand.New(rand.NewSource(31)), Config{Dim: 2, MaxEntries: 4, MinEntries: 2}, 40)
	for _, c := range []struct {
		what  string
		arena []byte
		want  string
	}{
		{"flipped", withDirKind(point.AppendArena(nil), 1), "unsupported directory kind 1 in flat arena header word 6"},
		{"fixture", old, "unsupported flat arena version 2"},
	} {
		if _, err := FlatFromArena(c.arena); !errors.Is(err, binio.ErrVersion) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want a version error naming %q", c.what, err, c.want)
		}
	}
}

// withDirKind returns a copy of arena whose header word 6 says kind.
func withDirKind(arena []byte, kind byte) []byte {
	out := bytes.Clone(arena)
	out[8*6] = kind
	return out
}

// TestFlatArenaCorruption flips every byte and cuts every 8-byte
// prefix of a small arena of each directory kind: decoding must fail
// cleanly or produce a tree that either fails Validate or still answers
// a search without panicking — never a crash.
func TestFlatArenaCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cfg := Config{Dim: 2, MaxEntries: 4, MinEntries: 2}
	tr := buildPointTree(t, rng, cfg, 60)
	boxes, _ := boxTree(t, rng, cfg, 60)
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
		g.Seeds(l, nil, func(int64, float64) {})
		if g.dir == dirMBR {
			g.RangeSearch(geom.Rect{L: vec.Vector{-1, -1}, H: vec.Vector{1, 1}}, nil)
		}
	}

	for _, arena := range [][]byte{tr.AppendArena(nil), boxes.AppendArena(nil)} {
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
	cfg := Config{Dim: 2, MaxEntries: 4, MinEntries: 2}
	ft := buildPointTree(f, rng, cfg, 40)
	f.Add(ft.AppendArena(nil))
	f.Add([]byte{})
	f.Add(withDirKind(ft.AppendArena(nil), 1))
	old, err := os.ReadFile(filepath.Join("testdata", "rect_leaf_arena.bin"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(old)
	// A direction-box arena, the four single-value corruptions of it that
	// Validate refuses, and a directory kind nobody writes.
	boxes, _ := boxTree(f, rng, Config{Dim: 2, MaxEntries: 4, MinEntries: 2}, 120)
	f.Add(boxes.AppendArena(nil))
	for _, what := range []string{"shrunk direction box", "raised r_lo", "lowered r_hi", "root entry inside its child"} {
		f.Add(boxCorruptions(f, boxes)[what])
	}
	f.Add(withDirKind(boxes.AppendArena(nil), 3))
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
		g.Seeds(l, nil, func(int64, float64) {})
	})
}
