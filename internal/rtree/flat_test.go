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

// buildPointTree bulk loads n random points.
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
	return f
}

// checkSearchEquivalence asserts every search of the arena f against the
// references over its own nodes, as it stores them (reference_test.go):
// the same IDs in the same order, and the same SearchStats — node
// accesses, leaf checks, subtrees accepted whole and the leaf entries
// they emitted, and box tests — for the line and the segment descent,
// and for the k-NN seeds' greedy descent.
func checkSearchEquivalence(t *testing.T, f *FlatTree, rng *rand.Rand) {
	t.Helper()
	dim := f.Config().Dim
	ctx := context.Background()
	root := storedView(f)
	for q := 0; q < 30; q++ {
		l := randLine(rng, dim)
		if q%2 == 0 {
			l.P = make(vec.Vector, dim) // through the origin, the served case
		}
		eps := rng.Float64() * 4
		if q%3 == 2 {
			eps *= 5 // wide enough to accept whole subtrees near the origin
		}
		tMin, tMax := rng.Float64()*2-1, rng.Float64()*3
		wantLine, lineStats := refLine(root, arenaUnits(f, lineQuery{l: l, eps: eps}))
		wantSeg, segStats := refLine(root, arenaUnits(f, lineQuery{l: l, segment: true, tMin: tMin, tMax: tMax, eps: eps}))
		var fs SearchStats
		gotIDs, err := f.LineSearchIDs(ctx, l, eps, &fs, nil)
		if err != nil || !reflect.DeepEqual(wantLine, gotIDs) {
			t.Fatalf("LineSearchIDs diverged (q=%d): %d vs %d ids, %v", q, len(wantLine), len(gotIDs), err)
		}
		if lineStats != fs {
			t.Fatalf("LineSearchIDs stats diverged: %+v vs %+v", lineStats, fs)
		}
		fs = SearchStats{}
		gotIDs, err = f.SegmentSearchIDs(ctx, l, tMin, tMax, eps, &fs, nil)
		if err != nil || !reflect.DeepEqual(wantSeg, gotIDs) {
			t.Fatalf("SegmentSearchIDs diverged (q=%d): %d vs %d ids, %v", q, len(wantSeg), len(gotIDs), err)
		}
		if segStats != fs {
			t.Fatalf("SegmentSearchIDs stats diverged: %+v vs %+v", segStats, fs)
		}

		// The k-NN seeds: the reference descent's leaf entries in order,
		// each at the leaf kernel's distance, bit for bit.
		aq := arenaUnits(f, lineQuery{l: l})
		wantSeeds, seedStats := refSeeds(root, aq)
		var ids, wantIDs []int64
		for _, e := range wantSeeds {
			wantIDs = append(wantIDs, e.id)
		}
		var ns SearchStats
		f.Seeds(l, &ns, func(id int64, d float64) {
			e := wantSeeds[min(len(ids), len(wantSeeds)-1)]
			if want := vec.PLDFast(e.rect.L, aq.l) * f.q.scale; math.Float64bits(d) != math.Float64bits(want) {
				t.Fatalf("seeds (q=%d): id %d at %v, the leaf kernel's distance is %v", q, id, d, want)
			}
			ids = append(ids, id)
		})
		if !reflect.DeepEqual(wantIDs, ids) || ns != seedStats {
			t.Fatalf("seeds diverged (q=%d): %v %+v vs %v %+v", q, ids, ns, wantIDs, seedStats)
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
	if w, g := storedItems(want), storedItems(got); !reflect.DeepEqual(w, g) {
		t.Fatalf("stored points diverged: %d vs %d items", len(w), len(g))
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
// prefix of two small arenas — of uniform points, and of clustered
// directions with norms over decades: decoding must fail cleanly or
// produce a tree that either fails Validate or still answers a search
// without panicking — never a crash.
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
		g.LineSearchIDs(context.Background(), l, 1.0, nil, nil)
		g.Seeds(l, nil, func(int64, float64) {})
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
	// An MBR directory, the kind arenas frozen from an insert-built tree
	// had.
	f.Add(withDirKind(ft.AppendArena(nil), 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := FlatFromArena(data)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			return
		}
		l := vec.Line{P: vec.Vector{0, 0}, D: vec.Vector{1, 1}}
		g.LineSearchIDs(context.Background(), l, 1.0, nil, nil)
		g.Seeds(l, nil, func(int64, float64) {})
	})
}
