package rtree

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"scaleshift/internal/vec"
)

// columnsOf transposes items into BulkLoadFlat's input.
func columnsOf(items []Item, dim int) ([]int64, []float64) {
	n := len(items)
	ids, cols := make([]int64, n), make([]float64, n*dim)
	for i, it := range items {
		ids[i] = it.ID
		for j, x := range it.Point {
			cols[j*n+i] = x
		}
	}
	return ids, cols
}

// checkAgainstOracle bulk loads items both ways — the arena-native
// loader at every worker count, and the stable-sort reference of
// bulkload_oracle_test.go — and requires byte-identical arenas and a
// structurally valid arena of the reference's size.
func checkAgainstOracle(t testing.TB, cfg Config, items []Item, workerCounts ...int) {
	t.Helper()
	ref := refBulkLoad(cfg, items)
	want := ref.AppendArena(nil)
	ids, cols := columnsOf(items, cfg.Dim)
	for _, workers := range workerCounts {
		f, err := BulkLoadFlat(cfg, ids, cols, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := f.AppendArena(nil)
		if len(got) != f.ArenaSize() {
			t.Fatalf("workers=%d: arena is %d bytes, ArenaSize says %d", workers, len(got), f.ArenaSize())
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d workers=%d: arena differs from the reference's (%d vs %d bytes, first difference at %d)",
				len(items), workers, len(got), len(want), firstDiff(got, want))
		}
		if err := f.Validate(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if f.Len() != len(items) || f.NodeCount() != ref.NodeCount() {
			t.Fatalf("workers=%d: the tree holds %d items in %d pages, the reference %d in %d",
				workers, f.Len(), f.NodeCount(), ref.Len(), ref.NodeCount())
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestBulkLoadFlatMatchesOracle sweeps the shapes the tiling cascade
// branches on.  With M = 20 the group capacity c is 17 and m is 8.
func TestBulkLoadFlatMatchesOracle(t *testing.T) {
	const c = 17
	sizes := []int{0, 1, 7, 20, 21}
	// Around whole multiples of the capacity, where the last slab and
	// the last group run short.
	for _, k := range []int{2, 3, 5, 16, 60} {
		sizes = append(sizes, c*k-1, c*k, c*k+1)
	}
	// c·k + r with r < m leaves a trailing group of r: small enough to
	// merge into its predecessor for r = 1 only when that fits, and
	// re-cut in half otherwise.
	sizes = append(sizes, 2*c+1, 2*c+7, 9*c+3, 9*c+7, 1000, 5000, parallelSortCutoff+1234, 3*parallelSortCutoff+77)
	for _, dim := range []int{2, 6} {
		for _, n := range sizes {
			t.Run(fmt.Sprintf("dim%d/n%d", dim, n), func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(1000*dim + n)))
				checkAgainstOracle(t, DefaultConfig(dim), bulkItems(r, n, dim), 1, 2, 8)
			})
		}
	}
}

// TestBulkLoadFlatRebalance drives the trailing-group rebalance both
// ways.  A slab's last group of fewer than m entries is re-cut with its
// predecessor when half of the two is still m or more — M = 8 gives
// c = 6 and m = 3, so a full group and a short one always re-cut — and
// merged into it otherwise, which takes c < 2m − 1: M = 20 with m = 10
// gives c = 17, and 17 + 1 halves to less than 10.
func TestBulkLoadFlatRebalance(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		hit  func(c, entries int) bool
	}{
		{"re-cut", Config{Dim: 2, MaxEntries: 8, MinEntries: 3},
			func(c, entries int) bool { return entries < c }},
		{"merge", Config{Dim: 2, MaxEntries: 20, MinEntries: 10},
			func(c, entries int) bool { return entries > c }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := int(bulkFill * float64(tc.cfg.MaxEntries))
			reached := false
			for n := tc.cfg.MaxEntries + 1; n < 400; n++ {
				r := rand.New(rand.NewSource(int64(n)))
				items := bulkItems(r, n, 2)
				checkAgainstOracle(t, tc.cfg, items, 1, 2)
				ids, cols := columnsOf(items, 2)
				f, err := BulkLoadFlat(tc.cfg, ids, cols, 1)
				if err != nil {
					t.Fatal(err)
				}
				for i := range f.meta {
					if s, e := f.nodeEntries(i); f.nodeLevel(i) == 0 && tc.hit(c, e-s) {
						reached = true
					}
				}
			}
			if !reached {
				t.Fatal("no size in the sweep took this branch of the rebalance")
			}
		})
	}
}

// TestBulkLoadFlatTies covers the orders only a stable sort pins:
// heavy key ties (coordinates drawn from three values), whole duplicate
// points, and −0 beside +0, which compare equal as keys yet differ as
// bytes — so a wrong tie order, or a MBR fold that prefers the later of
// two equal bounds, shows in the arena.
func TestBulkLoadFlatTies(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, dim := range []int{2, 6} {
		for _, n := range []int{21, 300, 5000, parallelSortCutoff + 500} {
			r := rand.New(rand.NewSource(int64(7*n + dim)))
			few := make([]Item, n)
			zeros := make([]Item, n)
			for i := range few {
				p, z := make(vec.Vector, dim), make(vec.Vector, dim)
				for j := range p {
					p[j] = float64(r.Intn(3))
					z[j] = []float64{0, negZero, 1, -1}[r.Intn(4)]
				}
				few[i] = Item{Point: p, ID: int64(i)}
				zeros[i] = Item{Point: z, ID: int64(n - i)}
			}
			dup := bulkItems(r, n, dim)
			for i := 0; i+10 < n; i += 10 {
				dup[i+1].Point = dup[i].Point.Clone()
			}
			for name, items := range map[string][]Item{"few-values": few, "signed-zeros": zeros, "duplicates": dup} {
				t.Run(fmt.Sprintf("dim%d/n%d/%s", dim, n, name), func(t *testing.T) {
					checkAgainstOracle(t, DefaultConfig(dim), items, 1, 2, 8)
				})
			}
		}
	}
}

// TestBulkLoadFlatRejectsBadInput covers the loader's own input checks.
func TestBulkLoadFlatRejectsBadInput(t *testing.T) {
	if _, err := BulkLoadFlat(Config{}, nil, nil, 1); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := BulkLoadFlat(DefaultConfig(2), []int64{1, 2}, []float64{1, 2, 3}, 1); err == nil {
		t.Error("ids and coordinates of different lengths accepted")
	}
}

// TestBulkLoadFlatIsItsArena checks that the built tree is a view of
// one blob: reopening the bytes it writes gives the same tree, and on a
// little-endian host writing copies nothing but the blob.
func TestBulkLoadFlatIsItsArena(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	ids, cols := columnsOf(bulkItems(r, 3000, 4), 4)
	f, err := BulkLoadFlat(DefaultConfig(4), ids, cols, 2)
	if err != nil {
		t.Fatal(err)
	}
	if hostLittleEndian && len(f.arena) != f.ArenaSize() {
		t.Fatalf("built tree holds a %d-byte arena, ArenaSize says %d", len(f.arena), f.ArenaSize())
	}
	back, err := FlatFromArena(f.AppendArena(nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	l := vec.Line{P: make(vec.Vector, 4), D: vec.Vector{1, 2, -1, 0.5}}
	seeds := func(f *FlatTree) (ids []int64, dists []float64, stats SearchStats) {
		f.Seeds(l, &stats, func(id int64, d float64) { ids, dists = append(ids, id), append(dists, d) })
		return ids, dists, stats
	}
	ia, da, sa := seeds(f)
	ib, db, sb := seeds(back)
	if len(ia) == 0 || sa != sb || !slices.Equal(ia, ib) || !slices.Equal(da, db) {
		t.Fatalf("seeds over the built tree and its reopened arena: %v %v %+v vs %v %v %+v", ia, da, sa, ib, db, sb)
	}
}

// FuzzFlatBulkLoad feeds random ids, points and worker counts to the
// loader and its reference.  Coordinates come from the fuzzer's bytes a
// few bits at a time, so ties, signed zeros, whole zero points and
// squares that would overflow outside the arena's units are common.
// (Infinite coordinates are left out: their direction is NaN, which the
// reference's comparison sort orders arbitrarily.)
func FuzzFlatBulkLoad(f *testing.F) {
	f.Add([]byte("seed"), uint16(40), uint8(2), uint8(0))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 250, 251, 252, 253, 254, 255}, uint16(700), uint8(3), uint8(1))
	f.Add([]byte{}, uint16(0), uint8(1), uint8(2))
	values := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 2, 1e308, -1e308, 3, 7, -7, 1e-300, 42, 0.25}
	configs := []Config{
		DefaultConfig(2),
		DefaultConfig(6),
		{Dim: 3, MaxEntries: 8, MinEntries: 3},
		{Dim: 1, MaxEntries: 4, MinEntries: 2},
	}
	f.Fuzz(func(t *testing.T, data []byte, n uint16, workers, shape uint8) {
		cfg := configs[int(shape)%len(configs)]
		count := int(n) % 2500
		r := rand.New(rand.NewSource(int64(len(data))))
		items := make([]Item, count)
		for i := range items {
			p := make(vec.Vector, cfg.Dim)
			for j := range p {
				if len(data) == 0 {
					p[j] = r.NormFloat64()
					continue
				}
				b := data[(i*cfg.Dim+j)%len(data)]
				if b >= 240 { // a continuous value now and then
					p[j] = r.NormFloat64() * float64(b)
				} else {
					p[j] = values[int(b)%len(values)]
				}
			}
			items[i] = Item{Point: p, ID: int64(i) * 3}
		}
		checkAgainstOracle(t, cfg, items, 1, 2, 7, 1+int(workers)%9)
	})
}

// TestWriteArenaWithoutHostByteOrder runs the writers with the host
// byte-order shortcut switched off — the path a big-endian machine
// takes — and requires the same bytes: from a bulk-loaded tree (which
// then holds no ready-made arena), and from the bulk load's reference,
// whose arrays are encoded either way.
func TestWriteArenaWithoutHostByteOrder(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	items := bulkItems(r, 2*arenaChunk/10, 3)
	ids, cols := columnsOf(items, 3)
	build := func() (loaded, ref []byte) {
		g, err := BulkLoadFlat(DefaultConfig(3), ids, cols, 1)
		if err != nil {
			t.Fatal(err)
		}
		return g.AppendArena(nil), refBulkLoad(DefaultConfig(3), items).AppendArena(nil)
	}
	wantLoaded, wantRef := build()
	defer func(v bool) { hostLittleEndian = v }(hostLittleEndian)
	hostLittleEndian = false
	gotLoaded, gotRef := build()
	if !bytes.Equal(gotLoaded, wantLoaded) || !bytes.Equal(gotRef, wantRef) || !bytes.Equal(gotLoaded, gotRef) {
		t.Fatal("arena bytes depend on the host byte-order shortcut")
	}
}
