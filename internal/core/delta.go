package core

import (
	"context"

	"scaleshift/internal/engine"
	"scaleshift/internal/vec"
)

// deltaBlockLen is the number of windows one delta block holds.  A block
// is one sweep of the batched PLD kernel, so it is sized like a few
// dozen tree leaves: large enough that the per-sweep setup vanishes,
// small enough that the kernel's three accumulator rows stay in L1.
const deltaBlockLen = 512

// deltaBlock is deltaBlockLen window slots in columnar form: the packed
// window ids and the feature points, dimension-major with the block
// length as row stride — feats[j*deltaBlockLen+k] is coordinate j of
// slot k, the layout vec.PLDFastBatch sweeps.
type deltaBlock struct {
	ids   [deltaBlockLen]int64
	feats []float64
}

// deltaSeg is the mutable segment of an Index: every window
// appended since the last compaction, in arrival order, with the
// feature point extraction computed for it.  It is the same data a
// frozen leaf level holds — ids and feature planes — without a
// directory above it, so the index phase tests it exactly as a leaf is
// tested and compaction bulk-loads it without re-extracting.
//
// The segment is append-only and is pinned by length: a deltaSeg value
// is a view of its first n windows.  The writer fills slot n and only
// then publishes a view of length n+1 (through the manifest cell, whose
// swap orders the two), and a view never reads a slot at or past its
// n — neither of a block's ids nor of its feature rows, which is why
// the kernels take a row stride — so readers holding older views share
// the blocks with the writer without synchronization.
type deltaSeg struct {
	dim    int
	blocks []*deltaBlock
	n      int
}

// append adds one window.  Writer-side only.
func (d *deltaSeg) append(id int64, feat vec.Vector) {
	k := d.n % deltaBlockLen
	if k == 0 {
		d.blocks = append(d.blocks, &deltaBlock{feats: make([]float64, d.dim*deltaBlockLen)})
	}
	b := d.blocks[len(d.blocks)-1]
	b.ids[k] = id
	for j, x := range feat {
		b.feats[j*deltaBlockLen+k] = x
	}
	d.n++
}

// prefix returns the view of the first n windows.  Its block list is
// clipped, so appends through the original never show through it.
func (d deltaSeg) prefix(n int) deltaSeg {
	nb := (n + deltaBlockLen - 1) / deltaBlockLen
	return deltaSeg{dim: d.dim, blocks: d.blocks[:nb:nb], n: n}
}

// suffix returns a fresh segment holding the windows from index from
// on — what is left of the delta once a compaction has frozen its
// first from windows.  The rows are copied run by run into new blocks:
// views of the old blocks stay valid for the readers pinning them.
func (d deltaSeg) suffix(from int) deltaSeg {
	out := deltaSeg{dim: d.dim}
	for from < d.n {
		src, so := d.blocks[from/deltaBlockLen], from%deltaBlockLen
		do := out.n % deltaBlockLen
		if do == 0 {
			out.blocks = append(out.blocks, &deltaBlock{feats: make([]float64, d.dim*deltaBlockLen)})
		}
		dst := out.blocks[len(out.blocks)-1]
		run := min(deltaBlockLen-so, deltaBlockLen-do, d.n-from)
		copy(dst.ids[do:do+run], src.ids[so:so+run])
		for j := 0; j < d.dim; j++ {
			copy(dst.feats[j*deltaBlockLen+do:j*deltaBlockLen+do+run], src.feats[j*deltaBlockLen+so:j*deltaBlockLen+so+run])
		}
		out.n += run
		from += run
	}
	return out
}

// count returns how many of block b's slots the view covers.
func (d deltaSeg) count(b int) int {
	return min(deltaBlockLen, d.n-b*deltaBlockLen)
}

// appendIDs appends every window id of the view to ids, in arrival
// order.
func (d deltaSeg) appendIDs(ids []int64) []int64 {
	for b, blk := range d.blocks {
		ids = append(ids, blk.ids[:d.count(b)]...)
	}
	return ids
}

// distances sweeps block b with the batched kernel, writing each slot's
// feature-space distance to eq's line — or, for a scale-bounded query,
// to its segment — into out[:count(b)].  These are the distances
// rtree.FlatTree computes for the same points in a leaf, bit for bit.
func (d deltaSeg) distances(b int, eq engine.Query, sc *queryScratch, out []float64) {
	c := d.count(b)
	if eq.Segment {
		vec.PSegDFastBatch(d.blocks[b].feats, deltaBlockLen, c, eq.Line, eq.TMin, eq.TMax, sc.qpD[:], sc.qpQp[:], out)
	} else {
		vec.PLDFastBatch(d.blocks[b].feats, deltaBlockLen, c, eq.Line, sc.qpD[:], sc.qpQp[:], out)
	}
}

// filter is the delta's index phase, the leaf test of §6 applied to
// every window: the ids whose feature point lies within eq.Eps of the
// query's SE-line (its scale segment under cost bounds) are appended to
// sc.ids.  Nothing qualifying is dismissed for the reason nothing is in
// a frozen leaf — the features are the extraction's, eq.Eps carries the
// manifest's slack, the kernel is the leaf's — and the tests are
// counted where a leaf's are.
func (d deltaSeg) filter(ctx context.Context, eq engine.Query, sc *queryScratch) error {
	for b, blk := range d.blocks {
		if err := ctx.Err(); err != nil {
			return err
		}
		c := d.count(b)
		d.distances(b, eq, sc, sc.dist[:c])
		for k, dist := range sc.dist[:c] {
			if dist <= eq.Eps {
				sc.ids = append(sc.ids, blk.ids[k])
			}
		}
	}
	sc.tree.LeafEntriesChecked += d.n
	return nil
}

// seeds offers every window of the view to sc.seeds, a selection of at
// most max, at its feature-space distance to line: one sweep of the
// kernel a frozen leaf runs, counted where a leaf's tests are.
func (d deltaSeg) seeds(ctx context.Context, line vec.Line, max int, sc *queryScratch) error {
	eq := engine.Query{Line: line}
	for b, blk := range d.blocks {
		if err := ctx.Err(); err != nil {
			return err
		}
		c := d.count(b)
		d.distances(b, eq, sc, sc.dist[:c])
		for k, dist := range sc.dist[:c] {
			sc.seeds.offer(seed{dist: dist, id: blk.ids[k]}, max)
		}
	}
	sc.tree.LeafEntriesChecked += d.n
	return nil
}
