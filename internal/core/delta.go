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

// deltaSeg is the mutable segment of a SegmentedIndex: every window
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

// stream yields the view's windows in non-decreasing feature-space
// distance to line, the lower bound a frozen segment's best-first
// stream reports for the same points, until visit returns false.  All
// distances are computed in one pass of block sweeps; a binary heap
// over them then yields the order lazily, so a stream that stops after
// a few windows pays for a heapify, not a sort.
func (d deltaSeg) stream(line vec.Line, sc *queryScratch, visit func(lb float64, id int64) bool) {
	if cap(sc.nnDist) < d.n {
		sc.nnDist = make([]float64, d.n)
	}
	if cap(sc.nnHeap) < d.n {
		sc.nnHeap = make([]int32, d.n)
	}
	dist, heap := sc.nnDist[:d.n], sc.nnHeap[:d.n]
	eq := engine.Query{Line: line}
	for b := range d.blocks {
		d.distances(b, eq, sc, dist[b*deltaBlockLen:])
	}
	sc.tree.LeafEntriesChecked += d.n
	for i := range heap {
		heap[i] = int32(i)
	}
	down := func(i int) {
		for {
			c := 2*i + 1
			if c >= len(heap) {
				return
			}
			if c+1 < len(heap) && dist[heap[c+1]] < dist[heap[c]] {
				c++
			}
			if dist[heap[i]] <= dist[heap[c]] {
				return
			}
			heap[i], heap[c] = heap[c], heap[i]
			i = c
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for len(heap) > 0 {
		w := int(heap[0])
		if !visit(dist[w], d.blocks[w/deltaBlockLen].ids[w%deltaBlockLen]) {
			return
		}
		heap[0] = heap[len(heap)-1]
		heap = heap[:len(heap)-1]
		down(0)
	}
}
