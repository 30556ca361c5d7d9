package core

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"

	"scaleshift/internal/dft"
	"scaleshift/internal/rtree"
	"scaleshift/internal/store"
)

// The segment model behind SegmentedIndex: an ordered set of immutable
// frozen segments — each a pointer-free flat R*-tree over a contiguous
// per-sequence window range — plus a small mutable delta absorbing
// freshly appended windows (deltaSeg, delta.go).  Every manifest
// generation pins a store snapshot, so queries fan across segments and
// verify against data that cannot move under them.

// winRange addresses the windows [Lo, Hi) of sequence Seq covered by a
// frozen segment.  Coverage is contiguous per sequence: window Lo of a
// later segment continues exactly where the previous segment's Hi left
// off, which is what lets the manifest guarantee every window lives in
// exactly one segment.
type winRange struct {
	Seq, Lo, Hi int
}

// frozenSeg is one immutable segment: a frozen flat tree over the
// feature points of its windows, plus the window ranges it covers.
type frozenSeg struct {
	flat   *rtree.FlatTree
	ranges []winRange
	count  int
}

// manifest is one immutable generation of the segmented index.  It is
// published through an RCU cell: readers pin it for the duration of a
// query, writers publish a fresh one after every mutation, and no
// reader ever observes a half-updated view.
type manifest struct {
	// ix is the owning index, read for its immutable configuration
	// (options, feature map) only.
	ix     *SegmentedIndex
	gen    int64
	snap   *store.Snapshot
	frozen []*frozenSeg
	// delta is the view of the mutable segment as of this generation.
	delta deltaSeg
	// slack is the numeric slack for index-phase epsilon widening,
	// derived from the largest feature magnitude ever published, the
	// delta's included (a monotone overestimate is safe: the exact
	// verifier reapplies the caller's epsilon).
	slack float64
}

// windowCount is the manifest's candidate universe size.
func (m *manifest) windowCount() int {
	total := m.delta.n
	for _, sg := range m.frozen {
		total += sg.count
	}
	return total
}

// rangesOf derives the contiguous window ranges covered by ids, which
// must be sorted.
func rangesOf(ids []int64) []winRange {
	var out []winRange
	for _, id := range ids {
		seq, start := store.DecodeWindowID(id)
		if k := len(out) - 1; k >= 0 && out[k].Seq == seq && out[k].Hi == start {
			out[k].Hi++
			continue
		}
		out = append(out, winRange{Seq: seq, Lo: start, Hi: start + 1})
	}
	return out
}

// buildSegment bulk-loads one frozen segment from the windows of d: the
// ids and feature planes go to the loader as columns, in (seq, start)
// order whatever order the windows arrived in — no object is made per
// window.  The feature points were extracted under the checkpoint
// discipline, so the segment indexes exactly the features a
// from-scratch build would.  Returns nil for an empty view.
func buildSegment(d deltaSeg, opts Options) (*frozenSeg, error) {
	if d.n == 0 {
		return nil, nil
	}
	arrival := d.appendIDs(make([]int64, 0, d.n))
	order := make([]int32, d.n)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(arrival[a], arrival[b]) })
	ids, cols := make([]int64, d.n), make([]float64, d.n*d.dim)
	for i, w := range order {
		ids[i] = arrival[w]
		feats, k := d.blocks[w/deltaBlockLen].feats, int(w)%deltaBlockLen
		for j := 0; j < d.dim; j++ {
			cols[j*d.n+i] = feats[j*deltaBlockLen+k]
		}
	}
	cfg := opts.Tree
	cfg.Dim = d.dim
	flat, err := rtree.BulkLoadFlat(cfg, ids, cols, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, fmt.Errorf("core: segment bulk load: %w", err)
	}
	return &frozenSeg{flat: flat, ranges: rangesOf(ids), count: d.n}, nil
}

// mergeSegments re-extracts every window covered by the given frozen
// segments and the delta view from snap and bulk-loads them into one
// consolidated segment (bulkLoadRanges, the cold start's own build).
// Re-extraction (rather than stitching stored feature points) keeps the
// merged segment bit-identical to a from-scratch build by construction.
//
// The segments must be an ADJACENT run of the frozen list (plus the
// folding delta, which continues past the newest segment): per
// sequence their ranges then tile one contiguous span [lo, hi), and
// only that span is re-extracted — the size-tiered policy depends on a
// partial merge not paying for the untouched older segments.
func mergeSegments(snap *store.Snapshot, fmap *dft.FeatureMap, opts Options, frozen []*frozenSeg, delta deltaSeg) (*frozenSeg, error) {
	lo := map[int]int{}
	hi := map[int]int{}
	cover := func(seq, l, h int) {
		if cur, ok := lo[seq]; !ok || l < cur {
			lo[seq] = l
		}
		if h > hi[seq] {
			hi[seq] = h
		}
	}
	for _, sg := range frozen {
		for _, r := range sg.ranges {
			cover(r.Seq, r.Lo, r.Hi)
		}
	}
	for _, id := range delta.appendIDs(nil) {
		seq, start := store.DecodeWindowID(id)
		cover(seq, start, start+1)
	}
	ranges := make([]winRange, 0, len(hi))
	count := 0
	for seq := range hi {
		ranges = append(ranges, winRange{Seq: seq, Lo: lo[seq], Hi: hi[seq]})
		count += hi[seq] - lo[seq]
	}
	slices.SortFunc(ranges, func(a, b winRange) int { return cmp.Compare(a.Seq, b.Seq) })
	flat, err := bulkLoadRanges(context.Background(), snap, fmap, opts, ranges, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, fmt.Errorf("core: segment merge: %w", err)
	}
	return &frozenSeg{flat: flat, ranges: ranges, count: count}, nil
}
