package core

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sort"

	"scaleshift/internal/dft"
	"scaleshift/internal/rtree"
	"scaleshift/internal/store"
	"scaleshift/internal/vec"
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

// extractRange streams the features of windows [lo, hi) of sequence
// seq into fn, reading through sv.  It replicates featureSegment's
// checkpoint discipline — the sliding DFT restarts at every absolute
// multiple of featureCheckpoint — so the emitted features are
// bit-identical to what Build/BuildBulkParallel computes for the same
// windows, regardless of how [lo, hi) slices the sequence.
func extractRange(sv storeView, fmap *dft.FeatureMap, opts Options, seq, lo, hi int, fn func(start int, f vec.Vector) error) error {
	if lo >= hi {
		return nil
	}
	n := opts.WindowLen
	feat := make(vec.Vector, fmap.Dim())
	if opts.Reduction != ReductionDFT {
		w := make(vec.Vector, n)
		se := make(vec.Vector, n)
		for start := lo; start < hi; start++ {
			if err := sv.Window(seq, start, n, w, nil); err != nil {
				return err
			}
			vec.SETransformInPlace(se, w)
			fmap.TransformInto(feat, se)
			if err := fn(start, feat); err != nil {
				return err
			}
		}
		return nil
	}
	raw := make(vec.Vector, n+featureCheckpoint-1)
	for cp := lo - lo%featureCheckpoint; cp < hi; cp += featureCheckpoint {
		segLast := cp + featureCheckpoint - 1
		if segLast > hi-1 {
			segLast = hi - 1
		}
		span := segLast - cp + n
		if err := sv.Window(seq, cp, span, raw[:span], nil); err != nil {
			return err
		}
		slider, err := dft.NewSlidingTransformer(fmap, raw[:n])
		if err != nil {
			return err
		}
		for s := cp; s <= segLast; s++ {
			if s > cp {
				slider.Slide(raw[s-cp+n-1])
			}
			if s < lo {
				continue
			}
			slider.Feature(feat)
			if err := fn(s, feat); err != nil {
				return err
			}
		}
	}
	return nil
}

// rangesOf derives the contiguous window ranges covered by items, which
// must be sorted by id.
func rangesOf(items []rtree.Item) []winRange {
	var out []winRange
	for _, it := range items {
		seq, start := store.DecodeWindowID(it.ID)
		if k := len(out) - 1; k >= 0 && out[k].Seq == seq && out[k].Hi == start {
			out[k].Hi++
			continue
		}
		out = append(out, winRange{Seq: seq, Lo: start, Hi: start + 1})
	}
	return out
}

// buildSegment bulk-loads one frozen segment from the windows of d,
// reading the ids and feature planes in place: the points the loader
// sorts are rows of one transposed buffer, not a heap object per
// window.  The feature points were extracted under the checkpoint
// discipline, so the segment indexes exactly the features a
// from-scratch build would.  Returns nil for an empty view.
func buildSegment(d deltaSeg, opts Options) (*frozenSeg, error) {
	if d.n == 0 {
		return nil, nil
	}
	// Items go to the loader in (seq, start) order, whatever order the
	// windows arrived in.
	ids := d.appendIDs(make([]int64, 0, d.n))
	order := make([]int32, d.n)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(ids[a], ids[b]) })
	points := make([]float64, d.n*d.dim)
	items := make([]rtree.Item, d.n)
	for i, w := range order {
		feats, k := d.blocks[w/deltaBlockLen].feats, int(w)%deltaBlockLen
		p := points[i*d.dim : (i+1)*d.dim : (i+1)*d.dim]
		for j := range p {
			p[j] = feats[j*deltaBlockLen+k]
		}
		items[i] = rtree.Item{Point: p, ID: ids[w]}
	}
	ranges := rangesOf(items) // before the loader reorders them
	cfg := opts.Tree
	cfg.Dim = d.dim
	tree, err := rtree.BulkLoadParallel(cfg, items, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, fmt.Errorf("core: segment bulk load: %w", err)
	}
	flat, err := tree.Freeze()
	if err != nil {
		return nil, fmt.Errorf("core: segment freeze: %w", err)
	}
	return &frozenSeg{flat: flat, ranges: ranges, count: d.n}, nil
}

// mergeSegments re-extracts every window covered by the given frozen
// segments and the delta view from snap and bulk-loads them into one
// consolidated segment.  Re-extraction (rather than stitching stored
// feature points) keeps the merged segment bit-identical to a
// from-scratch build by construction.
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
	seqs := make([]int, 0, len(hi))
	for seq := range hi {
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	merged := deltaSeg{dim: fmap.Dim()}
	for _, seq := range seqs {
		err := extractRange(snap, fmap, opts, seq, lo[seq], hi[seq], func(start int, f vec.Vector) error {
			merged.append(store.EncodeWindowID(seq, start), f)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("core: segment merge: %w", err)
		}
	}
	return buildSegment(merged, opts)
}
