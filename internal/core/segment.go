package core

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"scaleshift/internal/dft"
	"scaleshift/internal/engine"
	"scaleshift/internal/geom"
	"scaleshift/internal/obs"
	"scaleshift/internal/rtree"
	"scaleshift/internal/store"
	"scaleshift/internal/vec"
)

// The segment model behind the index: an ordered set of immutable
// frozen segments — each a pointer-free flat R*-tree over a contiguous
// per-sequence window range — plus a small mutable delta absorbing
// freshly appended windows (deltaSeg, delta.go), read through one
// manifest.  A query probes every frozen segment down its own tree and
// sweeps the delta with the tree's leaf test.  Every generation pins a
// store snapshot, so queries fan across segments and verify against
// data that cannot move under them.

// scanCheckInterval is how many emitted windows pass between ctx polls
// in a segment scan: frequent enough that cancellation latency stays in
// the microseconds, rare enough to stay invisible in the emit loop.
const scanCheckInterval = 1024

// winRange addresses the windows [Lo, Hi) of sequence Seq covered by a
// frozen segment.  Coverage is contiguous per sequence: window Lo of a
// later segment continues exactly where the previous segment's Hi left
// off, which is what lets the manifest guarantee every window lives in
// exactly one segment.
type winRange struct {
	Seq, Lo, Hi int
}

// frozenSeg is one immutable segment: a frozen flat tree over the
// features of its windows, plus the window ranges it covers, in
// (Seq, Lo) order.
type frozenSeg struct {
	flat   *rtree.FlatTree
	ranges []winRange
	count  int
	// file, once set, is the segment's own artifact file (segfile.go):
	// the one it was opened from, or the one a checkpoint wrote.
	file atomic.Pointer[durableFile]
}

// candidates appends the segment's candidate windows for eq to sc.ids
// down path, counting tree work into sc's tally.  Either path emits a
// superset of the true answer set — the shared verifier removes the
// rest — which is what keeps the path invisible in the result set.
// The index probe is the paper's §6 index phase — descend into
// children whose ε-enlarged MBR the SE-line penetrates, collect the
// leaf entries within ε of it — under an "rtree.descent" span; the scan is experiment set 1, every window of the segment in
// storage order and no index page read, under a "scan" span.
func (sg *frozenSeg) candidates(ctx context.Context, path engine.PathKind, eq engine.Query, strategy geom.Strategy, sc *queryScratch) error {
	before := len(sc.ids)
	if path == engine.PathScan {
		_, span := obs.StartSpan(ctx, "scan")
		err := sg.appendWindows(ctx, sc)
		if span != nil {
			span.SetInt("emitted", int64(len(sc.ids)-before))
			spanEndWithError(span, err)
		}
		return err
	}
	descentCtx, span := obs.StartSpan(ctx, "rtree.descent")
	nodesBefore, leavesBefore := sc.tree.NodeAccesses, sc.tree.LeafEntriesChecked
	var err error
	if eq.Segment {
		sc.ids, err = sg.flat.SegmentSearchIDs(descentCtx, eq.Line, eq.TMin, eq.TMax, eq.Eps, strategy, &sc.tree, sc.ids)
	} else {
		sc.ids, err = sg.flat.LineSearchIDs(descentCtx, eq.Line, eq.Eps, strategy, &sc.tree, sc.ids)
	}
	endDescentSpan(span, &sc.tree, nodesBefore, leavesBefore, len(sc.ids)-before, err)
	return err
}

// appendWindows appends every window of the segment to sc.ids, in
// storage order.
func (sg *frozenSeg) appendWindows(ctx context.Context, sc *queryScratch) error {
	before := len(sc.ids)
	for _, r := range sg.ranges {
		for start := r.Lo; start < r.Hi; start++ {
			if (len(sc.ids)-before)%scanCheckInterval == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			sc.ids = append(sc.ids, store.EncodeWindowID(r.Seq, start))
		}
	}
	return nil
}

// manifest is one immutable view of an index: what every query plans,
// probes and verifies against.  The index publishes one per generation
// through an RCU cell — readers pin it for the duration of a query,
// writers publish a fresh one after every mutation, and no reader ever
// observes a half-updated view.
type manifest struct {
	opts Options
	fmap *dft.FeatureMap
	gen  int64
	// sv reads the data the segments cover: a store snapshot pinned when
	// the manifest was published, since mutations race with queries.
	sv     storeView
	frozen []*frozenSeg
	// delta is the view of the mutable segment as of this generation.
	delta deltaSeg
	// slack is the numeric slack for index-phase epsilon widening (see
	// numericSlack), over the largest feature magnitude ever published,
	// the delta's included (a monotone overestimate is safe: the exact
	// verifier reapplies the caller's epsilon).
	slack float64
	// bits lays out sv's windows for ordering candidates (orderIDs),
	// derived on first use.
	bitsOnce sync.Once
	bits     windowBits
}

// windowBits returns the window bitmap layout of m's store view.
func (m *manifest) windowBits() *windowBits {
	m.bitsOnce.Do(func() { m.bits = newWindowBits(m.sv, m.opts.WindowLen) })
	return &m.bits
}

// windowCount is the manifest's candidate universe size.
func (m *manifest) windowCount() int {
	total := m.delta.n
	for _, sg := range m.frozen {
		total += sg.count
	}
	return total
}

// indexPageCount is the total of index pages across frozen segments.
func (m *manifest) indexPageCount() int {
	total := 0
	for _, sg := range m.frozen {
		total += sg.flat.NodeCount()
	}
	return total
}

// indexByteCount is the total arena size of the frozen segments: what
// the index occupies mapped, and on disk behind a few framing bytes.
func (m *manifest) indexByteCount() int {
	total := 0
	for _, sg := range m.frozen {
		total += sg.flat.ArenaSize()
	}
	return total
}

// treeHeight is the tallest frozen segment's height.
func (m *manifest) treeHeight() int {
	h := 0
	for _, sg := range m.frozen {
		h = max(h, sg.flat.Height())
	}
	return h
}

// storeShape reports the data's sequence, value, and page counts.
func (m *manifest) storeShape() (seqs, values, pages int) {
	return m.sv.NumSequences(), m.sv.TotalValues(), m.sv.PageCount()
}

// probe runs the index phase for one window-length piece: the id of
// every window within eps of the piece's SE-line is appended to sc.ids
// (a superset is fine, the verifier is exact) and the probes issued are
// counted into sc's tally.  Every frozen segment is probed down its tree
// and the delta by the tree path's leaf test swept over its windows
// (deltaSeg.filter), unless force is PathScan, which emits every window
// of every segment: the oracle the tree is checked against.  The
// piece's SE-line and engine query are computed under the "plan" span
// and PlanTime, the probes run under "probe" and ProbeTime, each
// segment opening its own descent or scan span (an untraced context
// skips the spans without allocating).  The returned Explain has one
// SegmentPlan per probed segment.
func (m *manifest) probe(ctx context.Context, piece vec.Vector, eps float64, costs CostBounds, force engine.PathKind, sc *queryScratch) (*engine.Explain, error) {
	path := engine.PathRTree
	if force == engine.PathScan {
		path = engine.PathScan
	}
	ex := &engine.Explain{
		Chosen:   path,
		Forced:   force != engine.PathAuto,
		Pieces:   1,
		Segments: make([]engine.SegmentPlan, 0, len(m.frozen)+1),
	}
	for i, sg := range m.frozen {
		ex.Segments = append(ex.Segments, engine.SegmentPlan{Seg: i, Kind: "frozen", Windows: sg.count, Chosen: path})
	}
	if m.delta.n > 0 {
		ex.Segments = append(ex.Segments, engine.SegmentPlan{Seg: -1, Kind: "delta", Windows: m.delta.n, Chosen: path})
	}
	_, planSpan := obs.StartSpan(ctx, "plan")
	planStart := time.Now()
	eq := buildEngineQuery(sc.seLine(m.fmap, piece), eps, m.slack, costs)
	ex.PlanTime = time.Since(planStart)
	planSpan.End()

	probeStart := time.Now()
	probeCtx, probeSpan := obs.StartSpan(ctx, "probe")
	if probeSpan != nil {
		probeSpan.SetAttr("path", path.String())
	}
	idsBefore, nodesBefore := len(sc.ids), sc.tree.NodeAccesses
	for i := range ex.Segments {
		sp := &ex.Segments[i]
		first := len(sc.ids)
		var err error
		switch {
		case sp.Seg >= 0:
			err = m.frozen[sp.Seg].candidates(probeCtx, path, eq, m.opts.Strategy, sc)
		case path == engine.PathScan:
			sc.ids = m.delta.appendIDs(sc.ids)
		default:
			err = m.delta.filter(probeCtx, eq, sc)
		}
		if err != nil {
			spanEndWithError(probeSpan, err)
			return ex, fmt.Errorf("core: %s probe: %w", path, err)
		}
		sp.Candidates = len(sc.ids) - first
		sc.paths[path]++
	}
	if probeSpan != nil {
		probeSpan.SetInt("candidates", int64(len(sc.ids)-idsBefore))
		probeSpan.SetInt("node_reads", int64(sc.tree.NodeAccesses-nodesBefore))
		probeSpan.End()
	}
	ex.ProbeTime = time.Since(probeStart)
	return ex, nil
}

// seeds puts in sc.ids the windows a k-NN query refines into its bound:
// of the leaf entries the descent of each frozen segment reports
// (rtree.FlatTree.Seeds) and of every delta window (deltaSeg.seeds), the
// max nearest q's SE-line in feature space.  The descents and the sweep
// are counted into sc's tally.
func (m *manifest) seeds(ctx context.Context, q vec.Vector, max int, sc *queryScratch) error {
	line := sc.seLine(m.fmap, q)
	offer := func(id int64, dist float64) { sc.seeds.offer(seed{dist: dist, id: id}, max) }
	for _, sg := range m.frozen {
		sg.flat.Seeds(line, &sc.tree, offer)
	}
	if err := m.delta.seeds(ctx, line, max, sc); err != nil {
		return err
	}
	sc.seeds.keep(max)
	for _, s := range sc.seeds {
		sc.ids = append(sc.ids, s.id)
	}
	return nil
}

// mergeSegments re-extracts every window covered by the given frozen
// segments and the delta view from snap and bulk-loads them into one
// consolidated segment (bulkLoadRanges, the cold start's own build).
// Re-extraction (rather than stitching stored feature points) keeps the
// merged segment bit-identical to a from-scratch build by construction;
// a fold of the delta alone is the merge of an empty run.
//
// The segments must be an ADJACENT run of the frozen list (plus the
// folding delta, which continues past the newest segment): per
// sequence their ranges then tile one contiguous span [lo, hi), and
// only that span is re-extracted — the size-tiered policy depends on a
// partial merge not paying for the untouched older segments.
func mergeSegments(snap storeView, fmap *dft.FeatureMap, opts Options, frozen []*frozenSeg, delta deltaSeg) (*frozenSeg, error) {
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
	flat, _, err := bulkLoadRanges(context.Background(), snap, fmap, opts, ranges, runtime.GOMAXPROCS(0), nil)
	if err != nil {
		return nil, fmt.Errorf("core: segment merge: %w", err)
	}
	return &frozenSeg{flat: flat, ranges: ranges, count: count}, nil
}
