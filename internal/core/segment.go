package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
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

// The segment model behind both index types: an ordered set of
// immutable frozen segments — each a pointer-free flat R*-tree over a
// contiguous per-sequence window range — plus a small mutable delta
// absorbing freshly appended windows (deltaSeg, delta.go), read through
// one manifest.  A segment is the unit of planning: each one prices its
// own access paths and is probed down the cheapest.  An Index is the
// one-segment, empty-delta manifest over its live store; every
// generation of a SegmentedIndex pins a store snapshot, so queries fan
// across segments and verify against data that cannot move under them.

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

// planTable is one segment's plan: a row per access path, the index
// probe before the scan so an exact cost tie keeps the paper's behavior.
// Both are always available; Force picks either.
type planTable [2]engine.PathPlan

// plan prices the two ways to emit the segment's candidates for eq —
// each a superset of the true answer set, the shared verifier removing
// the rest, which is what keeps the choice between them invisible in the
// result set.  The tree's maintained feature sample is measured against
// the query's SE-line (its scale segment when cost bounds apply) once,
// into sc.sample: the empirical half of the selectivity estimate.
func (sg *frozenSeg) plan(eq engine.Query, sc *queryScratch) planTable {
	h := sg.flat.CostHints()
	tMin, tMax := math.Inf(-1), math.Inf(1)
	if eq.Segment {
		tMin, tMax = eq.TMin, eq.TMax
	}
	sc.sample = engine.SegmentDistances(sc.sample, h.Sample, eq.Line, tMin, tMax)
	return planTable{
		{Path: engine.PathRTree, Available: true, Cost: engine.EstimateTreeCostSampled(h, sg.count, eq.Eps, sc.sample)},
		{Path: engine.PathScan, Available: true, Cost: engine.EstimateScanCost(sg.count)},
	}
}

// candidates appends the segment's candidate windows for eq to sc.ids
// down path, which plan must have listed available, counting tree work
// into sc's tally.  The index probe is the paper's §6 index phase —
// descend into children whose ε-enlarged MBR the SE-line penetrates,
// collect the leaf entries within ε of it — under an "rtree.descent"
// span; the scan is experiment set 1, every window of the segment in
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
// probes and verifies against.  A SegmentedIndex publishes one per
// generation through an RCU cell — readers pin it for the duration of a
// query, writers publish a fresh one after every mutation, and no
// reader ever observes a half-updated view; an Index holds the one that
// describes its arena.
type manifest struct {
	opts Options
	fmap *dft.FeatureMap
	gen  int64
	// sv reads the data the segments cover: a pinned snapshot under a
	// SegmentedIndex, where appends race with queries, and the store
	// itself under an Index, which is immutable while queries run.
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

// probe plans and runs the index phase for one window-length piece:
// the id of every window within eps of the piece's SE-line is appended
// to sc.ids (a superset is fine, the verifier is exact) and the probes
// issued are counted into sc's tally.  All planning comes first, under
// the "plan" span and PlanTime — every frozen segment fills its table
// and engine.ChoosePath picks its path or honors force, then the delta
// is priced — and the chosen probes run after it, under "probe" and
// ProbeTime, each segment opening its own descent or scan span (an
// untraced context skips the spans without allocating).  The returned
// Explain has one SegmentPlan per probed segment; its Chosen and Plans
// are the largest frozen segment's (the delta's while nothing is
// frozen).
func (m *manifest) probe(ctx context.Context, piece vec.Vector, eps float64, costs CostBounds, force engine.PathKind, sc *queryScratch) (*engine.Explain, error) {
	line := seLineFor(m.fmap, piece)
	planStart := time.Now()
	_, planSpan := obs.StartSpan(ctx, "plan")
	eq := buildEngineQuery(line, eps, m.slack, costs)
	ex := &engine.Explain{
		Chosen:   engine.PathScan,
		Forced:   force != engine.PathAuto,
		Pieces:   1,
		Segments: make([]engine.SegmentPlan, 0, len(m.frozen)+1),
	}
	lead := -1 // window count of the segment that set ex.Chosen
	choose := func(sp engine.SegmentPlan, t planTable, leads bool) error {
		k, err := engine.ChoosePath(t[:], force)
		if leads || err != nil {
			ex.Plans = append(ex.Plans[:0], t[:]...)
		}
		if err != nil {
			return err
		}
		sp.Chosen, sp.Cost = t[k].Path, t[k].Cost
		if leads {
			lead, ex.Chosen = sp.Windows, sp.Chosen
		}
		ex.Segments = append(ex.Segments, sp)
		ex.EstCandidates += sp.Cost.Candidates
		return nil
	}
	var err error
	// sampled totals the candidates the frozen segments' samples predict
	// for their index probes: the query's measured selectivity, carried
	// over to the delta.
	var sampled, frozenWindows float64
	for i, sg := range m.frozen {
		t := sg.plan(eq, sc)
		if err = choose(engine.SegmentPlan{Seg: i, Kind: "frozen", Windows: sg.count}, t, sg.count > lead); err != nil {
			break
		}
		sampled += t[0].Cost.Candidates
		frozenWindows += float64(sg.count)
	}
	if err == nil && m.delta.n > 0 {
		// The delta has no directory, so its PathRTree is the tree path's
		// leaf test swept over every window (deltaSeg.filter), priced at
		// the frozen segments' selectivity (1 when there are none): never
		// dearer than emitting every window, which only a forced scan does
		// — Force: PathScan stays the scan oracle over all segments.
		sel := 1.0
		if frozenWindows > 0 {
			sel = sampled / frozenWindows
		}
		est := sel * float64(m.delta.n)
		err = choose(engine.SegmentPlan{Seg: -1, Kind: "delta", Windows: m.delta.n}, planTable{
			{Path: engine.PathRTree, Available: true, Cost: engine.Cost{Candidates: est, Units: est}},
			{Path: engine.PathScan, Available: true, Cost: engine.EstimateScanCost(m.delta.n)},
		}, lead < 0)
	}
	if err != nil {
		spanEndWithError(planSpan, err)
		return ex, fmt.Errorf("core: planning: %w", err)
	}
	planSpan.SetAttr("path", ex.Chosen.String())
	planSpan.End()
	ex.PlanTime = time.Since(planStart)

	probeStart := time.Now()
	probeCtx, probeSpan := obs.StartSpan(ctx, "probe")
	if probeSpan != nil {
		probeSpan.SetAttr("path", ex.Chosen.String())
	}
	idsBefore, nodesBefore := len(sc.ids), sc.tree.NodeAccesses
	for i := range ex.Segments {
		sp := &ex.Segments[i]
		first := len(sc.ids)
		switch {
		case sp.Seg >= 0:
			sg := m.frozen[sp.Seg]
			err = sg.candidates(probeCtx, sp.Chosen, eq, m.opts.Strategy, sc)
		case sp.Chosen == engine.PathScan:
			sc.ids = m.delta.appendIDs(sc.ids)
		default:
			err = m.delta.filter(probeCtx, eq, sc)
		}
		if err != nil {
			spanEndWithError(probeSpan, err)
			return ex, fmt.Errorf("core: %s probe: %w", sp.Chosen, err)
		}
		sp.Candidates = len(sc.ids) - first
		sc.paths[sp.Chosen]++
	}
	if probeSpan != nil {
		probeSpan.SetInt("candidates", int64(len(sc.ids)-idsBefore))
		probeSpan.SetInt("node_reads", int64(sc.tree.NodeAccesses-nodesBefore))
		probeSpan.End()
	}
	ex.ProbeTime = time.Since(probeStart)
	return ex, nil
}

// nearest streams windows to visit, each with the lower bound lb on its
// true distance to q, counting the index work into sc's tally: one
// stream per frozen segment, its points in non-decreasing feature-space
// distance to q's SE-line, then the delta's windows as one more, by the
// distances a frozen leaf computes for the same points.  Within a stream
// lb never decreases; visit returning false ends it and starts the next,
// so each stops at its first bound past the running kth best and a full
// delta costs a sweep of its feature planes, not a refinement per window.
func (m *manifest) nearest(q vec.Vector, sc *queryScratch, visit func(lb float64, seq, start int) bool) {
	line := seLineFor(m.fmap, q)
	for _, sg := range m.frozen {
		sg.flat.NearestToLineFunc(line, &sc.tree, func(id rtree.ItemDist) bool {
			seq, start := store.DecodeWindowID(id.Item.ID)
			return visit(id.Dist, seq, start)
		})
	}
	if m.delta.n > 0 {
		m.delta.stream(line, sc, func(lb float64, id int64) bool {
			seq, start := store.DecodeWindowID(id)
			return visit(lb, seq, start)
		})
	}
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
	var stages BuildStages // the delta's features were extracted as they arrived
	stages.Tile, stages.Emit = flat.BuildStages()
	recordBuildStages(stages)
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
	flat, _, err := bulkLoadRanges(context.Background(), snap, fmap, opts, ranges, runtime.GOMAXPROCS(0), nil)
	if err != nil {
		return nil, fmt.Errorf("core: segment merge: %w", err)
	}
	return &frozenSeg{flat: flat, ranges: ranges, count: count}, nil
}
