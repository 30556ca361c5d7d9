package core

import (
	"context"
	"math"

	"scaleshift/internal/engine"
	"scaleshift/internal/obs"
	"scaleshift/internal/rtree"
	"scaleshift/internal/seqscan"
	"scaleshift/internal/store"
)

// The three physical access paths of the query engine.  Each one is a
// candidate generator for the shared verifier: it must emit a superset
// of the true answer set (no false dismissals), and nothing else —
// exact checking, transform recovery, and cost bounds are the
// executor's job, which is what keeps the planner's choice invisible
// in the result set.
//
// Availability is structural, never per-query: the point-entry tree
// probe and the sub-trail probe are mutually exclusive (an index
// stores one leaf representation), the tree probes are both off on a
// degraded index (OpenOrRebuild kept the raw store but no tree), and
// the scan is always available.

// scanCheckInterval is how many emitted windows pass between ctx polls
// in the scan path: frequent enough that cancellation latency stays in
// the microseconds, rare enough to stay invisible in the emit loop.
const scanCheckInterval = 1024

// rtreePath is the paper's §6 index phase: descend into children whose
// ε-enlarged MBR is penetrated by the SE-line, collect leaf points
// within ε of the line.
type rtreePath struct{ ix *Index }

func (p *rtreePath) Kind() engine.PathKind { return engine.PathRTree }

func (p *rtreePath) Available() (bool, string) {
	if p.ix.degraded != "" {
		return false, "index degraded: " + p.ix.degraded
	}
	if p.ix.trailMode() {
		return false, "index stores sub-trail MBR entries (SubtrailLen >= 2)"
	}
	return true, ""
}

func (p *rtreePath) EstimateCost(q engine.Query) engine.Cost {
	h := p.ix.flat.CostHints()
	return engine.EstimateTreeCostSampled(h, q.Windows, q.Eps, sampleDists(nil, h, q))
}

func (p *rtreePath) Candidates(ctx context.Context, q engine.Query, ts *rtree.SearchStats, ids []int64) ([]int64, error) {
	descentCtx, span := obs.StartSpan(ctx, "rtree.descent")
	nodesBefore, leavesBefore := descentBaseline(ts)
	before := len(ids)
	var err error
	if q.Segment {
		ids, err = p.ix.flat.SegmentSearchIDs(descentCtx, q.Line, q.TMin, q.TMax, q.Eps, p.ix.opts.Strategy, ts, ids)
	} else {
		ids, err = p.ix.flat.LineSearchIDs(descentCtx, q.Line, q.Eps, p.ix.opts.Strategy, ts, ids)
	}
	endDescentSpan(span, ts, nodesBefore, leavesBefore, len(ids)-before, err)
	return ids, err
}

// trailPath is the sub-trail MBR variant (ST-index style): leaf
// entries are MBRs over runs of consecutive windows; each penetrated
// entry expands into the windows it covers.
type trailPath struct{ ix *Index }

func (p *trailPath) Kind() engine.PathKind { return engine.PathTrail }

func (p *trailPath) Available() (bool, string) {
	if p.ix.degraded != "" {
		return false, "index degraded: " + p.ix.degraded
	}
	if !p.ix.trailMode() {
		return false, "index stores per-window point entries (SubtrailLen < 2)"
	}
	return true, ""
}

func (p *trailPath) EstimateCost(q engine.Query) engine.Cost {
	h := p.ix.flat.CostHints()
	return engine.EstimateTrailCostSampled(h, q.Windows, p.ix.opts.SubtrailLen, q.Eps, sampleDists(nil, h, q))
}

func (p *trailPath) Candidates(ctx context.Context, q engine.Query, ts *rtree.SearchStats, ids []int64) ([]int64, error) {
	descentCtx, span := obs.StartSpan(ctx, "rtree.descent")
	nodesBefore, leavesBefore := descentBaseline(ts)
	var cands []rtree.RectItem
	var err error
	if q.Segment {
		cands, err = p.ix.flat.SegmentSearchRectsContext(descentCtx, q.Line, q.TMin, q.TMax, q.Eps, p.ix.opts.Strategy, ts)
	} else {
		cands, err = p.ix.flat.LineSearchRectsContext(descentCtx, q.Line, q.Eps, p.ix.opts.Strategy, ts)
	}
	endDescentSpan(span, ts, nodesBefore, leavesBefore, len(cands), err)
	if err != nil {
		return ids, err
	}
	for _, cand := range cands {
		if err := ctx.Err(); err != nil {
			return ids, err
		}
		seq, first := store.DecodeWindowID(cand.ID)
		for i, count := 0, p.ix.trailWindows(seq, first); i < count; i++ {
			ids = append(ids, store.EncodeWindowID(seq, first+i))
		}
	}
	return ids, nil
}

// scanPath is experiment set 1 adapted to the engine: every indexed
// window is a candidate, in storage order, and the shared verifier
// does all the filtering.  It reads no index pages and beats the tree
// probe when the store is small or ε is so large that the tree would
// visit everything anyway.  It is also the degradation fallback: a
// degraded index answers every query through this path.
type scanPath struct{ ix *Index }

func (p *scanPath) Kind() engine.PathKind { return engine.PathScan }

func (p *scanPath) Available() (bool, string) { return true, "" }

func (p *scanPath) EstimateCost(q engine.Query) engine.Cost {
	return engine.EstimateScanCost(q.Windows)
}

func (p *scanPath) Candidates(ctx context.Context, q engine.Query, ts *rtree.SearchStats, ids []int64) ([]int64, error) {
	_, span := obs.StartSpan(ctx, "scan")
	before := len(ids)
	seqscan.Addresses(p.ix.st, p.ix.opts.WindowLen, p.ix.indexed, func(seq, start int) bool {
		if (len(ids)-before)%scanCheckInterval == 0 && ctx.Err() != nil {
			return false
		}
		ids = append(ids, store.EncodeWindowID(seq, start))
		return true
	})
	err := ctx.Err()
	if span != nil {
		span.SetBool("degraded", p.ix.degraded != "")
		span.SetInt("emitted", int64(len(ids)-before))
		spanEndWithError(span, err)
	}
	return ids, err
}

// sampleDists measures the tree's maintained feature sample against
// the query's SE-line (restricted to the scale segment when cost
// bounds apply) into dst[:0], feeding the planner's empirical
// selectivity estimate.
func sampleDists(dst []float64, h rtree.CostHints, q engine.Query) []float64 {
	tMin, tMax := math.Inf(-1), math.Inf(1)
	if q.Segment {
		tMin, tMax = q.TMin, q.TMax
	}
	return engine.SegmentDistances(dst, h.Sample, q.Line, tMin, tMax)
}

// newPlanner registers the paths in deterministic preference order
// (index probes before the scan, so exact cost ties keep the paper's
// behavior).
func (ix *Index) newPlanner() *engine.Planner {
	return engine.NewPlanner(&rtreePath{ix}, &trailPath{ix}, &scanPath{ix})
}
