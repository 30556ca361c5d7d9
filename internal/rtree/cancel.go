package rtree

import (
	"context"

	"scaleshift/internal/geom"
	"scaleshift/internal/vec"
)

// Context-aware search variants — the ones the query engine drives.
// Each polls ctx at every node visit (see Tree.descend), reports one
// descent to the obs registry, and on cancellation returns the
// candidates collected so far together with ctx.Err().

// LineSearchIDs is LineSearch with cooperative cancellation, appending
// only the ID of every hit to ids.
func (t *Tree) LineSearchIDs(ctx context.Context, l vec.Line, eps float64, strategy geom.Strategy, stats *SearchStats, ids []int64) ([]int64, error) {
	return t.searchIDs(ctx, &lineQuery{l: l, eps: eps, strategy: strategy}, stats, ids)
}

// SegmentSearchIDs is LineSearchIDs restricted to the parameter range
// [tMin, tMax].
func (t *Tree) SegmentSearchIDs(ctx context.Context, l vec.Line, tMin, tMax, eps float64, strategy geom.Strategy, stats *SearchStats, ids []int64) ([]int64, error) {
	return t.searchIDs(ctx, &lineQuery{l: l, segment: true, tMin: tMin, tMax: tMax, eps: eps, strategy: strategy}, stats, ids)
}

func (t *Tree) searchIDs(ctx context.Context, q *lineQuery, stats *SearchStats, ids []int64) ([]int64, error) {
	nb, lb := descentBefore(stats)
	defer recordDescent(stats, nb, lb)
	err := t.descend(ctx, t.root, q, stats, func(e *entry) { ids = append(ids, e.item.ID) })
	return ids, err
}

// LineSearchRectsContext is LineSearchRects with cooperative
// cancellation.
func (t *Tree) LineSearchRectsContext(ctx context.Context, l vec.Line, eps float64, strategy geom.Strategy, stats *SearchStats) ([]RectItem, error) {
	nb, lb := descentBefore(stats)
	defer recordDescent(stats, nb, lb)
	return t.searchRects(ctx, &lineQuery{l: l, eps: eps, strategy: strategy, rects: true}, stats)
}

// SegmentSearchRectsContext is SegmentSearchRects with cooperative
// cancellation.
func (t *Tree) SegmentSearchRectsContext(ctx context.Context, l vec.Line, tMin, tMax, eps float64, strategy geom.Strategy, stats *SearchStats) ([]RectItem, error) {
	nb, lb := descentBefore(stats)
	defer recordDescent(stats, nb, lb)
	return t.searchRects(ctx, &lineQuery{l: l, segment: true, tMin: tMin, tMax: tMax, eps: eps, strategy: strategy, rects: true}, stats)
}
