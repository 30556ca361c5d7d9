package core

import (
	"context"
	"fmt"
	"io"

	"scaleshift/internal/binio"
	"scaleshift/internal/geom"
	"scaleshift/internal/rtree"
	"scaleshift/internal/store"
	"scaleshift/internal/vec"
)

// The frozen query path.  An Index can hold its R*-tree in one of two
// representations: the mutable pointer tree (ix.tree, the insert form)
// or a frozen flat arena (ix.flat, the serving form — one contiguous
// pointer-free blob traversed with batched kernels; see
// rtree.FlatTree).  A bulk build and an artifact open produce the arena
// directly; Freeze converts an insert-built tree.  When ix.flat is
// non-nil every search routes through it; mutation thaws back to the
// pointer form first.  The two representations answer every query
// bit-identically, so freezing and thawing are invisible in result
// sets.

// searchTree is the read-only tree surface the query engine consumes;
// *rtree.Tree and *rtree.FlatTree both implement it.
type searchTree interface {
	Len() int
	Height() int
	NodeCount() int
	Bounds() (geom.Rect, bool)
	CostHints() rtree.CostHints
	WriteStats(io.Writer) error
	LineSearchIDs(ctx context.Context, l vec.Line, eps float64, strategy geom.Strategy, stats *rtree.SearchStats, ids []int64) ([]int64, error)
	SegmentSearchIDs(ctx context.Context, l vec.Line, tMin, tMax, eps float64, strategy geom.Strategy, stats *rtree.SearchStats, ids []int64) ([]int64, error)
	LineSearchRectsContext(ctx context.Context, l vec.Line, eps float64, strategy geom.Strategy, stats *rtree.SearchStats) ([]rtree.RectItem, error)
	SegmentSearchRectsContext(ctx context.Context, l vec.Line, tMin, tMax, eps float64, strategy geom.Strategy, stats *rtree.SearchStats) ([]rtree.RectItem, error)
	NearestToLineFunc(l vec.Line, stats *rtree.SearchStats, fn func(rtree.ItemDist) bool)
	NearestRectsToLineFunc(l vec.Line, stats *rtree.SearchStats, fn func(rtree.RectItemDist) bool)
}

// qtree returns the representation searches should use: the frozen
// arena when present, the pointer tree otherwise.
func (ix *Index) qtree() searchTree {
	if ix.flat != nil {
		return ix.flat
	}
	return ix.tree
}

// Freeze converts the index's tree to the flat serving representation.
// Subsequent searches run on the arena; the pointer tree is released.
// Freezing an already-frozen index — bulk-built, opened from an
// artifact — or a degraded one is a no-op.
func (ix *Index) Freeze() error {
	if ix.flat != nil || ix.degraded != "" {
		return nil
	}
	f, err := ix.tree.Freeze()
	if err != nil {
		return fmt.Errorf("core: freezing index: %w", err)
	}
	ix.flat = f
	emptyTree, err := rtree.New(f.Config())
	if err != nil {
		return err
	}
	ix.tree = emptyTree
	return nil
}

// Frozen reports whether searches are served from the flat arena.
func (ix *Index) Frozen() bool { return ix.flat != nil }

// Thaw reconstructs the mutable pointer tree from the frozen arena and
// drops the arena (closing its backing mapping, if any); on an unfrozen
// index it does nothing.  checkMutable calls it before any structural
// mutation; the pointer-versus-arena ablations call it to search a
// bulk-built tree through the pointer representation.
func (ix *Index) Thaw() error {
	if ix.flat == nil {
		return nil
	}
	t, err := ix.flat.Thaw()
	if err != nil {
		return fmt.Errorf("core: thawing frozen index: %w", err)
	}
	ix.tree = t
	ix.flat = nil
	ix.artifact = nil
	m := ix.mapping
	ix.mapping = nil
	return m.Close()
}

// VerifyArtifact runs the full integrity check a lazily-opened
// artifact deferred: every section CRC32C, the whole-file trailer, and
// the arena's structural validation.  LoadIndexFile opens in O(1) and
// trusts nothing beyond header plausibility; a serving layer should
// call this off the hot path (as ssserve does before swapping in a
// reloaded snapshot) — after it returns nil, every traversal of the
// mapped arena is guaranteed panic-free.  On an index whose bytes were
// already eagerly verified (stream LoadIndex, built in process) it
// returns nil immediately.
func (ix *Index) VerifyArtifact() error {
	if ix.artifact != nil {
		if err := binio.CheckFrame(ix.artifact, len(indexMagic), 2); err != nil {
			return fmt.Errorf("core: index artifact: %w", err)
		}
	}
	if ix.flat != nil {
		if err := ix.flat.Validate(); err != nil {
			return fmt.Errorf("core: index artifact: %w", err)
		}
	}
	return nil
}

// Close releases the memory mapping behind a file-opened index.  The
// index must not be searched afterwards — the arena's arrays alias the
// mapping.  Indexes without a mapping Close trivially; nil-safe via
// Mapping.Close.
func (ix *Index) Close() error {
	ix.flat = nil
	ix.artifact = nil
	m := ix.mapping
	ix.mapping = nil
	return m.Close()
}

// LoadIndexFile memory-maps the index artifact at path and opens it
// zero-copy: the flat arena is served straight out of the page cache,
// so open cost is O(1) in the index size — only the small header
// section is parsed and checksummed.  The deferred integrity check is
// VerifyArtifact; until it (or a full CRC pass) has run, a corrupted
// arena can surface as a traversal panic rather than wrong results.
// v2 artifacts (pointer-tree payload) are parsed eagerly as before —
// compatibility costs the O(n) parse, not correctness.
func LoadIndexFile(path string, st *store.Store) (*Index, error) {
	m, err := binio.OpenMapping(path)
	if err != nil {
		return nil, fmt.Errorf("core: opening index artifact: %w", err)
	}
	ix, err := loadIndexBytes(m.Data, st)
	if err != nil {
		m.Close()
		return nil, err
	}
	if ix.flat != nil {
		// Zero-copy open: the index aliases the mapping; keep it alive
		// and remember the full frame for VerifyArtifact.
		ix.mapping = m
		ix.artifact = m.Data
	} else {
		// v2 artifact: fully parsed into the heap; the mapping can go.
		m.Close()
	}
	return ix, nil
}

// OpenOrRebuildFile is OpenOrRebuild over a file path: it opens the
// artifact zero-copy via LoadIndexFile and degrades to the scan path
// instead of failing when the artifact is missing or damaged.  Like
// LoadIndexFile it defers full checksum verification; callers that
// must not serve unverified bytes should VerifyArtifact (and treat
// failure as a reload/rebuild trigger) before publishing the index.
func OpenOrRebuildFile(path string, st *store.Store, opts Options) (*Index, OpenStatus, error) {
	ix, err := LoadIndexFile(path, st)
	if err == nil {
		return ix, OpenStatus{}, nil
	}
	reason := fmt.Sprintf("index artifact rejected: %v", err)
	deg, derr := NewDegradedIndex(st, opts, reason)
	if derr != nil {
		return nil, OpenStatus{Degraded: true, Reason: reason, Err: err}, derr
	}
	return deg, OpenStatus{Degraded: true, Reason: reason, Err: err}, nil
}
