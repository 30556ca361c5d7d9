package core

import (
	"context"
	"fmt"

	"scaleshift/internal/binio"
	"scaleshift/internal/store"
)

// The one write path.  Every search and shape accessor reads ix.man: the
// frozen arena ix.flat — one contiguous pointer-free blob traversed with
// batched kernels (see rtree.FlatTree) — as its one frozen segment, and
// the delta beside it.  An index is born with the empty arena; a build
// and an artifact open install theirs.  The mutators (IndexSequence,
// AppendAndIndex, ExtendAndIndex) append feature points to the delta
// through the writer a SegmentedIndex appends through, so the next Exec
// already answers with them; Freeze folds the delta into a new arena,
// and UnindexSequence is that fold without the sequence.

// Freeze folds the delta into the arena: one bulk build from the store
// over every indexed window (a direction-box directory, whatever the old
// arena's was), releasing the old arena and closing its backing mapping,
// if any.  Queries do not need it — they read the delta — it buys back
// the directory's pruning for the windows added since the last build.
// With nothing pending — after any Build* or an artifact open — it is a
// no-op.
func (ix *Index) Freeze() error {
	if ix.delta.n == 0 {
		return nil
	}
	return ix.rebuild(context.Background(), ix.next, 0, nil)
}

// VerifyArtifact runs the full integrity check a lazily-opened
// artifact deferred: every section CRC32C, the whole-file trailer, and
// the arena's structural validation.  LoadIndexFile opens in O(1) and
// trusts nothing beyond header plausibility; a serving layer should
// call this off the hot path (as ssserve does before swapping in a
// reloaded snapshot) — after it returns nil, every traversal of the
// mapped arena is guaranteed panic-free.  On an index that was built in
// process or eagerly verified (stream LoadIndex) only the structural
// pass runs, and passes.
func (ix *Index) VerifyArtifact() error {
	if ix.artifact != nil {
		if err := binio.CheckFrame(ix.artifact, len(indexMagic), 2); err != nil {
			return fmt.Errorf("core: index artifact: %w", err)
		}
	}
	if err := ix.flat.Validate(); err != nil {
		return fmt.Errorf("core: index artifact: %w", err)
	}
	return nil
}

// Close releases the memory mapping behind a file-opened index.  The
// index must not be searched afterwards — the arena's arrays alias the
// mapping.  Indexes without a mapping Close trivially; nil-safe via
// Mapping.Close.
func (ix *Index) Close() error {
	ix.flat, ix.man = nil, nil
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
// The index's arrays ARE the mapped bytes, so the mapping lives as long
// as the index, and the deferred check has something to check.  An
// artifact in any other layout (an older arena version, an MBR
// directory) is refused with ErrVersion; OpenOrRebuildFile rebuilds it.
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
	ix.mapping = m
	ix.artifact = m.Data
	return ix, nil
}
