package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"scaleshift/internal/geom"
)

func maxAbsRect(r geom.Rect) float64 {
	var m float64
	for i := range r.L {
		m = math.Max(m, math.Max(math.Abs(r.L[i]), math.Abs(r.H[i])))
	}
	return m
}

// manifestLocked assembles the current immutable view: frozen segment
// list pinned by value, delta pinned by length, store pinned via
// Snapshot.
func (ix *Index) manifestLocked() *manifest {
	return ix.manifest(ix.gen, ix.st.Snapshot(), append([]*frozenSeg(nil), ix.frozen...))
}

func (ix *Index) publishLocked() {
	ix.gen++
	ix.cell.Swap(ix.manifestLocked())
}

func (ix *Index) maybeKickLocked() {
	if ix.compactorOn && ix.CompactThreshold > 0 && ix.delta.n >= ix.CompactThreshold {
		select {
		case ix.kick <- struct{}{}:
		default:
		}
	}
}

// StartCompactor launches the background compaction goroutine; it
// wakes whenever the delta crosses CompactThreshold and exits on
// Close.  Idempotent.
func (ix *Index) StartCompactor() {
	ix.mu.Lock()
	if ix.compactorOn {
		ix.mu.Unlock()
		return
	}
	ix.compactorOn = true
	ix.mu.Unlock()
	ix.wg.Add(1)
	go func() {
		defer ix.wg.Done()
		for {
			select {
			case <-ix.done:
				return
			case <-ix.kick:
				// Errors are recorded in lastErr and surfaced by Backlog;
				// the delta keeps serving queries exactly in the meantime.
				_ = ix.Compact()
			}
		}
	}()
}

// SetCompactHook installs a hook that runs between a compaction's
// decide and build phases; a non-nil error aborts that compaction
// (recorded in Backlog, delta left intact).  Chaos harnesses use it to
// prove queries and appends survive compaction failure.
func (ix *Index) SetCompactHook(fn func() error) {
	ix.mu.Lock()
	ix.compactHook = fn
	ix.mu.Unlock()
}

// mergeRunLocked decides how far back the size-tiered merge reaches:
// it returns the frozen-list index k such that segments [k:] merge
// with the folding delta (k == len(frozen) is a pure fold).  Only a
// SUFFIX of the list may merge — frozen segments tile each sequence's
// windows contiguously in list order, so an adjacent run's coverage is
// itself contiguous and the invariant survives the merge.
//
// The tiered walk absorbs the next-older segment while it is at most
// MergeRatio times the run gathered so far — the logarithmic-method
// schedule under which a window is rewritten O(log N) times over its
// lifetime, instead of on every MaxFrozen-th compaction.  MaxFrozen
// remains a hard backstop: if the tiered choice would still leave too
// many segments, everything merges into one.
func (ix *Index) mergeRunLocked(cut int) int {
	k := len(ix.frozen)
	run := cut
	if ix.MergeRatio > 0 {
		for k > 0 && run > 0 && float64(ix.frozen[k-1].count) <= ix.MergeRatio*float64(run) {
			run += ix.frozen[k-1].count
			k--
		}
	}
	resulting := k
	if run > 0 {
		resulting++
	}
	if ix.MaxFrozen > 0 && resulting > ix.MaxFrozen {
		return 0
	}
	return k
}

// Compact folds the current delta into a new frozen segment, absorbing
// an adjacent run of older segments chosen by the size-tiered policy
// (see mergeRunLocked).  The expensive build runs without holding the
// writer lock, so appends and queries proceed throughout; only the
// final manifest swap holds the lock, and that pause is recorded (see
// Backlog).  Safe to call directly (tests, shutdown flush) even while
// the background compactor runs.
func (ix *Index) Compact() error { return ix.compact(false) }

// Freeze merges every frozen segment and the delta into one frozen
// segment: the one Build makes over the same windows, byte for byte,
// since mergeSegments re-extracts them from the store.  Queries do not
// need it — they read the delta — it buys back the directory's pruning
// for the windows added since the last build.  With one segment and
// nothing pending — after any Build* or a one-segment artifact open —
// it is a no-op.
func (ix *Index) Freeze() error { return ix.compact(true) }

// compact is Compact, or with full Freeze: the merge run is then every
// frozen segment.
func (ix *Index) compact(full bool) error {
	ix.compactMu.Lock()
	defer ix.compactMu.Unlock()

	// Phase 1 (brief, locked): decide what to compact and pin it.
	ix.mu.Lock()
	cut := ix.delta.n
	k := 0
	if !full {
		k = ix.mergeRunLocked(cut)
	}
	if cut == 0 && (k == len(ix.frozen) || full && len(ix.frozen) == 1) {
		ix.mu.Unlock()
		return nil
	}
	pinned := ix.delta.prefix(cut)
	keep := append([]*frozenSeg(nil), ix.frozen[:k]...)
	run := append([]*frozenSeg(nil), ix.frozen[k:]...)
	snap, opts := ix.st.Snapshot(), ix.opts
	hook := ix.compactHook
	ix.mu.Unlock()

	fail := func(err error) error {
		ix.mu.Lock()
		ix.lastErr = err
		ix.mu.Unlock()
		return err
	}
	if hook != nil {
		if err := hook(); err != nil {
			return fail(fmt.Errorf("core: compaction aborted: %w", err))
		}
	}

	// Phase 2 (slow, unlocked): build the replacement segment.
	// Appends landing during this phase grow the delta past cut and
	// survive as the post-compaction delta.
	buildStart := time.Now()
	seg, err := mergeSegments(snap, ix.fmap, opts, run, pinned)
	if err != nil {
		return fail(err)
	}
	build := time.Since(buildStart)
	newFrozen := append(keep, seg)

	// Phase 3 (brief, locked): swap the manifest.  The lock-held time
	// here is the only moment ingest stalls on compaction; the clock
	// starts once the lock is held, so the wait for it is not counted.
	ix.mu.Lock()
	start := time.Now()
	ix.frozen = newFrozen
	ix.delta = ix.delta.suffix(cut)
	ix.publishLocked()
	ix.compactions++
	ix.lastErr = nil
	pause := time.Since(start)
	if len(ix.pauses) >= 1024 {
		copy(ix.pauses, ix.pauses[1:])
		ix.pauses = ix.pauses[:len(ix.pauses)-1]
	}
	ix.pauses = append(ix.pauses, pause)
	ix.mu.Unlock()
	recordCompaction(build, pause)
	return nil
}

// Backlog reports the compaction state for readiness endpoints and
// tests.
type Backlog struct {
	// Generation is the published manifest generation.
	Generation int64
	// Frozen and FrozenWindows size the immutable side; DeltaWindows
	// is the mutable backlog awaiting compaction.
	Frozen        int
	FrozenWindows int
	DeltaWindows  int
	// Compactions counts completed compactions; the pause fields
	// distribute the manifest-swap stall (the lock-held phase 3) over the
	// last 1 024 compactions.
	Compactions     int
	CompactPauseMax time.Duration
	CompactPauseP99 time.Duration
	CompactPauseP50 time.Duration
	// LastCompactErr is the most recent compaction failure, empty
	// after any success.
	LastCompactErr string
}

// Backlog returns current ingest/compaction gauges.
func (ix *Index) Backlog() Backlog {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	b := Backlog{
		Generation:   ix.gen,
		Frozen:       len(ix.frozen),
		DeltaWindows: ix.delta.n,
		Compactions:  ix.compactions,
	}
	for _, sg := range ix.frozen {
		b.FrozenWindows += sg.count
	}
	if ix.lastErr != nil {
		b.LastCompactErr = ix.lastErr.Error()
	}
	if len(ix.pauses) > 0 {
		sorted := append([]time.Duration(nil), ix.pauses...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		b.CompactPauseMax = sorted[len(sorted)-1]
		b.CompactPauseP99 = sorted[int(0.99*float64(len(sorted)-1))]
		b.CompactPauseP50 = sorted[(len(sorted)-1)/2]
	}
	return b
}

// Close stops the background compactor and releases the artifact
// mappings behind the frozen segments; the index must not be searched
// afterwards, since a mapped arena's arrays alias them.  Idempotent and safe to call concurrently:
// the entire teardown runs once, and every caller returns only after
// it has completed (a hot-reload drain goroutine and a shutdown path
// may both close the same superseded index).
func (ix *Index) Close() error {
	ix.closeOnce.Do(func() {
		close(ix.done)
		ix.wg.Wait()
		for _, m := range ix.mappings {
			if err := m.Close(); err != nil && ix.closeErr == nil {
				ix.closeErr = err
			}
		}
	})
	return ix.closeErr
}
