package core

import (
	"fmt"
	"math"

	"scaleshift/internal/dft"
	"scaleshift/internal/store"
	"scaleshift/internal/vec"
)

// writer is the one way an index changes: windows the store gains are
// extracted forward, sequence by sequence, and absorbed into a delta —
// searchable at once, with the test a frozen leaf applies — until a fold
// re-extracts them into a frozen segment (mergeSegments).
// The Index around it adds what concurrent readers need — the lock, the
// manifest cell, store snapshots, a compactor over several segments.
type writer struct {
	opts Options
	st   *store.Store
	fmap *dft.FeatureMap

	delta   deltaSeg
	streams map[int]*featureStream // per sequence, positioned where its extraction stopped
	next    []int                  // per-sequence next window start to extract
	// maxAbs is the largest feature magnitude the index holds or has
	// held: the frozen segments' bounds and every absorbed point (see
	// numericSlack).
	maxAbs float64
}

func newWriter(st *store.Store, opts Options, fmap *dft.FeatureMap) writer {
	return writer{
		opts:    opts,
		st:      st,
		fmap:    fmap,
		delta:   deltaSeg{dim: fmap.Dim()},
		streams: map[int]*featureStream{},
		next:    make([]int, st.NumSequences()),
	}
}

// extract runs feature extraction forward for sequence seq, from the
// last extracted window to the end of the sequence, on the sequence's
// own stream: an append continues it from where the last one left it,
// at O(f_c) per new window, and the features are the ones a bulk build
// over the grown sequence computes (featureStream).
func (w *writer) extract(seq int) error {
	for len(w.next) <= seq {
		w.next = append(w.next, 0)
	}
	lastStart := w.st.SequenceLen(seq) - w.opts.WindowLen
	if w.next[seq] > lastStart {
		return nil
	}
	if _, err := w.st.Domain(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	fs := w.streams[seq]
	if fs == nil {
		fs = newFeatureStream(w.fmap, w.opts)
		w.streams[seq] = fs
	}
	if err := fs.run(w.st, seq, w.next[seq], lastStart, func(start int, feat vec.Vector) error {
		w.absorb(seq, start, feat)
		return nil
	}); err != nil {
		return fmt.Errorf("core: incremental extraction: %w", err)
	}
	return nil
}

// absorb appends window (seq, start) and its feature point to the delta.
func (w *writer) absorb(seq, start int, feat vec.Vector) {
	w.delta.append(store.EncodeWindowID(seq, start), feat)
	for _, v := range feat {
		if a := math.Abs(v); a > w.maxAbs {
			w.maxAbs = a
		}
	}
	w.next[seq] = start + 1
}

// manifest assembles the immutable view queries read: the given frozen
// segments, the delta pinned by length, the data read through sv.
func (w *writer) manifest(gen int64, sv storeView, frozen []*frozenSeg) *manifest {
	peak, _ := w.st.Domain() // the values' magnitude, for featureNoise
	return &manifest{
		opts:   w.opts,
		fmap:   w.fmap,
		gen:    gen,
		sv:     sv,
		frozen: frozen,
		delta:  w.delta.prefix(w.delta.n),
		slack:  numericSlack(w.maxAbs, w.fmap.Dim()) + featureNoise(peak, w.opts.WindowLen, w.fmap.Dim()),
	}
}
