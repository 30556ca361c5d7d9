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
// bulk-loads them into a frozen segment (bulkLoadRanges, buildSegment).
// The Index around it adds what concurrent readers need — the lock, the
// manifest cell, store snapshots, a compactor over several segments.
type writer struct {
	opts Options
	st   *store.Store
	fmap *dft.FeatureMap

	delta   deltaSeg
	sliders map[int]*seqSlider
	next    []int // per-sequence next window start to extract
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
		sliders: map[int]*seqSlider{},
		next:    make([]int, st.NumSequences()),
	}
}

// seqSlider is one sequence's incremental extraction state: the
// sliding transformer and the window start it is currently positioned
// on.
type seqSlider struct {
	sl  *dft.SlidingTransformer
	pos int
}

// extract runs feature extraction forward for sequence seq, from the
// last extracted window to the end of the sequence.  The sliding DFT
// continues from its previous position when possible — O(f_c) per new
// window — and Repositions at every featureCheckpoint boundary, exactly
// where a from-scratch extraction restarts, so the features absorbed
// into the delta are bit-identical to what a bulk build would compute
// over the grown sequence.
func (w *writer) extract(seq int) error {
	for len(w.next) <= seq {
		w.next = append(w.next, 0)
	}
	n := w.opts.WindowLen
	lastStart := w.st.SequenceLen(seq) - n
	if w.next[seq] > lastStart {
		return nil
	}
	if _, err := w.st.Domain(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	feat := make(vec.Vector, w.fmap.Dim())
	if w.opts.Reduction != ReductionDFT {
		win := make(vec.Vector, n)
		se := make(vec.Vector, n)
		for st := w.next[seq]; st <= lastStart; st++ {
			if err := w.st.Window(seq, st, n, win, nil); err != nil {
				return fmt.Errorf("core: incremental extraction: %w", err)
			}
			vec.SETransformInPlace(se, win)
			w.fmap.TransformInto(feat, se)
			w.absorb(seq, st, feat)
		}
		return nil
	}
	sl := w.sliders[seq]
	buf := make(vec.Vector, n)
	for st := w.next[seq]; st <= lastStart; st++ {
		switch {
		case st%featureCheckpoint == 0:
			// Checkpoint boundary: restart the recurrence from scratch,
			// as extractSegment does for a fresh segment.
			if err := w.st.Window(seq, st, n, buf, nil); err != nil {
				return fmt.Errorf("core: incremental extraction: %w", err)
			}
			if sl == nil {
				t, err := dft.NewSlidingTransformer(w.fmap, buf)
				if err != nil {
					return err
				}
				sl = &seqSlider{sl: t}
				w.sliders[seq] = sl
			} else if err := sl.sl.Reposition(buf); err != nil {
				return err
			}
			sl.pos = st
		case sl != nil && sl.pos == st-1:
			// The common streaming case: one new sample, one O(f_c) slide.
			if err := w.st.Window(seq, st+n-1, 1, buf[:1], nil); err != nil {
				return fmt.Errorf("core: incremental extraction: %w", err)
			}
			sl.sl.Slide(buf[0])
			sl.pos = st
		default:
			// Bootstrap mid-segment (first append after wrapping a loaded
			// index): replay from the checkpoint so the slider state is
			// bit-identical to a from-scratch extraction reaching st.
			cp := st - st%featureCheckpoint
			span := st - cp + n
			raw := make(vec.Vector, span)
			if err := w.st.Window(seq, cp, span, raw, nil); err != nil {
				return fmt.Errorf("core: incremental extraction: %w", err)
			}
			if sl == nil {
				t, err := dft.NewSlidingTransformer(w.fmap, raw[:n])
				if err != nil {
					return err
				}
				sl = &seqSlider{sl: t}
				w.sliders[seq] = sl
			} else if err := sl.sl.Reposition(raw[:n]); err != nil {
				return err
			}
			for s := cp + 1; s <= st; s++ {
				sl.sl.Slide(raw[s-cp+n-1])
			}
			sl.pos = st
		}
		sl.sl.Feature(feat)
		w.absorb(seq, st, feat)
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
