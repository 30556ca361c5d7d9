package store

import (
	"errors"
	"fmt"
)

// ErrStaleSnapshot tags reads that detect the store has mutated since
// the snapshot was taken — matchable with errors.Is so callers can
// re-snapshot instead of silently acting on a superseded view.
var ErrStaleSnapshot = errors.New("store: snapshot is stale")

// Generation returns the store's mutation counter.  Every
// AppendSequence and AppendValues increments it; a
// Snapshot remembers the generation it was taken at.
func (s *Store) Generation() int64 { return s.gen.Load() }

// AppendValues appends values to sequence seq through its tail,
// growing the sequence in place without moving any sample already
// written: the packed region is immutable and tail appends either
// write past every published snapshot's length or reallocate, leaving
// the old backing array intact for snapshot holders.  The prefix sums
// continue with their Kahan compensation, so WindowStats over the
// grown sequence is bit-identical to a sequence appended whole.
//
// AppendValues is a writer-side operation: concurrent appends must be
// serialized by the caller, and concurrent readers must hold a
// Snapshot (reads through the live Store race with the length update).
func (s *Store) AppendValues(seq int, values []float64) error {
	if seq < 0 || seq >= len(s.names) {
		return fmt.Errorf("store: sequence %d out of range [0, %d)", seq, len(s.names))
	}
	if len(values) == 0 {
		return nil
	}
	for len(s.tails) < len(s.names) {
		s.tails = append(s.tails, nil)
	}
	s.tails[seq] = append(s.tails[seq], values...)
	s.lengths[seq] += len(values)
	s.accumulate(seq, values)
	s.gen.Add(1)
	return nil
}

// Snapshot is an immutable view of the store at one generation: every
// read path (Window, WindowView, WindowStats, ScanWindows, the
// sequence accessors) answers over the pinned per-sequence lengths and
// never observes later appends.  Snapshots are cheap — slice headers
// and the length table are copied, the sample data is shared — and
// safe for concurrent use.
type Snapshot struct {
	view
	src *Store
	gen int64
}

// Snapshot captures the store's current contents.  It must be called
// from the writer (or otherwise serialized with mutations): it reads
// the growable slice headers that appends replace.
func (s *Store) Snapshot() *Snapshot {
	sn := &Snapshot{src: s, gen: s.gen.Load()}
	sn.names = s.names[:len(s.names):len(s.names)]
	sn.offsets = s.offsets[:len(s.offsets):len(s.offsets)]
	sn.lengths = append([]int(nil), s.lengths...)
	sn.data = s.data[:len(s.data):len(s.data)]
	if len(s.tails) > 0 {
		sn.tails = make([][]float64, len(s.tails))
		for i, t := range s.tails {
			sn.tails[i] = t[:len(t):len(t)]
		}
	}
	// Pin each sequence's prefix-sum headers at their current length;
	// later in-capacity appends write only beyond them.
	sn.stats = make([]seqStats, len(s.stats))
	for i := range s.stats {
		n := s.lengths[i] + 1
		sn.stats[i] = seqStats{
			psum:   s.stats[i].psum[:n:n],
			psumsq: s.stats[i].psumsq[:n:n],
		}
	}
	sn.peak, sn.bad = s.peak, s.bad
	return sn
}

// Generation returns the store generation the snapshot was taken at.
func (sn *Snapshot) Generation() int64 { return sn.gen }

// Stale reports whether the store has mutated since the snapshot was
// taken, as a typed error (errors.Is(err, ErrStaleSnapshot)) carrying
// both generations.  A stale snapshot is still safe to read — it just
// no longer reflects the newest samples.
func (sn *Snapshot) Stale() error {
	if cur := sn.src.Generation(); cur != sn.gen {
		return fmt.Errorf("%w: snapshot generation %d, store at %d", ErrStaleSnapshot, sn.gen, cur)
	}
	return nil
}
