// Package store implements the paged time-sequence storage that the
// paper's cost model measures (§7): sequences of float64 samples packed
// contiguously into 4 KB pages, with per-query page-access accounting.
//
// The paper's sequential-scan baseline reads the entire database —
// 650 000 values × 8 bytes / 4 KB ≈ 1300 pages per query — while the
// tree-based search touches only the index pages plus the data pages of
// candidate subsequences fetched during post-processing.  PageCounter
// reproduces both numbers.
//
// A store is append-only in two senses: AppendSequence adds whole new
// sequences to the packed region, and AppendValues grows an existing
// sequence through a per-sequence tail that never moves already-written
// samples.  Readers that must not observe concurrent growth take a
// Snapshot (see append.go), which pins a consistent prefix of every
// sequence.
package store

import (
	"fmt"
	"math"
	"sync/atomic"

	"scaleshift/internal/vec"
)

// PageSize is the disk page size of the paper's experiments (4 KB).
const PageSize = 4096

// ValuesPerPage is how many float64 samples fit in one page.
const ValuesPerPage = PageSize / 8

// PageCounter records page accesses for one query.  Raw counts every
// page touch; Distinct() reports unique pages, modelling a per-query
// buffer pool that never evicts (each page is fetched from disk at
// most once per query).  When Pool is set, every touch is also played
// through the shared LRU buffer pool and Misses counts the touches
// that had to go to disk under that bounded-memory model.
//
// The process-wide scaleshift_store_page_touches_total metric is fed
// once per query, not once per touch: touches accumulate in the counter
// and are published by Distinct (the query's final read) or Reset, and
// Merge hands a worker's unpublished touches to the query's counter.
type PageCounter struct {
	Raw    int
	Misses int
	Pool   *BufferPool
	seen   map[int]struct{}
	// last is the page of the previous touch, valid while seen is
	// non-nil.  Verification walks windows in storage order, so most
	// touches repeat it and skip the set insert.
	last int
	// unpublished counts the touches not yet added to the metric.
	unpublished int
}

// Touch records an access to the given page number.
func (c *PageCounter) Touch(page int) {
	c.Raw++
	c.unpublished++
	if c.Pool != nil && !c.Pool.Access(page) {
		c.Misses++
		recordPoolMiss()
	}
	if c.seen == nil {
		c.seen = make(map[int]struct{})
	} else if page == c.last {
		return
	}
	c.seen[page] = struct{}{}
	c.last = page
}

// Distinct returns the number of unique pages touched.
func (c *PageCounter) Distinct() int {
	c.publish()
	return len(c.seen)
}

// publish adds the touches made since the last call to the metric.
func (c *PageCounter) publish() {
	recordTouches(c.unpublished)
	c.unpublished = 0
}

// Merge folds o's accesses into c as if c had performed them: raw
// touches and misses add, distinct pages union.  It combines the
// private counters of a parallel verification pass into the query's
// counter; o must not be attached to a Pool (workers run pool-less).
func (c *PageCounter) Merge(o *PageCounter) {
	c.Raw += o.Raw
	c.Misses += o.Misses
	c.unpublished += o.unpublished
	o.unpublished = 0
	if len(o.seen) == 0 {
		return
	}
	if c.seen == nil {
		c.seen = make(map[int]struct{}, len(o.seen))
		c.last = o.last
	}
	for p := range o.seen {
		c.seen[p] = struct{}{}
	}
}

// Reset clears the counter for the next query.  The attached Pool (if
// any) keeps its resident set, modelling a cache that stays warm
// across queries.
func (c *PageCounter) Reset() {
	c.publish()
	c.Raw = 0
	c.Misses = 0
	c.seen = nil
}

// view is the read-side state shared by Store and Snapshot: the packed
// region plus per-sequence growable tails.  Every read path (Window,
// WindowView, WindowStats, ScanWindows) is defined on view, so a
// Snapshot answers them identically over its pinned prefix.
type view struct {
	names   []string
	offsets []int // packed-region index of each sequence's first value
	lengths []int // total samples per sequence (packed + tail)
	data    []float64
	// tails holds the growable suffix of each sequence.  Samples
	// already written are never moved: in-capacity appends write only
	// beyond every published snapshot's length, and a reallocating
	// append leaves the old backing array intact for snapshot holders.
	tails [][]float64
	// stats holds the per-sequence running prefix sums of Σv and Σv²
	// that back O(1) WindowStats lookups during candidate verification.
	stats []seqStats
	// peak is the largest magnitude stored, and bad the first value
	// stored outside the numeric domain (nil while there is none): both
	// kept by accumulate as values arrive.
	peak float64
	bad  *DomainError
}

// seqStats carries one sequence's prefix sums: psum[i] (psumsq[i]) is
// the Kahan-compensated sum of the first i samples (their squares).
// The running compensations csum/csumsq are kept so appends continue
// the summation exactly as if the sequence had been appended whole —
// prefix values are therefore independent of the append schedule.
type seqStats struct {
	psum, psumsq []float64
	csum, csumsq float64
}

// accumulate extends the prefix sums with values using Kahan
// compensated summation, which keeps the absolute error of every
// prefix within a small constant multiple of ε_machine times the
// magnitude of the terms — independent of the sequence length — so
// differencing two prefixes stays accurate for O(1) window statistics.
// In the same pass it finds the largest magnitude among values and the
// position of the first outside the numeric domain (bad, -1 for none).
func (st *seqStats) accumulate(values []float64) (peak float64, bad int) {
	s := st.psum[len(st.psum)-1]
	q := st.psumsq[len(st.psumsq)-1]
	cs, cq := st.csum, st.csumsq
	bad = -1
	for i, v := range values {
		peak = max(peak, math.Abs(v))
		if bad < 0 && !InDomain(v) {
			bad = i
		}

		y := v - cs
		t := s + y
		cs = (t - s) - y
		s = t
		st.psum = append(st.psum, s)

		v2 := v * v
		y = v2 - cq
		t = q + y
		cq = (t - q) - y
		q = t
		st.psumsq = append(st.psumsq, q)
	}
	st.csum, st.csumsq = cs, cq
	return peak, bad
}

// newSeqStats returns empty prefix sums with room for n samples.
func newSeqStats(n int) seqStats {
	return seqStats{
		psum:   append(make([]float64, 0, n+1), 0),
		psumsq: append(make([]float64, 0, n+1), 0),
	}
}

// Store holds a collection of named time sequences packed back to back
// in page-granular storage.  A Store is safe for concurrent reads when
// no append is running; under concurrent appends readers must go
// through Snapshot.
type Store struct {
	view
	// gen counts mutations; Snapshot captures it so readers can detect
	// post-snapshot staleness (ErrStaleSnapshot).
	gen atomic.Int64
}

// New returns an empty store.
func New() *Store { return &Store{} }

// AppendSequence adds a sequence and returns its id.  The values are
// copied.
func (s *Store) AppendSequence(name string, values []float64) int {
	id := len(s.names)
	s.names = append(s.names, name)
	s.offsets = append(s.offsets, len(s.data))
	s.lengths = append(s.lengths, len(values))
	s.data = append(s.data, values...)
	s.tails = append(s.tails, nil)
	s.stats = append(s.stats, newSeqStats(len(values)))
	s.accumulate(id, values)
	s.gen.Add(1)
	return id
}

// ExtendSequence appends values to an existing sequence's packed
// region.  Only the most recently added sequence can grow this way,
// because packed sequences are contiguous — extending an interior
// sequence would shift its successors.  Once a sequence has grown a
// tail via AppendValues its packed region is frozen and ExtendSequence
// refuses (the new samples would land before the tail).
func (s *Store) ExtendSequence(seq int, values []float64) error {
	if seq < 0 || seq >= len(s.names) {
		return fmt.Errorf("store: sequence %d out of range [0, %d)", seq, len(s.names))
	}
	if seq != len(s.names)-1 {
		return fmt.Errorf("store: only the last sequence (%d) can be extended, not %d",
			len(s.names)-1, seq)
	}
	if s.tailLen(seq) > 0 {
		return fmt.Errorf("store: sequence %d already has a tail; use AppendValues", seq)
	}
	s.data = append(s.data, values...)
	s.lengths[seq] += len(values)
	s.accumulate(seq, values)
	s.gen.Add(1)
	return nil
}

// NumSequences returns the number of stored sequences.
func (v *view) NumSequences() int { return len(v.names) }

// TotalValues returns the total number of samples stored.
func (v *view) TotalValues() int {
	total := len(v.data)
	for _, t := range v.tails {
		total += len(t)
	}
	return total
}

// PageCount returns the number of pages the data occupies: the packed
// region plus each sequence's tail, which starts on a page of its own.
func (v *view) PageCount() int {
	pages := (len(v.data) + ValuesPerPage - 1) / ValuesPerPage
	for _, t := range v.tails {
		pages += (len(t) + ValuesPerPage - 1) / ValuesPerPage
	}
	return pages
}

// SequenceName returns the name of sequence seq.
func (v *view) SequenceName(seq int) string { return v.names[seq] }

// SequenceLen returns the number of samples in sequence seq.
func (v *view) SequenceLen(seq int) int { return v.lengths[seq] }

// tailLen returns the length of sequence seq's tail (0 when it has
// none).
func (v *view) tailLen(seq int) int {
	if seq < len(v.tails) {
		return len(v.tails[seq])
	}
	return 0
}

// packedLen returns the length of sequence seq's immutable packed
// region.
func (v *view) packedLen(seq int) int { return v.lengths[seq] - v.tailLen(seq) }

// checkWindow validates a window address against the sequence's total
// length.
func (v *view) checkWindow(seq, start, n int) error {
	if seq < 0 || seq >= len(v.names) {
		return fmt.Errorf("store: sequence %d out of range [0, %d)", seq, len(v.names))
	}
	if n < 0 || start < 0 || start+n > v.lengths[seq] {
		return fmt.Errorf("store: window [%d, %d) outside sequence %d of length %d",
			start, start+n, seq, v.lengths[seq])
	}
	return nil
}

// chargeWindow touches the pages covering n samples from global index
// g of the packed region.
func chargeWindow(pc *PageCounter, g, n int) {
	if pc == nil || n <= 0 {
		return
	}
	for p := g / ValuesPerPage; p <= (g+n-1)/ValuesPerPage; p++ {
		pc.Touch(p)
	}
}

// tailPageStride bounds one sequence's tail to 2^20 pages (4 GiB) so
// tail page ids of different sequences never collide.  Tail pages live
// in a negative id space, disjoint from the packed region's pages.
const tailPageStride = 1 << 20

// tailPage returns the page id of local page p of sequence seq's tail.
func tailPage(seq, p int) int { return -(1 + seq*tailPageStride + p) }

// chargeTail touches the tail pages covering n samples from tail-local
// index lo of sequence seq.
func chargeTail(pc *PageCounter, seq, lo, n int) {
	if pc == nil || n <= 0 {
		return
	}
	for p := lo / ValuesPerPage; p <= (lo+n-1)/ValuesPerPage; p++ {
		pc.Touch(tailPage(seq, p))
	}
}

// Window copies the n samples of sequence seq starting at start into
// dst (which must have length n), charging the covering pages to pc
// (which may be nil).  It returns an error when the window falls
// outside the sequence.
func (v *view) Window(seq, start, n int, dst vec.Vector, pc *PageCounter) error {
	if err := v.checkWindow(seq, start, n); err != nil {
		return err
	}
	if len(dst) != n {
		return fmt.Errorf("store: dst length %d, want %d", len(dst), n)
	}
	v.copyWindow(seq, start, n, dst, pc)
	return nil
}

// copyWindow fills dst with the (validated) window, stitching across
// the packed/tail boundary when needed, and charges the pages touched.
func (v *view) copyWindow(seq, start, n int, dst vec.Vector, pc *PageCounter) {
	pl := v.packedLen(seq)
	g := v.offsets[seq] + start
	switch {
	case start+n <= pl:
		copy(dst, v.data[g:g+n])
		chargeWindow(pc, g, n)
	case start >= pl:
		lo := start - pl
		copy(dst, v.tails[seq][lo:lo+n])
		chargeTail(pc, seq, lo, n)
	default:
		head := pl - start
		copy(dst[:head], v.data[g:g+head])
		copy(dst[head:], v.tails[seq][:n-head])
		chargeWindow(pc, g, head)
		chargeTail(pc, seq, 0, n-head)
	}
}

// WindowView returns the n samples of sequence seq starting at start
// as a read-only view of the backing array, charging the covering
// pages to pc like Window but without copying.  A window that crosses
// the packed/tail boundary is returned as a freshly allocated stitched
// copy.  On a store that grows by AppendValues up to n−1 windows of
// every appended sequence straddle its boundary — under steady ingest,
// exactly the newest windows — so a hot reader passes its own stitch
// memory through WindowViewInto instead.
// The view must not be modified; on a live Store it is invalidated by
// the next mutation (take a Snapshot to pin it), and it is safe for
// concurrent use with other reads.
func (v *view) WindowView(seq, start, n int, pc *PageCounter) (vec.Vector, error) {
	return v.WindowViewInto(seq, start, n, nil, pc)
}

// WindowViewInto is WindowView with caller-owned stitch memory: a
// window inside the packed region or inside the tail is still returned
// in place, and one that straddles the boundary is stitched into
// buf[:n] when buf has the capacity (allocated otherwise).  The result
// aliases buf only in the straddling case, so it is valid until the
// caller's next use of buf.
func (v *view) WindowViewInto(seq, start, n int, buf vec.Vector, pc *PageCounter) (vec.Vector, error) {
	if err := v.checkWindow(seq, start, n); err != nil {
		return nil, err
	}
	pl := v.packedLen(seq)
	g := v.offsets[seq] + start
	switch {
	case start+n <= pl:
		chargeWindow(pc, g, n)
		return v.data[g : g+n : g+n], nil
	case start >= pl:
		lo := start - pl
		chargeTail(pc, seq, lo, n)
		t := v.tails[seq]
		return t[lo : lo+n : lo+n], nil
	default:
		if cap(buf) < n {
			buf = make(vec.Vector, n)
		}
		w := buf[:n]
		v.copyWindow(seq, start, n, w, pc)
		return w, nil
	}
}

// statsEps scales the conservative error bounds WindowStats reports:
// Kahan prefix sums are within 2·ε_machine of the exact sum of their
// terms, differencing adds one rounding each, and the factor 8 leaves
// margin for the compensation's own second-order terms.
const statsEps = 8 * 0x1p-52

// WindowStats are the sufficient statistics Σv and Σv² of one window,
// with conservative absolute error bounds relative to exact
// summation.  Candidate verification combines them with a query-side
// cross term to evaluate MinDist without re-reducing the window.
type WindowStats struct {
	Sum, SumSq       float64
	SumErr, SumSqErr float64
}

// WindowStats retrieves the statistics of the window in O(1) by
// differencing the per-sequence prefix sums.  The prefix sums are
// index-side metadata, so the lookup charges no data pages — the
// verification pass that consumes them still reads (and is charged
// for) the window itself.
func (v *view) WindowStats(seq, start, n int) (WindowStats, error) {
	if err := v.checkWindow(seq, start, n); err != nil {
		return WindowStats{}, err
	}
	st := &v.stats[seq]
	lo, hi := st.psum[start], st.psum[start+n]
	qlo, qhi := st.psumsq[start], st.psumsq[start+n]
	// The Kahan bound is relative to the sum of |terms|; for the squares
	// that is the prefix itself, and for the values Cauchy–Schwarz gives
	// Σ|v| ≤ √(i·Σv²) over any prefix of length i.
	absLo := math.Sqrt(float64(start) * math.Abs(qlo))
	absHi := math.Sqrt(float64(start+n) * math.Abs(qhi))
	return WindowStats{
		Sum:      hi - lo,
		SumSq:    qhi - qlo,
		SumErr:   statsEps * (absLo + absHi + math.Abs(lo) + math.Abs(hi)),
		SumSqErr: statsEps * (math.Abs(qlo) + math.Abs(qhi)),
	}, nil
}

// rebuildStats recomputes every sequence's prefix sums from the raw
// data — used by deserialization, which fills the data array directly
// (deserialized stores are fully packed, so tails are not involved).
func (v *view) rebuildStats() {
	v.stats = make([]seqStats, len(v.names))
	v.peak, v.bad = 0, nil
	for seq := range v.names {
		v.stats[seq] = newSeqStats(v.lengths[seq])
		v.accumulate(seq, v.data[v.offsets[seq]:v.offsets[seq]+v.lengths[seq]])
	}
}

// ScanWindows streams every length-n sliding window of every sequence
// through fn in storage order, stopping early when fn returns false.
// The window slice passed to fn is reused between calls; clone it to
// retain it.  Each data page is charged to pc exactly once, when the
// scan first enters it — the sequential-read cost model of §7.
func (v *view) ScanWindows(n int, pc *PageCounter, fn func(seq, start int, w vec.Vector) bool) {
	if n <= 0 {
		return
	}
	w := make(vec.Vector, n)
	lastPage := -1
	for seq := range v.names {
		L := v.lengths[seq]
		tl := v.tailLen(seq)
		pl := L - tl
		base := v.offsets[seq]
		if pc != nil && pl > 0 {
			// Charge the packed pages of this sequence as the scan streams
			// over them, including short sequences with no full window.
			first := base / ValuesPerPage
			last := (base + pl - 1) / ValuesPerPage
			for p := first; p <= last; p++ {
				if p > lastPage {
					pc.Touch(p)
					lastPage = p
				}
			}
		}
		if pc != nil && tl > 0 {
			// Tail pages have per-sequence ids, each visited exactly once
			// per scan, so they are charged unconditionally.
			for p := 0; p <= (tl-1)/ValuesPerPage; p++ {
				pc.Touch(tailPage(seq, p))
			}
		}
		for start := 0; start+n <= L; start++ {
			if start+n <= pl {
				copy(w, v.data[base+start:base+start+n])
			} else {
				v.copyWindow(seq, start, n, w, nil)
			}
			if !fn(seq, start, w) {
				return
			}
		}
	}
}

// EncodeWindowID packs a (sequence, start) window address into the
// int64 identifier stored in index leaves.
func EncodeWindowID(seq, start int) int64 {
	return int64(seq)<<32 | int64(uint32(start))
}

// DecodeWindowID unpacks an identifier produced by EncodeWindowID.
func DecodeWindowID(id int64) (seq, start int) {
	return int(id >> 32), int(uint32(id))
}
