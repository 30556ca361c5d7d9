// Package seqscan implements experiment set 1 of the paper (§7): the
// sequential-search baseline.  Every sliding window of the database is
// read in storage order and its scale/shift distance to the query is
// computed directly from the line-to-line distance of Lemma 2 (via the
// closed forms of §5.2, which Theorem 1 proves equivalent).  Every data
// page is therefore accessed on every query.
package seqscan

import (
	"fmt"

	"scaleshift/internal/store"
	"scaleshift/internal/vec"
)

// Result is one qualifying window with the transformation realizing
// the match.
type Result struct {
	// Seq and Start address the matching window.
	Seq, Start int
	// Dist is the minimum D₂(F_{a,b}(Q), S') over all a, b.
	Dist float64
	// Scale and Shift are the optimal a and b (§5.2).
	Scale, Shift float64
}

// Filter restricts results by transformation cost; nil accepts all.
// It receives the optimal scale factor and shift offset of a candidate
// match (the user-specified cost bound of §3).
type Filter func(scale, shift float64) bool

// Search scans every length-len(q) window of st and returns those with
// scale/shift distance at most eps that pass the filter.  Page
// accesses are charged to pc (may be nil): the whole database, once,
// per the paper's sequential cost model.
func Search(st *store.Store, q vec.Vector, eps float64, keep Filter, pc *store.PageCounter) ([]Result, error) {
	n := len(q)
	if n < 2 {
		return nil, fmt.Errorf("seqscan: query length %d < 2", n)
	}
	if eps < 0 {
		return nil, fmt.Errorf("seqscan: negative epsilon %v", eps)
	}
	var out []Result
	st.ScanWindows(n, pc, func(seq, start int, w vec.Vector) bool {
		m := vec.MinDist(q, w)
		if m.Dist <= eps && (keep == nil || keep(m.Scale, m.Shift)) {
			out = append(out, Result{
				Seq:   seq,
				Start: start,
				Dist:  m.Dist,
				Scale: m.Scale,
				Shift: m.Shift,
			})
		}
		return true
	})
	return out, nil
}

// Nearest scans every window and returns the k nearest by scale/shift
// distance, ties broken by storage order.  Used as the ground-truth
// oracle for the index's nearest-neighbour search.
func Nearest(st *store.Store, q vec.Vector, k int, pc *store.PageCounter) ([]Result, error) {
	n := len(q)
	if n < 2 {
		return nil, fmt.Errorf("seqscan: query length %d < 2", n)
	}
	if k < 1 {
		return nil, fmt.Errorf("seqscan: k %d < 1", k)
	}
	// Simple bounded insertion into a sorted slice: k is small in
	// practice and the scan dominates.
	var best []Result
	st.ScanWindows(n, pc, func(seq, start int, w vec.Vector) bool {
		m := vec.MinDist(q, w)
		if len(best) == k && m.Dist >= best[k-1].Dist {
			return true
		}
		r := Result{Seq: seq, Start: start, Dist: m.Dist, Scale: m.Scale, Shift: m.Shift}
		pos := len(best)
		for pos > 0 && best[pos-1].Dist > r.Dist {
			pos--
		}
		if len(best) < k {
			best = append(best, Result{})
		}
		copy(best[pos+1:], best[pos:])
		best[pos] = r
		return true
	})
	return best, nil
}
