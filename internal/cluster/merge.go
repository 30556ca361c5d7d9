package cluster

import (
	"container/heap"
	"sort"
)

// Exact result merging.  Both operators assume the inputs carry global
// sequence ids (the coordinator remaps before merging) and that the
// partition is disjoint — under those two premises each merge is
// set-union, which is what makes a healthy gather bit-identical to a
// single-node search over the union store.

// matchLess is the global result order: (Seq, Start), the order a
// single node's answers are born in, with (Dist, Scale) as a defensive final
// tiebreak that never fires on well-formed inputs (a (Seq, Start) pair
// names one window, which has one optimal (scale, shift)).
func matchLess(a, b WireMatch) bool {
	if a.Seq != b.Seq {
		return a.Seq < b.Seq
	}
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	return a.Dist < b.Dist
}

// MergeRange merges per-shard range (and long-query) results into the
// single-node result order.  Matches are concatenated, sorted by
// (Seq, Start), and deduplicated on that key — on a disjoint partition
// the dedup is a no-op, but a misconfigured topology (two shards
// serving the same artifact) then yields duplicated answers from the
// sort alone, so the dedup keeps "never silently wrong" true even
// under operator error.
func MergeRange(perShard [][]WireMatch) []WireMatch {
	total := 0
	for _, ms := range perShard {
		total += len(ms)
	}
	out := make([]WireMatch, 0, total)
	for _, ms := range perShard {
		out = append(out, ms...)
	}
	sort.Slice(out, func(i, j int) bool { return matchLess(out[i], out[j]) })
	w := 0
	for i := range out {
		if i > 0 && out[i].Seq == out[w-1].Seq && out[i].Start == out[w-1].Start {
			continue
		}
		out[w] = out[i]
		w++
	}
	return out[:w]
}

// knnHeap orders shard cursors by the head match's (Dist, Seq, Start).
type knnCursor struct {
	list []WireMatch
	pos  int
}

type knnHeap []*knnCursor

func (h knnHeap) Len() int { return len(h) }
func (h knnHeap) Less(i, j int) bool {
	a, b := h[i].list[h[i].pos], h[j].list[h[j].pos]
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	if a.Seq != b.Seq {
		return a.Seq < b.Seq
	}
	return a.Start < b.Start
}
func (h knnHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *knnHeap) Push(x interface{}) { *h = append(*h, x.(*knnCursor)) }
func (h *knnHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// MergeKNN merges per-shard k-NN results — each list ascending by
// distance, as the single node emits — into the global top-k.  The
// heap holds one cursor per non-empty shard list; each heap head is a
// lower bound on everything behind it in its list, so after k pops no
// unpopped match can beat the popped set and the merge terminates
// early, regardless of how many candidates the shards returned.
// Ties break on (Dist, Seq, Start), the deterministic global order.
func MergeKNN(perShard [][]WireMatch, k int) []WireMatch {
	if k <= 0 {
		return nil
	}
	h := make(knnHeap, 0, len(perShard))
	for _, ms := range perShard {
		if len(ms) > 0 {
			h = append(h, &knnCursor{list: ms})
		}
	}
	heap.Init(&h)
	out := make([]WireMatch, 0, k)
	for len(h) > 0 && len(out) < k {
		c := h[0]
		out = append(out, c.list[c.pos])
		c.pos++
		if c.pos < len(c.list) {
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	return out
}
