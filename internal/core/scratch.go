package core

import (
	"cmp"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"scaleshift/internal/dft"
	"scaleshift/internal/rtree"
	"scaleshift/internal/store"
	"scaleshift/internal/vec"
)

// queryScratch is the working memory of one query, acquired once by its
// executor and threaded through the index phase and the verification:
// the index-phase tally, the candidate ids from the leaf that proposed
// them to the verifier, the kernel rows the index sweeps its delta
// with, and the verification workers' match and stitch buffers.
// It is pooled, so a query allocates per answer, not per candidate and
// not per delta window.
type queryScratch struct {
	probeTally
	// ids holds the candidates — the windows the index phase proposes —
	// as the packed ids the index leaves store (store.EncodeWindowID),
	// whose integer order is (seq, start) order: appended by the probes
	// in leaf order, then put in storage order for the verifier
	// (orderIDs).
	ids []int64
	// bits is orderIDs' window bitmap, all zero between queries.
	bits    []uint64
	workers []verifyWorker
	// probe is the frozen segment descent in hand, tasks its frontier,
	// probers the workers of a fanned-out descent, and next the frontier
	// index the next subtree is taken from (descend).
	probe   rtree.Probe
	tasks   []rtree.Subtree
	probers []probeWorker
	next    atomic.Int64
	// line holds the origin and direction of the SE-line being probed
	// (seLine).
	line []float64
	// qpD, qpQp and dist are the batched PLD kernel's accumulator and
	// output rows for one delta block.
	qpD, qpQp, dist [deltaBlockLen]float64
	// seeds is a k-NN query's bounded selection of seed windows
	// (manifest.seeds).
	seeds seedSet
}

// Buffers beyond these capacities are dropped on release instead of
// pooled, so one huge query (a full scan, an ε that matches everything)
// does not pin its high-water mark in every pooled scratch: 1 MiB of
// ids per buffer, 3.5 MiB of matches and a 32 KiB stitch buffer (a
// window, or a long query of up to 4 096 samples) per worker.
const (
	maxPooledIDs     = 1 << 17
	maxPooledMatches = 1 << 16
	maxPooledStitch  = 1 << 12
)

var scratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

func acquireScratch() *queryScratch { return scratchPool.Get().(*queryScratch) }

// release resets sc and returns it to the pool.  The answer never
// aliases scratch memory (verifyCandidates copies the matches out), so
// release is safe as soon as the executor returns.
func (sc *queryScratch) release() {
	sc.probeTally = probeTally{}
	sc.ids = pooled(sc.ids, maxPooledIDs)
	sc.bits = pooled(sc.bits, maxPooledIDs)
	sc.seeds = pooled(sc.seeds, maxPooledIDs)
	for i := range sc.workers {
		w := &sc.workers[i]
		*w = verifyWorker{out: pooled(w.out, maxPooledMatches), stitch: pooled(w.stitch, maxPooledStitch)}
	}
	sc.tasks = pooled(sc.tasks, maxPooledIDs)
	for i := range sc.probers {
		sc.probers[i].ids = pooled(sc.probers[i].ids, maxPooledIDs)
	}
	scratchPool.Put(sc)
}

// pooled empties buf for reuse, or drops it when it outgrew limit.
func pooled[T any](buf []T, limit int) []T {
	if cap(buf) > limit {
		return nil
	}
	return buf[:0]
}

// seLine returns the query's SE-line image in feature space: the line
// {t·F(T_se(q))} through the origin (§5.1 property 3; linear maps send
// lines through the origin to lines through the origin).  Its vectors
// live in sc until the next call: a query's line lives only as long as
// its probe or its k-NN seeding.
func (sc *queryScratch) seLine(fmap *dft.FeatureMap, q vec.Vector) vec.Line {
	dim := fmap.Dim()
	if cap(sc.line) < 2*dim {
		sc.line = make([]float64, 2*dim)
	}
	p, d := sc.line[:dim:dim], sc.line[dim:2*dim:2*dim]
	clear(p)
	fmap.TransformSE(d, q)
	return vec.Line{P: p, D: d}
}

// seed is a window a k-NN query may refine into its bound: its packed id
// and its feature-space distance to the query's SE-line.
type seed struct {
	dist float64
	id   int64
}

// seedSet is a bounded selection of the seeds nearest the line.  Once
// it holds max its first max are sorted (keep), and a seed no nearer
// than the last of them is dropped at one comparison; at 2·max it is cut
// back to max.
type seedSet []seed

func (h *seedSet) offer(s seed, max int) {
	if len(*h) >= max && s.dist >= (*h)[max-1].dist {
		return
	}
	if *h = append(*h, s); len(*h) == max || len(*h) == 2*max {
		h.keep(max)
	}
}

// keep sorts the set by distance and cuts it to its max nearest.
func (h *seedSet) keep(max int) {
	slices.SortFunc(*h, func(a, b seed) int { return cmp.Compare(a.dist, b.dist) })
	*h = (*h)[:min(len(*h), max)]
}

// verifyWorkers returns n workers in their released state — zero but
// for the match and stitch buffers of earlier queries — each with a
// stitch buffer of at least windowLen samples.
func (sc *queryScratch) verifyWorkers(n, windowLen int) []verifyWorker {
	if n > len(sc.workers) {
		sc.workers = append(sc.workers, make([]verifyWorker, n-len(sc.workers))...)
	}
	ws := sc.workers[:n]
	for i := range ws {
		if cap(ws[i].stitch) < windowLen {
			ws[i].stitch = make([]float64, windowLen)
		}
	}
	return ws
}

// probeWorkers returns n descent workers, empty but for the id buffers
// of earlier queries.
func (sc *queryScratch) probeWorkers(n int) []probeWorker {
	if n > len(sc.probers) {
		sc.probers = append(sc.probers, make([]probeWorker, n-len(sc.probers))...)
	}
	ws := sc.probers[:n]
	for i := range ws {
		ws[i] = probeWorker{ids: ws[i].ids[:0], fanState: fanState{seq: -1, start: -1}}
	}
	return ws
}

// alignPieceHits rewrites ids[first:], the hits of the long-query piece
// at offset off, as the full-length alignments they propose — the hit
// start moved back by off — dropping alignments that overhang either
// end of their sequence, and returns the shortened slice.
func alignPieceHits(ids []int64, first, off, queryLen int, sv storeView) []int64 {
	kept := ids[:first]
	for _, id := range ids[first:] {
		seq, start := store.DecodeWindowID(id)
		if start < off || start-off+queryLen > sv.SequenceLen(seq) {
			continue
		}
		kept = append(kept, store.EncodeWindowID(seq, start-off))
	}
	return kept
}

// windowBits lays out one bit per window of a store view in (seq,
// start) order — the integer order of the packed window ids — for
// orderIDs: sequence seq owns words [words[seq], words[seq+1]) and its
// window at start s is bit s of them.  A manifest derives it once, the
// first time a query needs it (manifest.windowBits).
type windowBits struct {
	words []int
}

func newWindowBits(sv storeView, windowLen int) windowBits {
	words := make([]int, sv.NumSequences()+1)
	for seq := range sv.NumSequences() {
		words[seq+1] = words[seq] + (max(sv.SequenceLen(seq)-windowLen+1, 0)+63)/64
	}
	return windowBits{words: words}
}

// bitmapWordsPerID is the density from which orderIDs sets and scans the
// window bitmap instead of sorting: at least one candidate per this many
// bitmap words.  Below it slices.Sort's n·log n comparisons cost less
// than clearing and scanning the words.  BenchmarkOrderIDs measures the
// two at paper scale (9 000 words): they cross near 900 ids, 11.7 µs each
// on the 2-vCPU box; at a loose query's 68 565 the bitmap takes 0.27 ms
// and the sort 5.4 ms.
const bitmapWordsPerID = 10

// orderIDs puts sc.ids — the windows of the store view laid out by wb,
// in any order, duplicates allowed (a long query's pieces propose common
// alignments) — in (seq, start) order without duplicates, the order the
// verifier walks the store in: by the window bitmap when the set is
// dense enough, by sorting otherwise, or when an id lies outside the
// layout (none does, on a consistent manifest).
func (sc *queryScratch) orderIDs(wb *windowBits) {
	if len(sc.ids)*bitmapWordsPerID < wb.words[len(wb.words)-1] || !sc.bitmapOrder(wb) {
		slices.Sort(sc.ids)
		sc.ids = slices.Compact(sc.ids)
	}
}

// bitmapOrder orders sc.ids as orderIDs does by setting one bit per id in
// sc.bits and reading the bits back in order, clearing them as it goes.
// It reports false, with sc.ids as they were and the bitmap clear again,
// when an id lies outside wb.
func (sc *queryScratch) bitmapOrder(wb *windowBits) bool {
	ids, total := sc.ids, wb.words[len(wb.words)-1]
	if cap(sc.bits) < total {
		sc.bits = make([]uint64, total)
	}
	set := sc.bits[:total]
	ns := len(wb.words) - 1
	for i, id := range ids {
		seq, start := int(id>>32), int(uint32(id))
		if uint(seq) >= uint(ns) || start >= 64*(wb.words[seq+1]-wb.words[seq]) {
			for _, id := range ids[:i] {
				set[wb.words[id>>32]+int(uint32(id))/64] = 0
			}
			return false
		}
		set[wb.words[seq]+start/64] |= 1 << (start % 64)
	}
	out := ids[:0]
	for seq := range ns {
		base := store.EncodeWindowID(seq, 0)
		for w := wb.words[seq]; w < wb.words[seq+1]; w++ {
			word := set[w]
			if word == 0 {
				continue
			}
			set[w] = 0
			start := base + int64(64*(w-wb.words[seq]))
			for ; word != 0; word &= word - 1 {
				out = append(out, start+int64(bits.TrailingZeros64(word)))
			}
		}
	}
	sc.ids = out
	return true
}
