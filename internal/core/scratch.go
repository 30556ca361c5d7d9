package core

import (
	"slices"
	"sync"

	"scaleshift/internal/store"
)

// queryScratch is the working memory of one query, acquired once by its
// executor and threaded through the index phase and the verification:
// the index-phase tally, the candidate ids from the leaf that proposed
// them to the verifier, the kernel rows a segmented index sweeps its
// delta with, and the verification workers' match and stitch buffers.
// It is pooled, so a query allocates per answer, not per candidate and
// not per delta window.
type queryScratch struct {
	probeTally
	// ids holds the candidates — the windows the index phase proposes —
	// as the packed ids the index leaves store (store.EncodeWindowID),
	// whose integer order is (seq, start) order: appended by the probes
	// in leaf order, then sorted into storage order for the verifier.
	ids []int64
	// spare is the radix sort's second buffer.
	spare   []int64
	workers []verifyWorker
	// sample receives the planner-sample distances of the frozen segment
	// being planned.
	sample []float64
	// qpD, qpQp and dist are the batched PLD kernel's accumulator and
	// output rows for one delta block.
	qpD, qpQp, dist [deltaBlockLen]float64
	// nnDist and nnHeap hold a k-NN query's lower bound for every delta
	// window and the heap that orders them.
	nnDist []float64
	nnHeap []int32
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
	sc.spare = pooled(sc.spare, maxPooledIDs)
	sc.sample = pooled(sc.sample, maxPooledIDs)
	sc.nnDist = pooled(sc.nnDist, maxPooledIDs)
	sc.nnHeap = pooled(sc.nnHeap, maxPooledIDs)
	for i := range sc.workers {
		w := &sc.workers[i]
		*w = verifyWorker{out: pooled(w.out, maxPooledMatches), stitch: pooled(w.stitch, maxPooledStitch)}
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

// radixMinLen is the length below which a comparison sort beats the
// radix sort's fixed histogram cost.
const radixMinLen = 256

// sortIDs sorts ids ascending — for window ids, (seq, start) order —
// with spare as working memory, returning the sorted slice and the
// other buffer (the two may have traded places).  It is an LSD byte
// radix sort over only the bytes in which the ids differ: ids of one
// store share their high seq and start bytes, so a paper-scale
// candidate set takes four counting passes instead of
// n·log n comparisons.  Already-sorted input (the scan path emits in
// storage order) costs the one detection pass.
func sortIDs(ids, spare []int64) (sorted, other []int64) {
	if len(ids) < radixMinLen {
		slices.Sort(ids)
		return ids, spare
	}
	// Flipping the sign bit maps int64 order onto uint64 order, so the
	// byte passes are right for negative ids too.
	const signBit = 1 << 63
	var diff uint64
	inOrder := true
	for i, id := range ids[1:] {
		diff |= uint64(id ^ ids[0])
		inOrder = inOrder && ids[i] <= id
	}
	if inOrder {
		return ids, spare
	}
	var shifts [8]uint
	passes := 0
	for b := uint(0); b < 64; b += 8 {
		if diff>>b&0xff != 0 {
			shifts[passes] = b
			passes++
		}
	}
	// One read fills every pass's histogram: a stable pass permutes the
	// ids but not how many carry each digit.
	var counts [8][256]int
	for _, id := range ids {
		key := uint64(id) ^ signBit
		for p := 0; p < passes; p++ {
			counts[p][byte(key>>shifts[p])]++
		}
	}
	if cap(spare) < len(ids) {
		// Same capacity as ids: the two buffers trade places.
		spare = make([]int64, cap(ids))
	}
	src, dst := ids, spare[:len(ids)]
	for p := 0; p < passes; p++ {
		next := &counts[p]
		pos := 0
		for d, c := range next {
			next[d] = pos
			pos += c
		}
		for _, id := range src {
			d := byte((uint64(id) ^ signBit) >> shifts[p])
			dst[next[d]] = id
			next[d]++
		}
		src, dst = dst, src
	}
	return src, dst
}
