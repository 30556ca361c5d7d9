package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"scaleshift/internal/engine"
	"scaleshift/internal/obs"
	"scaleshift/internal/rtree"
	"scaleshift/internal/store"
	"scaleshift/internal/vec"
)

// Post-processing verdicts.  verdictUndecided is certify's alone: the
// bound could not classify the window and the exact pass must.
const (
	verdictMatch = iota
	verdictFalseAlarm
	verdictCostRejected
	verdictUndecided
)

// verifyCheckInterval is how many candidates a verification loop
// processes between ctx polls.  One candidate costs O(n) float work
// (a prefix-sum pass, sometimes an exact MinDist), so 64 candidates
// bound cancellation latency to a few microseconds at n = 128 while
// keeping the poll invisible in the loop.
const verifyCheckInterval = 64

// storeView is the read surface a manifest needs from a data store.
// Both *store.Store and *store.Snapshot satisfy it, so the same
// executors run against a live store (an Index's manifest) or a pinned
// snapshot (a SegmentedIndex's, where appends race with queries and
// only the snapshot is stable).
type storeView interface {
	NumSequences() int
	TotalValues() int
	PageCount() int
	SequenceName(seq int) string
	SequenceLen(seq int) int
	Window(seq, start, n int, dst vec.Vector, pc *store.PageCounter) error
	WindowViewInto(seq, start, n int, buf vec.Vector, pc *store.PageCounter) (vec.Vector, error)
	WindowStats(seq, start, n int) (store.WindowStats, error)
}

// verifier carries the query-side quantities shared by every candidate
// check of one query: the prepared query feeds both the prefix-sum pass
// (vec.Prepared.Certify) and the exact confirmation (vec.Prepared.
// MinDist), so a candidate never pays for the query's own reductions.
// A range query's verifier is read-only after construction and
// therefore shared by the parallel verification workers.
type verifier struct {
	sv    storeView
	n     int // window length, len(q)
	q     *vec.Prepared
	costs CostBounds
	// anyCost says the cost bounds accept every transformation, so a
	// window within eps needs no (a, b) to be counted a match.
	anyCost bool
	// eps is the distance threshold; a certified squared distance above
	// epsHi dismisses a window and one at or below epsLo accepts it (see
	// setEps).
	eps, epsLo, epsHi float64
}

func newVerifier(sv storeView, q vec.Vector, eps float64, costs CostBounds) *verifier {
	v := &verifier{sv: sv, n: len(q), q: vec.Prepare(q), costs: costs, anyCost: costs == UnboundedCosts()}
	v.setEps(eps)
	return v
}

// setEps moves the distance threshold.  The exact pass decides
// Dist > eps on Dist = fl(√x), x its clamped squared distance; eps·eps
// is within one rounding of ε², and the correctly rounded, monotone
// square root puts fl(√x) strictly above eps once x > ε²·(1+2⁻⁵²)² and
// at or below it once x < ε², so a guard of four roundings on eps·eps
// makes the squared comparison agree with the exact pass's on both
// sides.  Where that reasoning has no footing — ε² overflows, or it or
// the query's ‖T_se q‖² underflows into the subnormals, where roundings
// stop being relative — the band opens to (−Inf, +Inf) and every window
// is decided by the exact pass.
func (v *verifier) setEps(eps float64) {
	const machEps, tiny = 0x1p-52, 0x1p-900
	e2 := eps * eps
	v.eps, v.epsLo, v.epsHi = eps, e2-4*machEps*e2, e2+4*machEps*e2
	if (e2 != 0 && e2 < tiny) || math.IsInf(e2, 1) || (v.q.UU != 0 && v.q.UU < tiny) {
		v.epsLo, v.epsHi = math.Inf(-1), math.Inf(1)
	}
}

// certify classifies window w from one cross-term pass and its O(1)
// statistics wherever the certified bound (vec.Certificate: the exact
// pass's Dist², scale and shift lie within stated errors of the fast
// values) leaves the exact pass only one possible verdict: a false
// alarm when even the smallest possible distance exceeds eps; a match
// or a cost rejection when even the largest is within eps and (a, b)
// are farther from every finite cost bound than their errors (an
// infinite bound is never near).  It answers verdictUndecided otherwise
// — and for a NaN bound, which fails every comparison below.
func (v *verifier) certify(w vec.Vector, ws store.WindowStats) int {
	c := v.q.Certify(w, ws.Sum, ws.SumSq, ws.SumErr, ws.SumSqErr)
	switch {
	case c.DistSq-c.DistSqErr > v.epsHi:
		return verdictFalseAlarm
	case !(c.DistSq+c.DistSqErr <= v.epsLo):
		return verdictUndecided
	}
	aLo, aHi := c.Scale-c.ScaleErr, c.Scale+c.ScaleErr
	bLo, bHi := c.Shift-c.ShiftErr, c.Shift+c.ShiftErr
	switch {
	case v.costs.Allow(aLo, bLo) && v.costs.Allow(aHi, bHi):
		return verdictMatch
	case aHi < v.costs.ScaleMin || aLo > v.costs.ScaleMax || bHi < v.costs.ShiftMin || bLo > v.costs.ShiftMax:
		return verdictCostRejected
	}
	return verdictUndecided
}

// normMatch reports that a window with statistics ws matches whatever
// its values are: its own SE-norm, certified from the statistics alone
// (vec.Prepared.NormBound), is within eps — Lemma 2's minimum over the
// scale factor can always take a = 0 — and no cost bound could reject
// the transformation the exact pass would find.  A NaN bound fails the
// comparison; setEps's open band (epsLo = −Inf) fails it for every
// window.
func (v *verifier) normMatch(ws store.WindowStats) bool {
	return v.anyCost && v.q.NormBound(v.n, ws.Sum, ws.SumSq, ws.SumErr, ws.SumSqErr) <= v.epsLo
}

// exact runs the exact post-processing check on window w: the verdict,
// and the exact pass's values (bit-identical to vec.MinDist's) a match
// is reported with.
func (v *verifier) exact(w vec.Vector) (vec.Match, int) {
	m := v.q.MinDist(w)
	switch {
	case m.Dist > v.eps:
		return m, verdictFalseAlarm
	case !v.costs.Allow(m.Scale, m.Shift):
		return m, verdictCostRejected
	}
	return m, verdictMatch
}

// verifyParallelThreshold is the candidate count below which the
// per-query verification fan-out is not worth the goroutine handoff.
const verifyParallelThreshold = 32

// verdicts is the classification of a query's candidates: every one is
// a match, a false alarm or a cost rejection; exactChecks counts those
// that paid the exact pass, normCertified the matches counted from
// their statistics without the window being fetched (normMatch).
type verdicts struct {
	matches, falseAlarms, costRejected, exactChecks, normCertified int
}

// verifyWorker is the verification of one contiguous chunk of the
// ordered candidate ids: its first rows in id order, its verdict counts,
// the buffer its boundary-straddling windows are stitched into, and —
// on the parallel pass — its private page counter and failure.
type verifyWorker struct {
	out    []Match
	stitch vec.Vector
	verdicts
	seq, start int // the window in hand, for a panic report
	pc         store.PageCounter
	err        error
	// Workers sit side by side in one slice and write their own fields
	// on every window; the pad keeps neighbours off each other's cache
	// line.
	_ [64]byte
}

// run verifies ids in order, charging pages to pc and polling ctx every
// verifyCheckInterval candidates.  Once the chunk holds its rows — its
// first limit matches; never, without a positive limit — a window whose
// statistics alone certify a match (normMatch) is counted without being
// fetched: no data page is charged for it.  Every other window is read
// in place (no copy; one that straddles a grown sequence's packed/tail
// boundary is stitched into the worker's buffer) and classified by
// certify.  The exact pass runs on what certify leaves undecided and on
// every match that becomes a row, so rows carry the exact pass's values
// and the rest of the chunk is counted from the bounds alone.
func (w *verifyWorker) run(ctx context.Context, v *verifier, ids []int64, limit int, pc *store.PageCounter) error {
	out := w.out[:0]
	for i, id := range ids {
		if i%verifyCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		w.seq, w.start = store.DecodeWindowID(id)
		ws, err := v.sv.WindowStats(w.seq, w.start, v.n)
		if err != nil {
			return err
		}
		row := limit <= 0 || len(out) < limit
		if !row && v.normMatch(ws) {
			w.matches++
			w.normCertified++
			continue
		}
		win, err := v.sv.WindowViewInto(w.seq, w.start, v.n, w.stitch, pc)
		if err != nil {
			return err
		}
		verdict := v.certify(win, ws)
		if verdict == verdictUndecided || (verdict == verdictMatch && row) {
			var m vec.Match
			m, verdict = v.exact(win)
			w.exactChecks++
			if verdict == verdictMatch && row {
				out = append(out, Match{
					Seq:   w.seq,
					Start: w.start,
					Name:  v.sv.SequenceName(w.seq),
					Dist:  m.Dist,
					Scale: m.Scale,
					Shift: m.Shift,
				})
			}
		}
		switch verdict {
		case verdictFalseAlarm:
			w.falseAlarms++
		case verdictCostRejected:
			w.costRejected++
		default:
			w.matches++
		}
	}
	w.out = out
	return nil
}

// verifyCandidates post-processes the ordered candidate ids in sc,
// returning the first limit matches (all, without a positive limit) in id
// order —
// (Seq, Start) order, the order of the answer — and the classification
// of every candidate.  The ids are cut into contiguous chunks, one per
// worker; each worker keeps the first limit rows of its chunk in its own
// scratch buffer and counts its own verdicts, and the answer is the
// head of the chunk-order concatenation, copied into one exactly sized
// slice (nil when empty).  When the query yields enough candidates, pc
// is not attached to a buffer pool, and GOMAXPROCS allows, the chunks
// run concurrently — the first on the caller's goroutine, the rest on
// helpers — with private page counters that are merged into pc
// afterwards; otherwise there is one chunk, run on the caller's
// goroutine against pc itself.  Either way rows, ordering, and every
// SearchStats field are identical but ExactChecks, NormCertified and
// DataPageAccesses under a positive limit: each chunk runs the exact
// pass, and fetches every window, until it holds limit rows.  Every chunk polls ctx
// every verifyCheckInterval candidates; a panic on a worker goroutine
// (a poisoned window) is recovered into a *WorkerPanicError rather than
// crashing the process.
func verifyCandidates(ctx context.Context, v *verifier, sc *queryScratch, limit int, pc *store.PageCounter) ([]Match, verdicts, error) {
	ids := sc.ids
	workers := runtime.GOMAXPROCS(0)
	if len(ids) < verifyParallelThreshold || pc.Pool != nil {
		workers = 1
	}
	if workers > len(ids) {
		workers = len(ids)
	}
	ws := sc.verifyWorkers(workers, v.n)
	if workers == 1 {
		if err := ws[0].run(ctx, v, ids, limit, pc); err != nil {
			return nil, verdicts{}, err
		}
	} else if workers > 1 {
		chunk := (len(ids) + workers - 1) / workers
		var wg sync.WaitGroup
		work := func(w *verifyWorker, ids []int64) {
			defer wg.Done()
			defer recoverWorkerPanic("verification", &w.seq, &w.start, &w.err)
			w.err = w.run(ctx, v, ids, limit, &w.pc)
		}
		// The caller verifies the first chunk itself — it would only wait
		// otherwise — and every helper first makes sure it is not sharing
		// the caller's CPU (leaveCPU says when a kernel leaves it there).
		home := currentCPU()
		for g := len(ws) - 1; g >= 0; g-- {
			lo := g * chunk
			hi := min(lo+chunk, len(ids))
			if lo >= hi {
				continue
			}
			wg.Add(1)
			if g == 0 {
				work(&ws[0], ids[:hi])
			} else {
				go func(w *verifyWorker, ids []int64) {
					leaveCPU(home)
					work(w, ids)
				}(&ws[g], ids[lo:hi])
			}
		}
		wg.Wait()
		// A real failure (panic, I/O) outranks a context error seen by a
		// sibling worker.
		var ctxErr error
		for g := range ws {
			if err := ws[g].err; err != nil {
				if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					ctxErr = err
					continue
				}
				return nil, verdicts{}, err
			}
			pc.Merge(&ws[g].pc)
		}
		if ctxErr != nil {
			return nil, verdicts{}, ctxErr
		}
	}
	var vd verdicts
	rows := 0
	for g := range ws {
		rows += len(ws[g].out)
		vd.matches += ws[g].matches
		vd.falseAlarms += ws[g].falseAlarms
		vd.costRejected += ws[g].costRejected
		vd.exactChecks += ws[g].exactChecks
		vd.normCertified += ws[g].normCertified
	}
	if limit > 0 {
		rows = min(rows, limit)
	}
	if rows == 0 {
		return nil, vd, nil
	}
	out := make([]Match, 0, rows)
	for g := range ws {
		out = append(out, ws[g].out[:min(len(ws[g].out), rows-len(out))]...)
	}
	return out, vd, nil
}

// buildEngineQuery assembles the engine's view of one index-phase
// probe: the query's SE-line, the slack-widened epsilon, and the
// scale-segment restriction derived from the cost bounds.  slack comes
// from the caller's manifest.
//
// When the cost bounds restrict the scale factor, the index phase can
// search only the SEGMENT of the scaling line with t in
// [ScaleMin, ScaleMax]: for any true match its exact scale a lies in
// that range, and by the contraction property
// ‖a·F(T_se q) − F(T_se v)‖ <= ‖a·T_se q − T_se v‖ <= eps, so the
// candidate is still reached through the segment.  This prunes the
// a ≈ 0 degeneracy at the directory rather than in post-processing.
func buildEngineQuery(line vec.Line, eps, slack float64, costs CostBounds) engine.Query {
	segment := !math.IsInf(costs.ScaleMin, -1) || !math.IsInf(costs.ScaleMax, 1)
	tMin, tMax := costs.ScaleMin, costs.ScaleMax
	if segment {
		// Widen the parameter range against feature rounding: a shift
		// of delta along the unit direction moves the point by
		// delta·‖D‖, so slack/‖D‖ in parameter units is conservative.
		if dn := vec.Norm(line.D); dn > 0 {
			pad := slack / dn
			tMin -= pad
			tMax += pad
		}
	}
	return engine.Query{
		Line:    line,
		Eps:     eps + slack,
		Segment: segment,
		TMin:    tMin,
		TMax:    tMax,
	}
}

// Query is one similarity query as a value: the paper's single
// operation (§6) — find the windows S' with Q ~ε S' and the (a, b)
// realizing each match — together with its §7 multipiece and
// Corollary 1 nearest-neighbour variants.  The kind is derived, never
// set:
//
//   - K > 0 asks for the K nearest windows (Eps is ignored and Force
//     must stay PathAuto: the refinement needs the tree's best-first
//     stream);
//   - otherwise len(Vec) > Options.WindowLen is a multipiece long
//     query and len(Vec) == WindowLen a plain range query, both within
//     Eps.
//
// Query{Vec: q, Eps: eps} is a complete query: the zero Costs is read
// as UnboundedCosts (so an omitted field cannot silently empty the
// result set), the zero Force lets every segment of the index choose
// its cheapest path, and a nil Pool counts data pages without a buffer
// pool.
type Query struct {
	// Vec is the query sequence Q.
	Vec vec.Vector
	// Eps is the error bound ε of Definition 1.
	Eps float64
	// K, when positive, selects the K-nearest-neighbour search.
	K int
	// Costs bounds the transformation of every reported match.
	Costs CostBounds
	// Force pins the index phase of every segment to one access path —
	// a debugging and benchmarking tool, never a correctness knob: the
	// result set is bit-identical whichever path runs.
	Force engine.PathKind
	// Pool plays the verifier's data-page fetches through a shared LRU
	// buffer pool, for bounded-memory cost studies.
	Pool *store.BufferPool
	// Limit, when positive, caps Result.Matches at the answer's first
	// Limit rows; otherwise every match is returned.  The answer is the same either
	// way — Result.Total and the ledger count every match — but only
	// returned rows pay for the exact distance and (a, b): the rest are
	// counted from the certified prefix-sum bound (see verifier.certify),
	// or, when no cost bound applies, from their own norm without being
	// fetched (verifier.normMatch).  A limited query therefore reads at
	// most the data pages the unlimited one does — the same ones when a
	// cost bound is finite — and, like ExactChecks, how many depends on
	// how the candidates were chunked over the verification workers.
	Limit int
}

// Result is a query's answer.  Range and long queries return Matches
// ordered by (Seq, Start) and the Explain recording the plan decision,
// the per-path estimates behind it, one row per probed segment (an
// Index is one), candidate actuals and stage timings; k-NN
// queries return Matches by increasing distance and a nil Explain (no
// plan is made: they are pinned to the index probe).  Total is the
// size of the whole answer, of which Matches is the first Query.Limit
// rows: len(Matches) == Total unless the limit cut it.
type Result struct {
	Matches []Match
	Total   int
	Explain *engine.Explain
}

// probeTally accumulates the index-phase accounting of one query
// across its probes: tree counters and probes per access path.
type probeTally struct {
	tree  rtree.SearchStats
	paths [engine.NumPathKinds]int
}

// Exec answers one query.  The result set is exact: the feature-space
// search cannot dismiss a true match (the SE and DFT maps contract
// distances) and the post-processing step verifies every candidate
// against the original data.  Cancellation is cooperative — tree
// descents poll ctx per node, scans and verification every few
// candidates — and partial work is discarded: a cancelled query
// returns ctx.Err() and no matches, never a silently truncated answer
// set.  A malformed query fails with ErrInvalidQuery, one the index
// cannot serve with engine.ErrUnsupported.  stats may be nil; on
// success the query's ledger is added to it.
func (ix *Index) Exec(ctx context.Context, q Query, stats *SearchStats) (Result, error) {
	return exec(ctx, ix.man, q, stats)
}

// ExecBatch answers many queries concurrently with up to parallelism
// goroutines (capped at the query count; values < 1 default to
// runtime.GOMAXPROCS(0)).  Every query is planned independently — a
// tiny-ε query probes the tree while a huge-ε query in the same batch
// scans — and results and statuses are positionally aligned with the
// queries.  When ctx is cancelled mid-batch the call stops handing out
// queries, lets in-flight ones unwind at their next poll, and returns
// ctx.Err() together with the PARTIAL results: every BatchComplete
// slot holds its full exact answer, every BatchIncomplete slot is
// empty.  Any other failure (I/O error, recovered worker panic) aborts
// the whole batch.  Stats are accumulated for completed queries only,
// in query order, so the totals equal running them sequentially.
func (ix *Index) ExecBatch(ctx context.Context, queries []Query, parallelism int, stats *SearchStats) ([]Result, []BatchStatus, error) {
	return execBatch(ctx, ix.Exec, queries, parallelism, stats)
}

// SearchPlannedContext builds a range Query and calls Exec.  It is
// retained only for the frozen benchmark/ harness; the next benchmark
// PR removes it.
func (ix *Index) SearchPlannedContext(ctx context.Context, q vec.Vector, eps float64, costs CostBounds, force engine.PathKind, pool *store.BufferPool, stats *SearchStats) ([]Match, *engine.Explain, error) {
	res, err := ix.Exec(ctx, Query{Vec: q, Eps: eps, Costs: costs, Force: force, Pool: pool}, stats)
	return res.Matches, res.Explain, err
}

// NearestNeighborsWithCostsContext builds a k-NN Query and calls Exec.
// It is retained only for the frozen benchmark/ harness; the next
// benchmark PR removes it.
func (ix *Index) NearestNeighborsWithCostsContext(ctx context.Context, q vec.Vector, k int, costs CostBounds, stats *SearchStats) ([]Match, error) {
	res, err := ix.Exec(ctx, Query{Vec: q, K: k, Costs: costs}, stats)
	return res.Matches, err
}

// exec is the one query entry point behind both index types, run
// against a manifest — a view whose contents cannot move for the
// duration of the query: validation, dispatch on the derived kind, and
// the entry/exit bookkeeping (error counter, metrics, trace id,
// caller's ledger) for every kind.
func exec(ctx context.Context, m *manifest, q Query, stats *SearchStats) (Result, error) {
	if q.Costs == (CostBounds{}) {
		q.Costs = UnboundedCosts()
	}
	var delta SearchStats
	var res Result
	var elapsed time.Duration
	pieces := 0 // probes issued; none for k-NN
	err := validate(m, q)
	switch {
	case err != nil:
	case q.K > 0:
		start := time.Now()
		res, err = execKNN(ctx, m, q, &delta)
		elapsed = time.Since(start)
	default:
		res, err = execRange(ctx, m, q, &delta)
		elapsed = delta.PlanTime + delta.ProbeTime + delta.VerifyTime
		pieces = len(q.Vec) / m.opts.WindowLen
	}
	if err != nil {
		recordSearchError()
		return Result{Explain: res.Explain}, err
	}
	delta.TraceID = obs.TraceIDFromContext(ctx)
	if res.Explain != nil {
		res.Explain.TraceID = delta.TraceID
	}
	recordSearchMetrics(&delta, elapsed, pieces)
	if stats != nil {
		stats.Add(delta)
	}
	return res, nil
}

// validate rejects what no index can answer correctly (ErrInvalidQuery).
func validate(m *manifest, q Query) error {
	n := m.opts.WindowLen
	switch {
	case q.K < 0:
		return fmt.Errorf("core: %w: k %d < 0", ErrInvalidQuery, q.K)
	case q.K > 0 && len(q.Vec) != n:
		return fmt.Errorf("core: %w: query length %d, index window length %d", ErrInvalidQuery, len(q.Vec), n)
	case q.K > 0 && q.Force != engine.PathAuto:
		return fmt.Errorf("core: %w: a forced path applies to range queries; nearest-neighbour search is pinned to the index probe", ErrInvalidQuery)
	case len(q.Vec) < n:
		return fmt.Errorf("core: %w: query length %d below index window length %d", ErrInvalidQuery, len(q.Vec), n)
	}
	if q.K > 0 {
		return validateQueryValues(q.Vec)
	}
	return validateQuery(q.Vec, q.Eps)
}

// execRange is the range-query executor, multipiece included (§7,
// after [2]): the query is cut into k = ⌊len(Q)/n⌋ disjoint length-n
// pieces, each piece is probed with error bound ε/√k, every hit
// proposes a full-length alignment, and each distinct proposal is
// verified exactly against the original data.  A plain range query is
// the one-piece case, its hits already the candidates.
//
// No qualified subsequence is missed: if ‖a·Q + b − V‖ ≤ ε over the
// full length, then the piecewise residuals satisfy
// Σᵢ ‖a·Qᵢ + b − Vᵢ‖² ≤ ε², so at least one piece is within ε/√k of
// its aligned window at the same (a, b), and the per-piece optimal
// distance can only be smaller.
//
// Each piece is planned independently and q.Force pins them all; the
// returned Explain is the first piece's plan with candidate and timing
// actuals totalled across pieces.  The ledger is written to delta only
// when the whole query succeeds, so a failure mid-pieces never leaves
// probes counted against zero candidates (the CheckInvariants
// identity).
func execRange(ctx context.Context, m *manifest, q Query, delta *SearchStats) (Result, error) {
	n, sv := m.opts.WindowLen, m.sv
	pieces := len(q.Vec) / n
	long := len(q.Vec) > n
	pieceEps := q.Eps / math.Sqrt(float64(pieces))

	// Searching step.  The index phase widens eps by a numerical slack
	// so floating-point cancellation in the feature-space distance
	// cannot dismiss a true match; the exact post-processing check
	// below still applies the caller's eps, so the widening only admits
	// extra candidates.
	sc := acquireScratch()
	defer sc.release()
	var ex *engine.Explain
	for i := 0; i < pieces; i++ {
		first := len(sc.ids)
		pieceEx, err := m.probe(ctx, q.Vec[i*n:(i+1)*n], pieceEps, q.Costs, q.Force, sc)
		if err != nil {
			return Result{Explain: pieceEx}, err
		}
		if long {
			sc.ids = alignPieceHits(sc.ids, first, i*n, len(q.Vec), sv)
		}
		if ex == nil {
			ex = pieceEx
		} else {
			ex.PlanTime += pieceEx.PlanTime
			ex.ProbeTime += pieceEx.ProbeTime
		}
	}

	// Post-processing step: exact check, transform recovery, cost
	// bounds — prefix-sum certified, exact for the rows returned, and,
	// for large candidate sets, fanned across a worker pool (see
	// verifyCandidates).  The stage
	// opens by putting the candidates in storage order, once: the
	// verifier then walks the store sequentially (adjacent windows share
	// all but one sample and a prefix-sum line), the matches are born in
	// answer order, and the alignments several pieces of a long query
	// proposed in common are merged.
	verifyStart := time.Now()
	verifyCtx, verifySpan := obs.StartSpan(ctx, "verify")
	sc.orderIDs(m.windowBits())
	if long {
		ex.Pieces = pieces
	}
	cands := len(sc.ids)
	pc := store.PageCounter{Pool: q.Pool}
	v := newVerifier(sv, q.Vec, q.Eps, q.Costs)
	out, vd, err := verifyCandidates(verifyCtx, v, sc, q.Limit, &pc)
	if err != nil {
		spanEndWithError(verifySpan, err)
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return Result{Explain: ex}, err
		}
		return Result{Explain: ex}, fmt.Errorf("core: post-processing: %w", err)
	}
	if verifySpan != nil {
		verifySpan.SetInt("candidates", int64(cands))
		verifySpan.SetInt("false_alarms", int64(vd.falseAlarms))
		verifySpan.SetInt("matches", int64(vd.matches))
		verifySpan.SetInt("exact_checks", int64(vd.exactChecks))
		if vd.normCertified > 0 {
			verifySpan.SetInt("norm_certified", int64(vd.normCertified))
		}
		verifySpan.End()
	}
	ex.VerifyTime = time.Since(verifyStart)
	ex.ActualCandidates = cands
	ex.Matches = vd.matches
	ex.NormCertified = vd.normCertified

	*delta = SearchStats{
		IndexNodeAccesses:   sc.tree.NodeAccesses,
		DataPageAccesses:    pc.Distinct(),
		Candidates:          cands,
		FalseAlarms:         vd.falseAlarms,
		CostRejected:        vd.costRejected,
		Results:             vd.matches,
		ExactChecks:         vd.exactChecks,
		NormCertified:       vd.normCertified,
		LeafEntriesChecked:  sc.tree.LeafEntriesChecked,
		SubtreesAccepted:    sc.tree.SubtreesAccepted,
		LeafEntriesAccepted: sc.tree.LeafEntriesAccepted,
		Penetration:         sc.tree.Penetration,
		PlanTime:            ex.PlanTime,
		ProbeTime:           ex.ProbeTime,
		VerifyTime:          ex.VerifyTime,
		PathProbes:          sc.paths,
	}
	return Result{Matches: out, Total: vd.matches, Explain: ex}, nil
}

// execKNN returns the q.K windows with the smallest scale/shift
// distance to q.Vec whose optimal transformation passes the cost
// bounds — e.g. bounding the scale factor away from zero excludes the
// degenerate matches where a near-constant window "matches" any query
// via a ≈ 0 — in increasing order (Corollary 1).  The answer is exact:
// candidates stream in non-decreasing feature-space distance, which
// lower-bounds the true distance of every window, filtered or not, so
// a stream stops as soon as its bound passes the kth best exact
// distance (GEMINI-style refinement); the top-k shared across streams
// keeps the answer exact over a segmented view.  NN queries pin the
// index probe rather than consulting the planner: only the tree's
// best-first traversal yields that order, and a scan has no early
// termination, so it is never cheaper.  ctx is polled every
// verifyCheckInterval refined windows.
func execKNN(ctx context.Context, m *manifest, q Query, delta *SearchStats) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	n, sv, k := m.opts.WindowLen, m.sv, q.K
	slack := m.slack
	vq := newVerifier(sv, q.Vec, 0, q.Costs)
	pc := store.PageCounter{Pool: q.Pool}
	sc := acquireScratch()
	defer sc.release()
	stitch := sc.verifyWorkers(1, n)[0].stitch
	var best []Match // sorted ascending by Dist, at most k
	var candidates, exactChecks int
	var failed error

	// refine exact-checks one window against the running top-k.  Once the
	// top-k is full, certify runs first with the kth best distance as its
	// threshold: a window certainly farther, or certainly outside the cost
	// bounds, cannot enter the answer and skips the exact MinDist.
	refine := func(seq, start int) error {
		candidates++
		if candidates%verifyCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		w, err := sv.WindowViewInto(seq, start, n, stitch, &pc)
		if err != nil {
			return fmt.Errorf("core: nearest-neighbour refinement: %w", err)
		}
		if len(best) == k {
			ws, err := sv.WindowStats(seq, start, n)
			if err != nil {
				return fmt.Errorf("core: nearest-neighbour refinement: %w", err)
			}
			if verdict := vq.certify(w, ws); verdict == verdictFalseAlarm || verdict == verdictCostRejected {
				return nil
			}
		}
		exactChecks++
		m := vq.q.MinDist(w)
		if !q.Costs.Allow(m.Scale, m.Shift) || (len(best) == k && m.Dist >= best[k-1].Dist) {
			return nil
		}
		pos := sort.Search(len(best), func(i int) bool { return best[i].Dist > m.Dist })
		if len(best) < k {
			best = append(best, Match{})
		}
		copy(best[pos+1:], best[pos:])
		best[pos] = Match{Seq: seq, Start: start, Name: sv.SequenceName(seq), Dist: m.Dist, Scale: m.Scale, Shift: m.Shift}
		if len(best) == k {
			vq.setEps(best[k-1].Dist)
		}
		return nil
	}
	m.nearest(q.Vec, sc, func(lb float64, seq, start int) bool {
		if failed != nil || (len(best) == k && lb > best[k-1].Dist+slack) {
			return false // this stream cannot improve the top-k
		}
		failed = refine(seq, start)
		return failed == nil
	})
	if failed != nil {
		return Result{}, failed
	}

	*delta = SearchStats{
		IndexNodeAccesses:  sc.tree.NodeAccesses,
		DataPageAccesses:   pc.Distinct(),
		Candidates:         candidates,
		Results:            len(best),
		ExactChecks:        exactChecks,
		LeafEntriesChecked: sc.tree.LeafEntriesChecked,
	}
	total := len(best)
	if q.Limit > 0 && q.Limit < total {
		best = best[:q.Limit]
	}
	return Result{Matches: best, Total: total}, nil
}

// execBatch fans queries over one index's Exec; *Index and
// *SegmentedIndex share it (a segmented batch pins a manifest per
// query, so each query is consistent and none holds a generation for
// the whole batch).
func execBatch(ctx context.Context, exec func(context.Context, Query, *SearchStats) (Result, error), queries []Query, parallelism int, stats *SearchStats) ([]Result, []BatchStatus, error) {
	if parallelism < 1 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > len(queries) {
		parallelism = len(queries)
	}
	results := make([]Result, len(queries))
	statuses := make([]BatchStatus, len(queries))
	perQuery := make([]SearchStats, len(queries))
	errs := make([]error, len(queries))
	for i := range statuses {
		statuses[i] = BatchIncomplete
	}

	var wg sync.WaitGroup
	// Buffered and pre-filled so workers never block on the feed: a
	// worker that sees cancellation simply stops draining.
	next := make(chan int, len(queries))
	for i := range queries {
		next <- i
	}
	close(next)
	for g := 0; g < parallelism; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if ctx.Err() != nil {
					return // remaining queries stay BatchIncomplete
				}
				func(i int) {
					defer recoverWorkerPanic("batch search", nil, nil, &errs[i])
					results[i], errs[i] = exec(ctx, queries[i], &perQuery[i])
				}(i)
				if errs[i] == nil {
					statuses[i] = BatchComplete
				}
			}
		}()
	}
	wg.Wait()

	// Classify failures: context errors mark their query incomplete
	// (the batch still returns partial results); anything else is
	// fatal for the whole batch.
	canceled := ctx.Err() != nil
	for i, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			canceled = true
			results[i] = Result{}
			continue
		}
		return nil, nil, fmt.Errorf("core: batch query %d: %w", i, err)
	}
	if stats != nil {
		for i := range perQuery {
			if statuses[i] == BatchComplete {
				stats.Add(perQuery[i])
			}
		}
	}
	if !canceled {
		return results, statuses, nil
	}
	err := ctx.Err()
	if err == nil {
		// A per-query context error surfaced before ctx.Err()
		// transitioned (possible with per-query deadlines seen
		// through the shared ctx); report the first one.
		for _, e := range errs {
			if e != nil {
				err = e
				break
			}
		}
	}
	return results, statuses, err
}
