package core

import (
	"sync"
	"time"

	"scaleshift/internal/engine"
	"scaleshift/internal/obs"
	"scaleshift/internal/rtree"
)

// Instrumentation hooks: every completed query feeds its SearchStats
// delta into the obs default registry.  Recording is one atomic add
// per field — race-free under concurrent ExecBatch workers — and the
// whole function is skipped with a single atomic load when the
// observability layer is disabled, so library embedders pay nothing.

// cm holds the registered metric handles, created once on first
// recording after obs.Enable (registration takes a lock; recording
// must not).
var cm struct {
	once sync.Once

	searches     *obs.Counter
	searchErrors *obs.Counter
	candidates   *obs.Counter
	falseAlarms  *obs.Counter
	costRejected *obs.Counter
	exactChecks  *obs.Counter
	matches      *obs.Counter
	nodeReads    *obs.Counter
	dataPages    *obs.Counter
	probeFanouts *obs.Counter
	pathProbes   [engine.NumPathKinds]*obs.Counter

	searchDur  *obs.Histogram
	planDur    *obs.Histogram
	probeDur   *obs.Histogram
	verifyDur  *obs.Histogram
	candPerQ   *obs.Histogram
	matchPerQ  *obs.Histogram
	piecesPerQ *obs.Histogram

	buildStage [3]*obs.Histogram // extract, tile, emit

	compactions  *obs.Counter
	compactBuild *obs.Histogram
	compactPause *obs.Histogram
	deltaApply   *obs.Histogram
}

func initCoreMetrics() {
	r := obs.Default
	cm.searches = r.Counter("scaleshift_searches_total",
		"Queries executed: range, long (a multipiece query counts once) and k-NN.")
	cm.searchErrors = r.Counter("scaleshift_search_errors_total",
		"Queries that returned an error (including cancellation).")
	cm.candidates = r.Counter("scaleshift_candidates_total",
		"Candidate windows emitted by index probes and handed to verification.")
	cm.falseAlarms = r.Counter("scaleshift_false_alarms_total",
		"Candidates rejected by the exact distance check.")
	cm.costRejected = r.Counter("scaleshift_cost_rejected_total",
		"Exact matches rejected by the transformation cost bounds.")
	cm.exactChecks = r.Counter("scaleshift_exact_checks_total",
		"Candidates that paid the exact distance pass (returned rows and windows the certified bound left undecided); k-NN refinements included.")
	cm.matches = r.Counter("scaleshift_matches_total",
		"Matches found (all of them, whatever row limit the query carried).")
	cm.nodeReads = r.Counter("scaleshift_index_node_reads_total",
		"R*-tree index pages read by searches.")
	cm.probeFanouts = r.Counter("scaleshift_probe_fanouts_total",
		"Frozen-segment descents whose subtrees ran on several workers (a wide probe).")
	cm.dataPages = r.Counter("scaleshift_data_page_reads_total",
		"Distinct data pages fetched during verification (per-query distinct counts, summed).")
	for k := engine.PathRTree; k < engine.NumPathKinds; k++ {
		cm.pathProbes[k] = r.Counter("scaleshift_path_probes_total",
			"Index-phase probes served, by access path.",
			obs.Label{Key: "path", Value: k.String()})
	}
	cm.searchDur = r.DurationHistogram("scaleshift_search_duration_seconds",
		"End-to-end query latency (plan+probe+verify; seeds+range+verify for k-NN).")
	cm.planDur = r.DurationHistogram("scaleshift_plan_duration_seconds",
		"Plan stage latency: a probe's preparation (SE-line and engine query).")
	cm.probeDur = r.DurationHistogram("scaleshift_probe_duration_seconds",
		"Index-probe stage latency.")
	cm.verifyDur = r.DurationHistogram("scaleshift_verify_duration_seconds",
		"Verification stage latency.")
	cm.candPerQ = r.Histogram("scaleshift_candidates_per_query",
		"Candidate windows per query.")
	cm.matchPerQ = r.Histogram("scaleshift_matches_per_query",
		"Matches per query.")
	cm.piecesPerQ = r.Histogram("scaleshift_pieces_per_query",
		"Index probes per query (1 for plain range queries, k for multipiece).")
	for i, stage := range []string{"extract", "tile", "emit"} {
		cm.buildStage[i] = r.DurationHistogram("scaleshift_index_build_stage_seconds",
			"Bulk build stages (cold start, compaction, delta freeze): feature extraction into columns, tiling (polar keys, sorts, directory extents), arena emission.",
			obs.Label{Key: "stage", Value: stage})
	}
	cm.compactions = r.Counter("scaleshift_compactions_total",
		"Segment compactions completed (merges and delta freezes).")
	cm.compactBuild = r.DurationHistogram("scaleshift_compaction_build_seconds",
		"Compaction build phase: constructing the replacement segment off-lock.")
	cm.compactPause = r.DurationHistogram("scaleshift_compaction_pause_seconds",
		"Compaction swap pause: queries blocked while the segment list swaps.")
	cm.deltaApply = r.DurationHistogram("scaleshift_delta_apply_seconds",
		"Ingest delta application: appending points to the mutable tail under the index lock.")
}

// recordSearchMetrics publishes one completed query's stats delta.
// elapsed is its end-to-end latency and pieces the number of
// window-length pieces it probed — 0 for a k-NN query, which counts as
// a search and towards the page-read totals but stays out of the
// candidate ledger and the per-stage histograms: it refines candidates
// without classifying them, so counting them would break
// candidates = false alarms + cost-rejected + matches on /metrics.
func recordSearchMetrics(d *SearchStats, elapsed time.Duration, pieces int) {
	if !obs.Enabled() {
		return
	}
	cm.once.Do(initCoreMetrics)
	cm.searches.Inc()
	cm.searchDur.ObserveDuration(elapsed)
	cm.nodeReads.Add(int64(d.IndexNodeAccesses))
	cm.dataPages.Add(int64(d.DataPageAccesses))
	cm.exactChecks.Add(int64(d.ExactChecks))
	if pieces == 0 {
		return
	}
	cm.candidates.Add(int64(d.Candidates))
	cm.falseAlarms.Add(int64(d.FalseAlarms))
	cm.costRejected.Add(int64(d.CostRejected))
	cm.matches.Add(int64(d.Results))
	for k := engine.PathRTree; k < engine.NumPathKinds; k++ {
		if n := d.PathProbes[k]; n > 0 {
			cm.pathProbes[k].Add(int64(n))
		}
	}
	cm.planDur.ObserveDuration(d.PlanTime)
	cm.probeDur.ObserveDuration(d.ProbeTime)
	cm.verifyDur.ObserveDuration(d.VerifyTime)
	cm.candPerQ.Observe(int64(d.Candidates))
	cm.matchPerQ.Observe(int64(d.Results))
	cm.piecesPerQ.Observe(int64(pieces))
}

// recordBuildStages publishes one bulk build's stage split; a stage that
// did not run (a delta freeze extracts nothing) is left out.
func recordBuildStages(st BuildStages) {
	if !obs.Enabled() {
		return
	}
	cm.once.Do(initCoreMetrics)
	for i, d := range []time.Duration{st.Extract, st.Tile, st.Emit} {
		if d > 0 {
			cm.buildStage[i].ObserveDuration(d)
		}
	}
}

// recordCompaction publishes one completed compaction's phase timings:
// build ran off-lock, pause is the query-visible swap window.
func recordCompaction(build, pause time.Duration) {
	if !obs.Enabled() {
		return
	}
	cm.once.Do(initCoreMetrics)
	cm.compactions.Inc()
	cm.compactBuild.ObserveDuration(build)
	cm.compactPause.ObserveDuration(pause)
}

// recordDeltaApply publishes one append's in-memory application time
// (WAL durability excluded — the wal package times its own fsync).
func recordDeltaApply(d time.Duration) {
	if !obs.Enabled() {
		return
	}
	cm.once.Do(initCoreMetrics)
	cm.deltaApply.ObserveDuration(d)
}

// recordProbeFanout counts one descent fanned out across workers.
func recordProbeFanout() {
	if !obs.Enabled() {
		return
	}
	cm.once.Do(initCoreMetrics)
	cm.probeFanouts.Inc()
}

// recordSearchError counts a failed query (validation, I/O, or
// cancellation).
func recordSearchError() {
	if !obs.Enabled() {
		return
	}
	cm.once.Do(initCoreMetrics)
	cm.searchErrors.Inc()
}

// spanEndWithError stamps err (when non-nil) on a span and ends it —
// the shared shutdown of the per-stage spans.
func spanEndWithError(s *obs.Span, err error) {
	if err != nil {
		s.SetAttr("error", err.Error())
	}
	s.End()
}

// endDescentSpan closes a per-descent span with the probe's node-read
// and leaf-check deltas (ts is cumulative across the segments and
// pieces of a query) plus the candidate count.
func endDescentSpan(s *obs.Span, ts *rtree.SearchStats, nodesBefore, leavesBefore, cands int, err error) {
	if s == nil {
		return
	}
	s.SetInt("nodes", int64(ts.NodeAccesses-nodesBefore))
	s.SetInt("leaf_checks", int64(ts.LeafEntriesChecked-leavesBefore))
	s.SetInt("candidates", int64(cands))
	spanEndWithError(s, err)
}
