//go:build unix

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/url"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"scaleshift/internal/cluster"
	"scaleshift/internal/core"
	"scaleshift/internal/engine"
	"scaleshift/internal/obs"
	"scaleshift/internal/store"
	"scaleshift/internal/vec"
)

// span is one timed interval of the traced pass.  Spans of one request
// share Query; Parent indexes the span that caused this one (-1 for a
// request's root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Query  int    `json:"query"`
}

// recorder keeps spans in memory until the run ends.  It is used from
// one goroutine.
type recorder struct {
	epoch time.Time
	on    bool
	spans []span
}

// add records a span and returns its index, or -1 with the recorder
// off.
func (rec *recorder) add(name string, start time.Time, dur time.Duration, parent, query int) int {
	if !rec.on {
		return -1
	}
	s := start.Sub(rec.epoch).Nanoseconds()
	rec.spans = append(rec.spans, span{Name: name, Start: s, End: s + dur.Nanoseconds(), Parent: parent, Query: query})
	return len(rec.spans) - 1
}

// selfTimes returns, per span name, every span's self time in
// microseconds: its duration minus the durations of its children,
// floored at zero.
func selfTimes(spans []span) map[string][]float64 {
	children := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][]float64{}
	for i, s := range spans {
		self := s.End - s.Start - children[i]
		if self < 0 {
			self = 0
		}
		out[s.Name] = append(out[s.Name], float64(self)/1e3)
	}
	return out
}

func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// searcher is the in-process replica's query entry point; core.Index
// and core.SegmentedIndex both provide it, with the signature ssserve
// itself calls.
type searcher interface {
	SearchPlannedContext(ctx context.Context, q vec.Vector, eps float64, costs core.CostBounds, force engine.PathKind, pool *store.BufferPool, stats *core.SearchStats) ([]core.Match, *engine.Explain, error)
}

// passStats accumulates what the traced pass counts per query.
type passStats struct {
	queries                                      int
	penetration, nodes, leafChecks               float64
	candidates, falseAlarms, dataPages, scanPath float64
	respBytes, wireBytes, attempts               float64
	planUS, probeUS, verifyUS                    []float64
	serverUS                                     []float64
	overheadUS                                   []float64
}

// tracedPass sends each traced query repeats times over one connection
// and, after each response, makes the same query against the
// in-process replica, recording spans around both.  It runs twice with
// identical work, recorder on and then off; the client latency of the
// second is returned for the overhead ratio.
func (r *runner) tracedPass(base string, rec *recorder, engineOf searcher, coord *cluster.Coordinator, shards *shardTap) (*passStats, []float64, error) {
	ctx := context.Background()
	n := len(r.data.queries)
	if r.wl.TraceQueries > 0 && r.wl.TraceQueries < n {
		n = r.wl.TraceQueries
	}
	repeats := r.wl.TraceRepeats
	if r.cfg.quick {
		repeats = 1
	}
	eps := r.data.eps(r.wl.Frac)
	var untraced []float64
	ps := &passStats{}
	for _, on := range []bool{true, false} {
		rec.on = on
		for rpt := 0; rpt < repeats; rpt++ {
			for i := 0; i < n; i++ {
				sent := time.Now()
				op, resp, bodyLen := r.rangeOp(base, i, false)
				if !op.ok {
					continue
				}
				clientDur := op.done.Sub(sent)
				root := rec.add("client.request", sent, clientDur, -1, i)
				if !on {
					untraced = append(untraced, float64(clientDur)/1e3)
				}
				q := r.data.queries[i].Values
				if coord != nil {
					if err := r.traceScatter(ctx, rec, root, i, q, eps, coord, shards, clientDur, on, ps); err != nil {
						return nil, nil, err
					}
				} else {
					var st core.SearchStats
					start := time.Now()
					matches, ex, err := engineOf.SearchPlannedContext(ctx, q, eps, core.UnboundedCosts(), engine.PathAuto, nil, &st)
					dur := time.Since(start)
					if err != nil {
						return nil, nil, fmt.Errorf("replica search: %w", err)
					}
					if !r.wl.Ingest && len(matches) != resp.Total {
						return nil, nil, fmt.Errorf("replica returned %d matches for query %d, server %d", len(matches), i, resp.Total)
					}
					search := rec.add("core.search", start, dur, root, i)
					at := start
					for _, stage := range []struct {
						name string
						d    time.Duration
					}{{"engine.plan", st.PlanTime}, {"rtree.probe", st.ProbeTime}, {"vec.verify", st.VerifyTime}} {
						rec.add(stage.name, at, stage.d, search, i)
						at = at.Add(stage.d)
					}
					if on {
						ps.penetration += float64(st.Penetration.SlabTests + st.Penetration.SphereTests)
						ps.nodes += float64(st.IndexNodeAccesses)
						ps.leafChecks += float64(st.LeafEntriesChecked)
						ps.candidates += float64(st.Candidates)
						ps.falseAlarms += float64(st.FalseAlarms)
						ps.dataPages += float64(st.DataPageAccesses)
						if ex != nil && ex.Chosen == engine.PathScan {
							ps.scanPath++
						}
						ps.planUS = append(ps.planUS, float64(st.PlanTime)/1e3)
						ps.probeUS = append(ps.probeUS, float64(st.ProbeTime)/1e3)
						ps.verifyUS = append(ps.verifyUS, float64(st.VerifyTime)/1e3)
					}
				}
				if on {
					ps.queries++
					ps.respBytes += float64(bodyLen)
					ps.serverUS = append(ps.serverUS, float64(resp.ElapsedNs)/1e3)
				}
			}
		}
	}
	return ps, untraced, nil
}

// shardTap fetches the per-shard answers directly, so the merge can be
// timed on exactly the lists the coordinator merges.
type shardTap struct {
	cfg   *config
	bases []string
	man   *cluster.Manifest
	lists map[int][][]cluster.WireMatch
	bytes map[int]int
}

func (t *shardTap) fetch(i int, path string) ([][]cluster.WireMatch, int, error) {
	if lists, ok := t.lists[i]; ok {
		return lists, t.bytes[i], nil
	}
	var lists [][]cluster.WireMatch
	total := 0
	for s, base := range t.bases {
		status, body, _, err := t.cfg.get(base + path + "&limit=0")
		if err != nil {
			return nil, 0, err
		}
		if err := statusError(status, body); err != nil {
			return nil, 0, fmt.Errorf("shard %d: %w", s, err)
		}
		var wire cluster.SearchWire
		if err := json.Unmarshal(body, &wire); err != nil {
			return nil, 0, err
		}
		// The coordinator remaps shard-local sequence ids through the
		// manifest before merging; do the same so the merge sorts and
		// deduplicates the same keys.
		seqs := t.man.Shards[s].Seqs
		for k := range wire.Matches {
			wire.Matches[k].Seq = seqs[wire.Matches[k].Seq]
		}
		lists = append(lists, wire.Matches)
		total += len(body)
	}
	t.lists[i], t.bytes[i] = lists, total
	return lists, total, nil
}

// traceScatter is the cluster workload's in-process half: the same
// scatter the coordinator process performs, against the same live
// shards, with the straggler and the merge as child spans.
func (r *runner) traceScatter(ctx context.Context, rec *recorder, root, i int, q vec.Vector, eps float64, coord *cluster.Coordinator, shards *shardTap, clientDur time.Duration, on bool, ps *passStats) error {
	values := make([]string, len(q))
	for k, v := range q {
		values[k] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	params := url.Values{"values": {strings.Join(values, ",")}, "eps": {strconv.FormatFloat(eps, 'g', -1, 64)}}
	start := time.Now()
	g := coord.Scatter(ctx, params, 0, "")
	dur := time.Since(start)
	want := len(r.data.expect[i].Tight)
	if g.Failed > 0 || len(g.Matches) != want {
		return fmt.Errorf("in-process scatter for query %d: %d shards failed, %d matches, oracle %d", i, g.Failed, len(g.Matches), want)
	}
	var slowest time.Duration
	attempts := 0
	for _, o := range g.Coverage {
		slowest = max(slowest, o.Elapsed)
		attempts += o.Attempts
	}
	lists, wireBytes, err := shards.fetch(i, r.data.tightPath[i])
	if err != nil {
		return err
	}
	mergeStart := time.Now()
	merged := cluster.MergeRange(lists)
	mergeDur := time.Since(mergeStart)
	if len(merged) != want {
		return fmt.Errorf("merge of the tapped shard lists for query %d: %d matches, oracle %d", i, len(merged), want)
	}
	scatter := rec.add("cluster.scatter", start, dur, root, i)
	rec.add("cluster.shard_max", start, slowest, scatter, i)
	rec.add("cluster.merge", mergeStart, mergeDur, scatter, i)
	if on {
		ps.wireBytes += float64(wireBytes)
		ps.attempts += float64(attempts)
		ps.overheadUS = append(ps.overheadUS, float64(clientDur-slowest)/1e3)
		ps.nodes += float64(g.Stats.IndexNodeReads)
		ps.candidates += float64(g.Stats.Candidates)
		ps.falseAlarms += float64(g.Stats.FalseAlarms)
		ps.dataPages += float64(g.Stats.DataPageReads)
		ps.planUS = append(ps.planUS, float64(g.Stats.PlanNs)/1e3)
		ps.probeUS = append(ps.probeUS, float64(g.Stats.ProbeNs)/1e3)
		ps.verifyUS = append(ps.verifyUS, float64(g.Stats.VerifyNs)/1e3)
	}
	return nil
}

// newReplicaCoordinator points an in-process coordinator at the live
// shards of dep.
func newReplicaCoordinator(ctx context.Context, dep *deployment) (*cluster.Coordinator, *shardTap, error) {
	man, err := cluster.LoadManifest(filepath.Join(dep.dir, "cluster.ssman"))
	if err != nil {
		return nil, nil, err
	}
	tap := &shardTap{cfg: dep.cfg, man: man, lists: map[int][][]cluster.WireMatch{}, bytes: map[int]int{}}
	var addrs []string
	for _, p := range dep.procs[:len(dep.procs)-1] {
		addrs = append(addrs, p.base)
		tap.bases = append(tap.bases, p.base)
	}
	coord, err := cluster.NewCoordinator(ctx, cluster.CoordinatorConfig{
		Manifest: man,
		Addrs:    addrs,
		Registry: obs.NewRegistry(),
		Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	return coord, tap, err
}

// ladder turns the traced pass into per-layer metrics and the two
// reconciliations.
func ladder(wl *workload, rec *recorder, ps *passStats, untraced []float64, m, validity map[string]float64) {
	self := selfTimes(rec.spans)
	client := durations(rec.spans, "client.request")
	clientP50 := percentile(client, 0.5)
	perQuery := func(total float64) float64 {
		if ps.queries == 0 {
			return 0
		}
		return total / float64(ps.queries)
	}
	m["ssserve.handler_us"] = percentile(self["client.request"], 0.5)
	m["ssserve.resp_bytes"] = perQuery(ps.respBytes)
	m["engine.plan_us"] = percentile(ps.planUS, 0.5)
	m["rtree.probe_us"] = percentile(ps.probeUS, 0.5)
	m["vec.verify_us"] = percentile(ps.verifyUS, 0.5)
	m["rtree.nodes_per_query"] = perQuery(ps.nodes)
	m["vec.candidates_per_query"] = perQuery(ps.candidates)
	if ps.candidates > 0 {
		m["vec.false_alarm_frac"] = ps.falseAlarms / ps.candidates
	}
	m["store.pages_per_query"] = perQuery(ps.dataPages)

	var layers float64
	if wl.Cluster {
		m["cluster.scatter_us"] = percentile(durations(rec.spans, "cluster.scatter"), 0.5)
		m["cluster.shard_max_us"] = percentile(durations(rec.spans, "cluster.shard_max"), 0.5)
		m["cluster.merge_us"] = percentile(durations(rec.spans, "cluster.merge"), 0.5)
		m["cluster.overhead_us"] = percentile(ps.overheadUS, 0.5)
		m["cluster.wire_bytes_per_query"] = perQuery(ps.wireBytes)
		m["cluster.attempts_per_query"] = perQuery(ps.attempts)
		for _, name := range []string{"client.request", "cluster.scatter", "cluster.shard_max", "cluster.merge"} {
			layers += percentile(self[name], 0.5)
		}
	} else {
		m["core.search_us"] = percentile(durations(rec.spans, "core.search"), 0.5)
		m["geom.checks_per_query"] = perQuery(ps.penetration)
		m["rtree.leaf_checks_per_query"] = perQuery(ps.leafChecks)
		m["engine.scan_path_frac"] = perQuery(ps.scanPath)
		for _, name := range []string{"client.request", "core.search", "engine.plan", "rtree.probe", "vec.verify"} {
			layers += percentile(self[name], 0.5)
		}
		if server := percentile(ps.serverUS, 0.5); server > 0 {
			validity["search_inprocess_over_server"] = m["core.search_us"] / server
		}
	}
	if clientP50 > 0 {
		m["bench.trace_coverage"] = layers / clientP50
		if off := percentile(untraced, 0.5); off > 0 {
			m["bench.trace_overhead_frac"] = clientP50/off - 1
		}
	}
	validity["trace_coverage"] = m["bench.trace_coverage"]
}

// reconcile lists the traced run's self-checks that fall outside
// their tolerance.
func reconcile(wl *workload, validity map[string]float64) []string {
	var out []string
	within := func(name string, v float64) {
		if v < 0.85 || v > 1.15 {
			out = append(out, fmt.Sprintf("%s %s = %.3f, want 0.85-1.15", wl.Name, name, v))
		}
	}
	if !wl.Ingest {
		// The ingest replica's segment layout depends on when its
		// compactions ran, so its ladder is reported but not gated.
		within("trace_coverage", validity["trace_coverage"])
		if v, ok := validity["search_inprocess_over_server"]; ok {
			within("search_inprocess_over_server", v)
		}
	}
	return out
}
