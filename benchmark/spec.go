//go:build unix

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Everything a later issue may cite by name lives in this file: the
// workloads with their rates, and every metric with its unit and
// direction.  BENCHMARK.json at the repository root carries the same
// names (plus the bounds); TestNamesLint keeps the two in step.

const (
	// repetitions is R: every workload runs this many times, each from
	// fresh processes and a fresh directory, and a metric's value is the
	// median of the repetitions.
	repetitions = 3
	// defaultSeconds is BENCHMARK.json's run_seconds: the timed traffic
	// of one run, split evenly over the repetitions.
	defaultSeconds = 12
	// windowPasses whole passes over the query set make one window of an
	// open loop, so every window times the same mix of queries; the
	// latency metrics are read per window (see windowLatencies).
	windowPasses = 2
	// maxConns caps client connections; the effective count is
	// min(maxConns, nproc).
	maxConns = 2

	windowLen  = 128
	knnK       = 10
	tightFrac  = 0.001
	looseFrac  = 0.02
	appendSize = 16
	// seNormSamples and the seed passed with it fix ε's unit:
	// eps = frac × query.SENormScale(store, 128, 1000, seed).
	seNormSamples = 1000
	// looseFullChecks is how many range_loose queries get the full
	// limit=0 match-set comparison in each pre-pass; the rest are
	// checked by total_matches on every timed response.
	looseFullChecks = 5
	// durabilityQueries tight queries are compared against a sequential
	// scan of the mirror store after ingest_mixed's restart, spread
	// over the repetitions.
	durabilityQueries = 20
)

// One repetition's open loop lasts run_seconds / repetitions.  The
// traced repetition's extra phases are sized from it.
const (
	closedShare = 0.5  // closed loop, conns clients: this share of the open loop's length
	knnShare    = 0.15 // closed loop, 1 client, nn=10: knnNominalRate x this share, as a fixed count
)

type workload struct {
	Name string
	Why  string
	// Frac scales ε for the range queries of the open and closed phases.
	Frac float64
	// QueryRate is the open-loop search arrival rate (1/s), fixed at
	// roughly 40-50 % of the seed commit's closed-loop capacity on a
	// 2-core box.
	QueryRate float64
	// AppendRate is the open-loop POST /append rate beside the reader
	// (ingest_mixed only).
	AppendRate float64
	// Cluster runs three shard processes behind a coordinator.
	Cluster bool
	// Ingest runs one append-mode server with a WAL and checkpoints.
	Ingest bool
	// TraceRepeats is how often the traced pass sends each distinct
	// query; TraceQueries limits it to the first so many (0: all).
	TraceRepeats int
	TraceQueries int
}

const (
	shardCount = 3
	// knnNominalRate sizes the k-NN phase as a fixed count, so every run
	// of a seed times the same queries.
	knnNominalRate = 80
	// restartsPerTracedRep is how often the traced repetition SIGKILLs
	// and restarts its servers; ssserve.recovery_s is the median.  An
	// end-to-end repetition restarts once.
	restartsPerTracedRep = 3
	// settleAppends closed-loop appends follow each of the two
	// checkpoints that end ingest_mixed's traffic.
	settleAppends = 200
)

var workloads = []workload{
	{
		Name:         "range_tight",
		Why:          "eps 0.001: ~1 match, ~700 node reads; index probe and handler/JSON dominate, verify is bypassed",
		Frac:         tightFrac,
		QueryRate:    400,
		TraceRepeats: 3,
	},
	{
		Name:         "range_loose",
		Why:          "eps 0.02: ~45000 matches; candidate verify dominates, handler/JSON is under 5 %, the no-change twin for handler work",
		Frac:         looseFrac,
		QueryRate:    10,
		TraceRepeats: 1,
		TraceQueries: 40,
	},
	{
		Name:         "cluster_scatter",
		Why:          "range_tight's queries through 3 shards and a coordinator: the difference to range_tight is the cluster layer",
		Frac:         tightFrac,
		QueryRate:    150,
		Cluster:      true,
		TraceRepeats: 3,
	},
	{
		Name:         "ingest_mixed",
		Why:          "300 appends/s beside 100 tight queries/s on an append-mode server, then SIGKILL and recovery: WAL, delta, compaction, checkpoints",
		Frac:         tightFrac,
		QueryRate:    100,
		AppendRate:   300,
		Ingest:       true,
		TraceRepeats: 3,
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// metricDef names one metric.  Bound is only set for end-to-end
// metrics and mirrors BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is measured with the span recorder off, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"query_p50_ms", "ms", lower, 0.25},
	{"query_tail_ratio", "ratio", lower, 0.25},
	{"pages_per_query", "pages", lower, 0.25},
	{"space_amp", "ratio", lower, 0.1},
	{"rss_mb", "MB", lower, 0.25},
}

// perLayer comes from the traced run.  A layer a workload bypasses
// reports 0.
var perLayer = []metricDef{
	{Name: "geom.kernel_ns_per_node", Unit: "ns", Better: lower},
	{Name: "geom.checks_per_query", Unit: "count", Better: lower},
	{Name: "rtree.probe_us", Unit: "us", Better: lower},
	{Name: "rtree.nodes_per_query", Unit: "count", Better: lower},
	{Name: "rtree.leaf_checks_per_query", Unit: "count", Better: lower},
	{Name: "rtree.knn_us", Unit: "us", Better: lower},
	{Name: "vec.verify_us", Unit: "us", Better: lower},
	{Name: "vec.mindist_ns", Unit: "ns", Better: lower},
	{Name: "vec.candidates_per_query", Unit: "count", Better: lower},
	{Name: "vec.false_alarm_frac", Unit: "ratio", Better: lower},
	{Name: "store.window_ns", Unit: "ns", Better: lower},
	{Name: "store.pages_per_query", Unit: "count", Better: lower},
	{Name: "engine.plan_us", Unit: "us", Better: lower},
	{Name: "engine.scan_path_frac", Unit: "ratio", Better: lower},
	{Name: "core.search_us", Unit: "us", Better: lower},
	{Name: "core.search_allocs", Unit: "count", Better: lower},
	{Name: "core.search_bytes", Unit: "B", Better: lower},
	{Name: "core.build_ms", Unit: "ms", Better: lower},
	{Name: "core.open_ms", Unit: "ms", Better: lower},
	{Name: "core.append_us", Unit: "us", Better: lower},
	{Name: "core.compact_ms", Unit: "ms", Better: lower},
	{Name: "core.compact_pause_us", Unit: "us", Better: lower},
	{Name: "core.compactions", Unit: "count", Better: lower},
	{Name: "dft.slide_ns", Unit: "ns", Better: lower},
	{Name: "wal.append_us", Unit: "us", Better: lower},
	{Name: "wal.bytes_per_value", Unit: "B", Better: lower},
	{Name: "ckpt.install_ms", Unit: "ms", Better: lower},
	{Name: "ckpt.bytes_per_value", Unit: "B", Better: lower},
	{Name: "ckpt.count", Unit: "count", Better: lower},
	{Name: "ckpt.recover_ms", Unit: "ms", Better: lower},
	{Name: "cluster.scatter_us", Unit: "us", Better: lower},
	{Name: "cluster.shard_max_us", Unit: "us", Better: lower},
	{Name: "cluster.merge_us", Unit: "us", Better: lower},
	{Name: "cluster.overhead_us", Unit: "us", Better: lower},
	{Name: "cluster.wire_bytes_per_query", Unit: "B", Better: lower},
	{Name: "cluster.attempts_per_query", Unit: "count", Better: lower},
	{Name: "ssserve.handler_us", Unit: "us", Better: lower},
	{Name: "ssserve.resp_bytes", Unit: "B", Better: lower},
	{Name: "ssserve.allocs_per_req", Unit: "count", Better: lower},
	{Name: "ssserve.gc_pause_ms_per_s", Unit: "ms/s", Better: lower},
	{Name: "ssserve.shed_frac", Unit: "ratio", Better: lower},
	{Name: "ssserve.query_tail_ms", Unit: "ms", Better: lower},
	{Name: "ssserve.query_qps", Unit: "1/s", Better: higher},
	{Name: "ssserve.knn_p50_ms", Unit: "ms", Better: lower},
	{Name: "ssserve.recovery_s", Unit: "s", Better: lower},
	{Name: "ssserve.append_p50_ms", Unit: "ms", Better: lower},
	{Name: "ssserve.append_tail_ms", Unit: "ms", Better: lower},
	{Name: "ssserve.append_per_s", Unit: "1/s", Better: higher},
	{Name: "bench.gen_lag_ms", Unit: "ms", Better: lower},
	{Name: "bench.failed_frac", Unit: "ratio", Better: lower},
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: lower},
	{Name: "bench.trace_coverage", Unit: "ratio", Better: higher},
}

// benchmarkFile is the schema of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}
