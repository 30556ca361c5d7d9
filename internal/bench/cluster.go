package bench

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http/httptest"
	"net/url"
	"sort"
	"strconv"
	"time"

	"scaleshift/internal/cluster"
	"scaleshift/internal/core"
	"scaleshift/internal/query"
	"scaleshift/internal/vec"
)

// ClusterReport measures the scatter-gather serving overhead: the same
// store, the same queries, answered by a single in-process index and by
// a coordinator fanning out to N shard HTTP servers with exact merges.
// The gap is the cost of distribution — JSON on the wire, the fan-out,
// and the merge — and the exactness columns are the acceptance gate:
// the cluster answer must be bit-identical to the single node's, every
// time, with full coverage.
type ClusterReport struct {
	Shards int `json:"shards"`

	// Range-query throughput, single node vs coordinator fan-out, and
	// the resulting slowdown factor (single / cluster).
	SingleQPS  float64 `json:"single_qps"`
	ClusterQPS float64 `json:"cluster_qps"`
	Overhead   float64 `json:"overhead_x"`

	// Exactness over every benchmarked query: a mismatch is a cluster
	// answer not bit-identical to the single-node oracle; a partial is
	// an answer with any shard missing.  Both must be zero on a healthy
	// fleet — the benchmark doubles as an equivalence sweep.
	QueriesChecked int `json:"queries_checked"`
	Mismatches     int `json:"mismatches"`
	Partials       int `json:"partials"`
}

// Enforce fails if the cluster path returned anything other than exact,
// fully-covered answers.  Overhead is reported, not gated: it varies
// with the machine, while exactness must not.
func (r *ClusterReport) Enforce() error {
	if r.Mismatches != 0 {
		return fmt.Errorf("cluster: %d of %d scatter-gather answers differ from the single-node oracle", r.Mismatches, r.QueriesChecked)
	}
	if r.Partials != 0 {
		return fmt.Errorf("cluster: %d of %d answers had partial coverage on a healthy fleet", r.Partials, r.QueriesChecked)
	}
	return nil
}

// clusterKey canonicalizes a match for cross-representation comparison;
// float64 fields compare by bit pattern, never by tolerance.
type clusterKey struct {
	name              string
	start             int
	dist, scale, shft uint64
}

// RunCluster executes the distribution-overhead experiment and prints a
// human summary to stdout alongside the returned report.
func RunCluster(cfg Config, shards int, stdout io.Writer) (*ClusterReport, error) {
	rep := &ClusterReport{Shards: shards}
	fmt.Fprintf(stdout, "cluster: building %d x %d (window %d), %d shards...\n",
		cfg.Companies, cfg.Days, cfg.WindowLen, shards)
	env, err := NewEnvBuilt(cfg, BuildBulk)
	if err != nil {
		return nil, err
	}
	eps := 0.05 * env.NormScale
	queries := make([]vec.Vector, len(env.Queries))
	for i := range env.Queries {
		queries[i] = env.Queries[i].Values
	}
	reps := 3
	if cfg.Companies <= 100 {
		reps = 10
	}

	// The fleet: hash-partition the store, one index + HTTP server per
	// shard, and a coordinator with the bench process as its client.
	parts, man, err := cluster.Partition(env.Store, shards)
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions()
	opts.WindowLen = cfg.WindowLen
	servers := make([]*httptest.Server, shards)
	addrs := make([]string, shards)
	for i, p := range parts {
		ix, err := core.NewIndex(p, opts)
		if err == nil {
			err = ix.Build()
		}
		if err != nil {
			return nil, err
		}
		norm, err := query.SENormScale(p, cfg.WindowLen, 100, cfg.Seed+2)
		if err != nil {
			return nil, err
		}
		servers[i] = httptest.NewServer(cluster.NewShardNode(ix, norm).Handler())
		defer servers[i].Close()
		addrs[i] = servers[i].Listener.Addr().String()
	}
	ctx := context.Background()
	coord, err := cluster.NewCoordinator(ctx, cluster.CoordinatorConfig{
		Manifest:       man,
		Addrs:          addrs,
		ConnectTimeout: 30 * time.Second,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return nil, err
	}

	// Pre-encode every query once: the wire format is part of the cost
	// being measured (the shard re-parses it), but formatting the URL is
	// the client's job, not the serving path's.
	params := make([]url.Values, len(queries))
	epsStr := strconv.FormatFloat(eps, 'g', -1, 64)
	for i, q := range queries {
		vals := make([]byte, 0, 16*len(q))
		for j, v := range q {
			if j > 0 {
				vals = append(vals, ',')
			}
			vals = strconv.AppendFloat(vals, v, 'g', -1, 64)
		}
		p := url.Values{}
		p.Set("values", string(vals))
		p.Set("eps", epsStr)
		params[i] = p
	}

	// Exactness sweep first: every cluster answer against the in-process
	// oracle, canonically sorted, compared bit-for-bit.
	for i, q := range queries {
		oracle, err := env.Index.Exec(context.Background(), core.Query{Vec: q, Eps: eps}, nil)
		if err != nil {
			return nil, err
		}
		gr := coord.Scatter(ctx, params[i], 0, "")
		rep.QueriesChecked++
		if gr.Partial() || gr.ClientErr != nil {
			rep.Partials++
			continue
		}
		if !clusterAnswersEqual(oracle.Matches, gr.Matches) {
			rep.Mismatches++
		}
	}

	// Throughput: interleaved rounds, best matched pair (the same
	// least-noise discipline the ingest gate uses).
	rangeSingle := func(q vec.Vector) error {
		_, err := env.Index.Exec(context.Background(), core.Query{Vec: q, Eps: eps}, nil)
		return err
	}
	bestRatio := math.Inf(-1)
	const rounds = 3
	for r := 0; r < rounds; r++ {
		single, _, err := measureQPS(reps, queries, rangeSingle)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		ops := 0
		for rr := 0; rr < reps; rr++ {
			for i := range queries {
				gr := coord.Scatter(ctx, params[i], 0, "")
				if gr.Failed > 0 {
					return nil, fmt.Errorf("cluster: shard failure mid-benchmark: %+v", gr.Coverage)
				}
				ops++
			}
		}
		clusterQPS := float64(ops) / time.Since(start).Seconds()
		if ratio := clusterQPS / single; ratio > bestRatio {
			bestRatio = ratio
			rep.SingleQPS, rep.ClusterQPS = single, clusterQPS
		}
	}
	if rep.ClusterQPS > 0 {
		rep.Overhead = rep.SingleQPS / rep.ClusterQPS
	}

	fmt.Fprintf(stdout, "cluster: %d shards  single %.0f qps  cluster %.0f qps  overhead %.2fx  exact %d/%d  partial %d\n\n",
		shards, rep.SingleQPS, rep.ClusterQPS, rep.Overhead,
		rep.QueriesChecked-rep.Mismatches, rep.QueriesChecked, rep.Partials)
	return rep, nil
}

// clusterAnswersEqual compares a single-node result set and a gathered
// wire result set as canonical multisets, bit-exactly.
func clusterAnswersEqual(oracle []core.Match, got []cluster.WireMatch) bool {
	if len(oracle) != len(got) {
		return false
	}
	a := make([]clusterKey, len(oracle))
	for i, m := range oracle {
		a[i] = clusterKey{m.Name, m.Start, math.Float64bits(m.Dist), math.Float64bits(m.Scale), math.Float64bits(m.Shift)}
	}
	b := make([]clusterKey, len(got))
	for i, m := range got {
		b[i] = clusterKey{m.Name, m.Start, math.Float64bits(m.Dist), math.Float64bits(m.Scale), math.Float64bits(m.Shift)}
	}
	less := func(s []clusterKey) func(i, j int) bool {
		return func(i, j int) bool {
			if s[i].name != s[j].name {
				return s[i].name < s[j].name
			}
			return s[i].start < s[j].start
		}
	}
	sort.Slice(a, less(a))
	sort.Slice(b, less(b))
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
