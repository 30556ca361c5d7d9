package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"scaleshift/internal/bench/rstar"
	"scaleshift/internal/core"
	"scaleshift/internal/euclid"
	"scaleshift/internal/query"
	"scaleshift/internal/seqscan"
	"scaleshift/internal/store"
	"scaleshift/internal/vec"
)

// AblationRow is one configuration of an ablation sweep, measured at a
// single representative ε fraction.
type AblationRow struct {
	// Label names the varied parameter value.
	Label string
	// BuildTime is the index construction time.
	BuildTime time.Duration
	// IndexPages is the total index size in pages.
	IndexPagesTotal int
	// CPUPerQuery and PagesPerQuery mirror the figure metrics.
	CPUPerQuery   time.Duration
	PagesPerQuery float64
	// Candidates and FalseAlarms are per-query averages.
	Candidates, FalseAlarms, Results float64
}

// runAblationPoint grows the insert-built tree for cfg over fresh data
// and measures the tree-EE method at epsFrac.
func runAblationPoint(cfg Config, label string, epsFrac float64) (AblationRow, error) {
	env, err := newWorkload(cfg)
	if err != nil {
		return AblationRow{}, fmt.Errorf("bench: ablation %q: %w", label, err)
	}
	row, err := env.runPoint(TreeEE, epsFrac)
	if err != nil {
		return AblationRow{}, fmt.Errorf("bench: ablation %q: %w", label, err)
	}
	return AblationRow{
		Label:           label,
		BuildTime:       env.insert.BuildTime,
		IndexPagesTotal: env.insert.Slab.NodeCount(),
		CPUPerQuery:     row.CPUPerQuery,
		PagesPerQuery:   row.PagesPerQuery,
		Candidates:      row.Candidates,
		FalseAlarms:     row.FalseAlarms,
		Results:         row.Results,
	}, nil
}

// SplitAblation compares the three split algorithms (abl-split in
// DESIGN.md).
func SplitAblation(base Config, epsFrac float64) ([]AblationRow, error) {
	var out []AblationRow
	for _, split := range []rstar.SplitAlgorithm{rstar.SplitRStar, rstar.SplitQuadratic, rstar.SplitLinear} {
		cfg := base
		cfg.Split = split
		row, err := runAblationPoint(cfg, split.String(), epsFrac)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// DimsAblation sweeps the retained DFT coefficient count f_c
// (abl-dims).  The paper adopts f_c = 3 from [2]; the sweep shows the
// candidate-set/false-alarm trade-off.
func DimsAblation(base Config, fcs []int, epsFrac float64) ([]AblationRow, error) {
	var out []AblationRow
	for _, fc := range fcs {
		cfg := base
		cfg.Coefficients = fc
		row, err := runAblationPoint(cfg, fmt.Sprintf("fc=%d (dim %d)", fc, 2*fc), epsFrac)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// WindowAblation sweeps the extracting-window length n (abl-window).
func WindowAblation(base Config, windows []int, epsFrac float64) ([]AblationRow, error) {
	var out []AblationRow
	for _, n := range windows {
		cfg := base
		cfg.WindowLen = n
		row, err := runAblationPoint(cfg, fmt.Sprintf("n=%d", n), epsFrac)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// FanoutAblation sweeps the node capacity M (abl-fanout), deriving m
// and p as in §7.
func FanoutAblation(base Config, fanouts []int, epsFrac float64) ([]AblationRow, error) {
	var out []AblationRow
	for _, M := range fanouts {
		cfg := base
		cfg.MaxEntries = M
		row, err := runAblationPoint(cfg, fmt.Sprintf("M=%d", M), epsFrac)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// ReductionAblation compares the DFT feature basis against the Haar
// wavelet basis at matched index dimensionality (abl-reduction).
func ReductionAblation(base Config, epsFrac float64) ([]AblationRow, error) {
	var out []AblationRow
	for _, kind := range []core.ReductionKind{core.ReductionDFT, core.ReductionHaar} {
		cfg := base
		cfg.Reduction = kind
		row, err := runAblationPoint(cfg, kind.String(), epsFrac)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// IndexAblation compares the R*-tree against the X-tree (supernodes,
// Berchtold et al. [23]) at the paper's 6 dimensions and at 12
// dimensions, where directory overlap — the X-tree's target problem —
// grows (abl-index).
func IndexAblation(base Config, epsFrac float64) ([]AblationRow, error) {
	var out []AblationRow
	for _, fc := range []int{3, 6} {
		for _, overlap := range []float64{0, 0.2} {
			cfg := base
			cfg.Coefficients = fc
			cfg.SupernodeMaxOverlap = overlap
			label := fmt.Sprintf("rstar dim=%d", 2*fc)
			if overlap > 0 {
				label = fmt.Sprintf("xtree dim=%d", 2*fc)
			}
			row, err := runAblationPoint(cfg, label, epsFrac)
			if err != nil {
				return nil, err
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// BuildAblation compares one-by-one R* insertion against the serving
// index's STR bulk load (abl-build in DESIGN.md): construction time,
// index size, and query cost of the resulting trees.
func BuildAblation(base Config, epsFrac float64) ([]AblationRow, error) {
	insertRow, err := runAblationPoint(base, "insert-built", epsFrac)
	if err != nil {
		return nil, err
	}
	env, err := NewEnv(base)
	if err != nil {
		return nil, fmt.Errorf("bench: ablation bulk-built: %w", err)
	}
	agg, cpu, err := env.execAll(env.Index, func(q vec.Vector) core.Query { return core.Query{Vec: q, Eps: epsFrac * env.NormScale} })
	if err != nil {
		return nil, fmt.Errorf("bench: ablation bulk-built: %w", err)
	}
	nq := float64(len(env.Queries))
	return []AblationRow{insertRow, {
		Label:           "bulk-built",
		BuildTime:       env.BuildTime,
		IndexPagesTotal: env.Index.IndexPageCount(),
		CPUPerQuery:     cpu,
		PagesPerQuery:   float64(agg.IndexNodeAccesses)/nq + float64(agg.DataPageAccesses)/nq,
		Candidates:      float64(agg.Candidates) / nq,
		FalseAlarms:     float64(agg.FalseAlarms) / nq,
		Results:         float64(agg.Results) / nq,
	}}, nil
}

// NNPoint measures the nearest-neighbour extension (Corollary 1):
// average CPU time and page accesses of k-NN queries against the
// sequential oracle's cost.
type NNPoint struct {
	K             int
	CPUPerQuery   time.Duration
	PagesPerQuery float64
	Candidates    float64
}

// RunNearestNeighbor sweeps k for the tree-based k-NN search.
func (e *Env) RunNearestNeighbor(ks []int) ([]NNPoint, error) {
	var out []NNPoint
	nq := float64(len(e.Queries))
	for _, k := range ks {
		agg, cpu, err := e.execAll(e.Index, func(q vec.Vector) core.Query { return core.Query{Vec: q, K: k} })
		if err != nil {
			return nil, err
		}
		out = append(out, NNPoint{
			K:             k,
			CPUPerQuery:   cpu,
			PagesPerQuery: float64(agg.IndexNodeAccesses+agg.DataPageAccesses) / nq,
			Candidates:    float64(agg.Candidates) / nq,
		})
	}
	return out, nil
}

// ProbePoint is the index phase of the workload at one ε, per query:
// what a change to the tree's layout or kernels moves, apart from the
// verification it feeds.
type ProbePoint struct {
	EpsFrac float64
	// Nodes and LeafChecks count index pages read and leaf entries
	// tested, DirTests the directory entries tested on the way (slab or
	// sphere tests of MBRs, box tests of a direction-box directory);
	// Candidates counts what the probe hands the verifier.
	Nodes, LeafChecks, DirTests, Candidates float64
	// Accepted counts the directory entries accepted whole (every point
	// beneath them within ε: the a ≈ 0 shell), Untested the leaf points
	// they forwarded without a leaf check.
	Accepted, Untested float64
	// ProbeTime is the engine's probe stage, VerifyTime what follows it.
	ProbeTime, VerifyTime time.Duration
}

// RunProbeSweep runs the workload's range queries at each ε fraction,
// with the row limit ssserve defaults to.
func (e *Env) RunProbeSweep(epsFracs []float64) ([]ProbePoint, error) {
	var out []ProbePoint
	nq := float64(len(e.Queries))
	for _, frac := range epsFracs {
		agg, _, err := e.execAll(e.Index, func(q vec.Vector) core.Query { return core.Query{Vec: q, Eps: frac * e.NormScale, Limit: 100} })
		if err != nil {
			return nil, err
		}
		out = append(out, ProbePoint{
			EpsFrac:    frac,
			Nodes:      float64(agg.IndexNodeAccesses) / nq,
			LeafChecks: float64(agg.LeafEntriesChecked) / nq,
			DirTests:   float64(agg.Penetration.SlabTests+agg.Penetration.SphereTests) / nq,
			Candidates: float64(agg.Candidates) / nq,
			Accepted:   float64(agg.SubtreesAccepted) / nq,
			Untested:   float64(agg.LeafEntriesAccepted) / nq,
			ProbeTime:  time.Duration(float64(agg.ProbeTime) / nq),
			VerifyTime: time.Duration(float64(agg.VerifyTime) / nq),
		})
	}
	return out, nil
}

// BufferPoint is one LRU buffer-pool size in the warm-cache sweep.
type BufferPoint struct {
	// PoolPages is the buffer capacity in 4 KB pages.
	PoolPages int
	// ScanMissRate and TreeMissRate are disk-fetch fractions of the
	// data-page touches under a cache kept warm across the workload.
	ScanMissRate float64
	TreeMissRate float64
}

// RunBufferSweep models a bounded LRU buffer shared across the query
// workload (data pages only; the directory is assumed resident as in
// the paper's Figure 5 counting).  A sequential scan floods the LRU —
// with any capacity below the database size it misses on essentially
// every page — while the tree method re-touches the hot pages of
// popular candidate regions and benefits from the cache.
func (e *Env) RunBufferSweep(sizes []int, epsFrac float64) ([]BufferPoint, error) {
	eps := epsFrac * e.NormScale
	var out []BufferPoint
	for _, size := range sizes {
		point := BufferPoint{PoolPages: size}

		// Sequential scan: two passes, measure the second (warm) pass.
		pool := store.NewBufferPool(size)
		for pass := 0; pass < 2; pass++ {
			pool.ResetStats()
			for _, q := range e.Queries {
				pc := store.PageCounter{Pool: pool}
				if _, err := seqscan.Search(e.Store, q.Values, eps, nil, &pc); err != nil {
					return nil, err
				}
			}
		}
		if total := pool.Hits() + pool.Misses(); total > 0 {
			point.ScanMissRate = float64(pool.Misses()) / float64(total)
		}

		// Tree method: warm pass then measured pass over the same pool.
		pool = store.NewBufferPool(size)
		for pass := 0; pass < 2; pass++ {
			pool.ResetStats()
			// The executor owns its PageCounter; Query.Pool attaches the
			// shared pool to it, so false alarms are charged as well as
			// matches.
			if _, _, err := e.execAll(e.Index, func(q vec.Vector) core.Query { return core.Query{Vec: q, Eps: eps, Pool: pool} }); err != nil {
				return nil, err
			}
		}
		if total := pool.Hits() + pool.Misses(); total > 0 {
			point.TreeMissRate = float64(pool.Misses()) / float64(total)
		}
		out = append(out, point)
	}
	return out, nil
}

// WriteBufferTable renders the warm-cache sweep.
func WriteBufferTable(w io.Writer, points []BufferPoint, dataPages int) error {
	var b strings.Builder
	fmt.Fprintf(&b, "Warm LRU buffer pool, data pages only (database: %d pages)\n", dataPages)
	fmt.Fprintf(&b, "%-12s %16s %16s\n", "pool-pages", "scan miss-rate", "tree miss-rate")
	b.WriteString(strings.Repeat("-", 46))
	b.WriteByte('\n')
	for _, p := range points {
		fmt.Fprintf(&b, "%-12d %15.1f%% %15.1f%%\n",
			p.PoolPages, 100*p.ScanMissRate, 100*p.TreeMissRate)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// RecallPoint measures source-window recall under additive noise: the
// query is a database window disguised by random scale/shift AND
// Gaussian noise of the given σ, and each method searches with an ε
// budget calibrated to that noise (ε = 1.3·σ·√n plus a tiny floor).
type RecallPoint struct {
	NoiseStd float64
	Eps      float64
	// ScaleShiftRecall and EuclidRecall are the fractions of queries
	// whose source window was retrieved.
	ScaleShiftRecall float64
	EuclidRecall     float64
}

// RecallSweep quantifies the paper's motivation (§1) and the role of ε:
// the Euclidean index [1,2] cannot see through the scale/shift
// disguise at any noise level, while the scale/shift index keeps full
// recall as long as ε covers the noise.
func RecallSweep(cfg Config, noises []float64) ([]RecallPoint, error) {
	env, err := NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	st, ss := env.Store, env.Index
	euOpts := euclid.DefaultOptions()
	euOpts.WindowLen = cfg.WindowLen
	eu, err := euclid.NewIndex(st, euOpts)
	if err != nil {
		return nil, err
	}
	if err := eu.Build(); err != nil {
		return nil, err
	}

	var out []RecallPoint
	rootN := math.Sqrt(float64(cfg.WindowLen))
	for _, sigma := range noises {
		qcfg := query.DefaultConfig()
		qcfg.N = cfg.Queries
		qcfg.WindowLen = cfg.WindowLen
		qcfg.Seed = cfg.Seed + 11
		qcfg.NoiseStd = sigma
		qs, err := query.Generate(st, qcfg)
		if err != nil {
			return nil, err
		}
		eps := 1.3 * sigma * rootN
		point := RecallPoint{NoiseStd: sigma, Eps: eps}
		for _, q := range qs {
			// Noise is applied after the disguise q = a·w + b + noise, so
			// matching the source means mapping q back with scale 1/a and
			// the noise residual becomes ‖noise‖/a ≈ σ√n/a — small scales
			// amplify it.  Budget accordingly; the floor covers
			// floating-point cancellation, which grows with magnitude.
			qEps := eps*math.Max(1, 1/q.Scale) + 1e-7*(1+vec.Norm(q.Values))
			ssRes, err := ss.Exec(context.Background(), core.Query{Vec: q.Values, Eps: qEps}, nil)
			if err != nil {
				return nil, err
			}
			for _, m := range ssRes.Matches {
				if m.Seq == q.Seq && m.Start == q.Start {
					point.ScaleShiftRecall++
					break
				}
			}
			euRes, err := eu.Search(q.Values, qEps, nil)
			if err != nil {
				return nil, err
			}
			for _, m := range euRes {
				if m.Seq == q.Seq && m.Start == q.Start {
					point.EuclidRecall++
					break
				}
			}
		}
		point.ScaleShiftRecall /= float64(len(qs))
		point.EuclidRecall /= float64(len(qs))
		out = append(out, point)
	}
	return out, nil
}

// WriteRecallTable renders the noise sweep.
func WriteRecallTable(w io.Writer, points []RecallPoint) error {
	var b strings.Builder
	b.WriteString("Source recall under scale/shift disguise + Gaussian noise\n")
	fmt.Fprintf(&b, "%-10s %-12s %18s %18s\n", "noise σ", "eps", "scale/shift index", "euclidean [1,2]")
	b.WriteString(strings.Repeat("-", 62))
	b.WriteByte('\n')
	for _, p := range points {
		fmt.Fprintf(&b, "%-10.3g %-12.4g %17.0f%% %17.0f%%\n",
			p.NoiseStd, p.Eps, 100*p.ScaleShiftRecall, 100*p.EuclidRecall)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
