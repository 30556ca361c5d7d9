package bench

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"scaleshift/internal/core"
	"scaleshift/internal/engine"
)

// CalibrationPoint is one cell of the planner calibration grid: one store
// size at one ε, with the auto plan timed against every forced access
// path over the same workload.
type CalibrationPoint struct {
	// Companies and Windows size the store at this cell.
	Companies, Windows int
	// EpsFrac and Eps locate the cell on the error-bound axis.
	EpsFrac, Eps float64
	// Chosen is the path the planner picked (the workload is uniform in
	// ε, so the choice is too).
	Chosen engine.PathKind
	// ForcedCPU is the average CPU per query with each path forced;
	// zero where the path is structurally unavailable.
	ForcedCPU [engine.NumPathKinds]time.Duration
	// AutoCPU is the average CPU per query under cost-based planning.
	AutoCPU time.Duration
	// Best is the fastest forced path, the oracle the planner chases.
	Best engine.PathKind
	// LossPct is how much slower auto ran than the oracle, in percent —
	// the planner's regret; negative means auto measured faster (timing
	// noise).
	LossPct float64
	// PredictedNodes and ActualNodes are the index probe's node reads per
	// query as the plan table priced them and as the forced probe counted
	// them: how well the estimate fits the directory it is asked about.
	PredictedNodes, ActualNodes float64
}

// Mispredicted reports whether this cell is a calibration miss: the
// planner's choice cost more than 10 % over the best forced path.
func (p CalibrationPoint) Mispredicted() bool { return p.LossPct > 10 }

// PlannerSweep calibrates the cost model over a store-size × ε grid.
// Each store size builds a fresh environment (bulk loading — the tree
// is identical to the insert-built one for planning purposes); each
// cell runs the whole workload once per available forced path and once
// under auto.
func PlannerSweep(base Config, companies []int, epsFracs []float64) ([]CalibrationPoint, error) {
	var out []CalibrationPoint
	for _, c := range companies {
		cfg := base
		cfg.Companies = c
		env, err := NewEnvBuilt(cfg, BuildBulk)
		if err != nil {
			return nil, fmt.Errorf("bench: planner sweep (%d companies): %w", c, err)
		}
		for _, frac := range epsFracs {
			p, err := env.runCalibrationPoint(frac)
			if err != nil {
				return nil, fmt.Errorf("bench: planner sweep (%d companies, eps %g): %w", c, frac, err)
			}
			out = append(out, p)
		}
	}
	return out, nil
}

// runCalibrationPoint measures one grid cell on e's workload.
func (e *Env) runCalibrationPoint(frac float64) (CalibrationPoint, error) {
	eps := frac * e.NormScale
	p := CalibrationPoint{
		Companies: e.Config.Companies,
		Windows:   e.Index.WindowCount(),
		EpsFrac:   frac,
		Eps:       eps,
	}
	nq := float64(len(e.Queries))

	// Untimed warm-up pass: settles the page cache and the allocator so
	// the first timed variant is not penalized, and reports the plan
	// and which paths exist.
	available := make([]engine.PathKind, 0, int(engine.NumPathKinds))
	for i, q := range e.Queries {
		res, err := e.Index.Exec(context.Background(), core.Query{Vec: q.Values, Eps: eps}, nil)
		if err != nil {
			return p, err
		}
		for _, plan := range res.Explain.Plans {
			if plan.Path == engine.PathRTree && plan.Available {
				p.PredictedNodes += plan.Cost.NodeReads / nq
			}
			if i == 0 && plan.Available {
				available = append(available, plan.Path)
			}
		}
		if i == 0 {
			p.Chosen = res.Explain.Chosen
		}
	}

	p.Best = available[0]
	for _, kind := range available {
		var agg core.SearchStats
		start := time.Now()
		for _, q := range e.Queries {
			if _, err := e.Index.Exec(context.Background(), core.Query{Vec: q.Values, Eps: eps, Force: kind}, &agg); err != nil {
				return p, err
			}
		}
		p.ForcedCPU[kind] = time.Duration(float64(time.Since(start)) / nq)
		if kind == engine.PathRTree {
			p.ActualNodes = float64(agg.IndexNodeAccesses) / nq
		}
		if p.ForcedCPU[kind] < p.ForcedCPU[p.Best] {
			p.Best = kind
		}
	}

	start := time.Now()
	for _, q := range e.Queries {
		if _, err := e.Index.Exec(context.Background(), core.Query{Vec: q.Values, Eps: eps}, nil); err != nil {
			return p, err
		}
	}
	p.AutoCPU = time.Duration(float64(time.Since(start)) / nq)
	p.LossPct = 100 * (float64(p.AutoCPU) - float64(p.ForcedCPU[p.Best])) / float64(p.ForcedCPU[p.Best])
	return p, nil
}

// WritePlannerTable renders the calibration grid — per cell the timings,
// the planner's regret (loss) and its predicted against the probe's
// actual node reads — and lists any cells where cost-based planning lost
// more than 10 % to the forced oracle.
func WritePlannerTable(w io.Writer, points []CalibrationPoint) error {
	var b strings.Builder
	b.WriteString("Planner calibration: cost-based auto vs forced access paths (cpu/query)\n")
	fmt.Fprintf(&b, "%-10s %-9s %-9s %-7s %10s %10s %10s %-7s %8s %11s %9s\n",
		"companies", "windows", "eps-frac", "chosen", "rtree", "scan", "auto", "best", "loss", "pred-nodes", "nodes")
	b.WriteString(strings.Repeat("-", 111))
	b.WriteByte('\n')
	forced := func(p CalibrationPoint, k engine.PathKind) string {
		if p.ForcedCPU[k] == 0 {
			return "-"
		}
		return fmtDuration(p.ForcedCPU[k])
	}
	var misses []CalibrationPoint
	for _, p := range points {
		flag := ""
		if p.Mispredicted() {
			flag = "  <-- MISS"
			misses = append(misses, p)
		}
		fmt.Fprintf(&b, "%-10d %-9d %-9g %-7s %10s %10s %10s %-7s %7.1f%% %11.1f %9.1f%s\n",
			p.Companies, p.Windows, p.EpsFrac, p.Chosen,
			forced(p, engine.PathRTree), forced(p, engine.PathScan),
			fmtDuration(p.AutoCPU), p.Best.String(), p.LossPct, p.PredictedNodes, p.ActualNodes, flag)
	}
	if len(misses) == 0 {
		b.WriteString("no regime lost more than 10% to the forced-path oracle\n")
	} else {
		fmt.Fprintf(&b, "%d regime(s) where auto loses >10%% to the oracle:\n", len(misses))
		for _, p := range misses {
			fmt.Fprintf(&b, "  companies=%d eps-frac=%g: chose %s, best %s (+%.1f%%)\n",
				p.Companies, p.EpsFrac, p.Chosen, p.Best, p.LossPct)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
