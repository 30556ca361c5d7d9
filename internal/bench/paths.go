package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"scaleshift/internal/core"
	"scaleshift/internal/engine"
	"scaleshift/internal/vec"
)

// PathPoint is one cell of the tree-vs-scan sweep: the whole workload
// at one ε, run once with each access path forced.  Every field but
// the ε is indexed by engine.PathKind (the PathAuto slot stays zero)
// and is a mean per query.
type PathPoint struct {
	EpsFrac, Eps float64
	// CPU is the wall time per query.
	CPU [engine.NumPathKinds]time.Duration
	// Nodes counts index node reads, Candidates the windows handed to
	// the verifier, and StrictPages index and data pages together.
	Nodes, Candidates, StrictPages [engine.NumPathKinds]float64
}

// RunPathSweep times the forced tree against the forced scan over ε:
// Figure 4's comparison, and the record of the one regime where the
// scan is faster.  Each cell runs an untimed warm-up pass, then the
// workload once per path.
func (e *Env) RunPathSweep(epsFracs []float64) ([]PathPoint, error) {
	out := make([]PathPoint, 0, len(epsFracs))
	for _, frac := range epsFracs {
		p, err := e.runPathPoint(frac)
		if err != nil {
			return nil, fmt.Errorf("bench: path sweep (eps %g): %w", frac, err)
		}
		out = append(out, p)
	}
	return out, nil
}

// runPathPoint measures one ε on e's workload.
func (e *Env) runPathPoint(frac float64) (PathPoint, error) {
	p := PathPoint{EpsFrac: frac, Eps: frac * e.NormScale}
	nq := float64(len(e.Queries))
	for _, kind := range []engine.PathKind{engine.PathAuto, engine.PathRTree, engine.PathScan} {
		agg, cpu, err := e.execAll(e.Index, func(q vec.Vector) core.Query { return core.Query{Vec: q, Eps: p.Eps, Force: kind} })
		if err != nil {
			return p, err
		}
		if kind == engine.PathAuto {
			continue // the untimed warm-up
		}
		p.CPU[kind] = cpu
		p.Nodes[kind] = float64(agg.IndexNodeAccesses) / nq
		p.Candidates[kind] = float64(agg.Candidates) / nq
		p.StrictPages[kind] = float64(agg.IndexNodeAccesses+agg.DataPageAccesses) / nq
	}
	return p, nil
}

// WritePathTable renders the sweep: per ε, each path's time per query,
// then the tree's node reads, and each path's candidates and strict
// pages (index + data).
func WritePathTable(w io.Writer, points []PathPoint) error {
	var b strings.Builder
	b.WriteString("Tree vs scan: forced access paths over eps (per query)\n")
	fmt.Fprintf(&b, "%-9s %10s %10s %10s %12s %12s %11s %11s\n",
		"eps-frac", "tree", "scan", "tree-nodes", "tree-cands", "scan-cands", "tree-pages", "scan-pages")
	b.WriteString(strings.Repeat("-", 92))
	b.WriteByte('\n')
	tree, scan := engine.PathRTree, engine.PathScan
	for _, p := range points {
		fmt.Fprintf(&b, "%-9g %10s %10s %10.1f %12.1f %12.1f %11.1f %11.1f\n",
			p.EpsFrac, fmtDuration(p.CPU[tree]), fmtDuration(p.CPU[scan]), p.Nodes[tree],
			p.Candidates[tree], p.Candidates[scan], p.StrictPages[tree], p.StrictPages[scan])
	}
	_, err := io.WriteString(w, b.String())
	return err
}
