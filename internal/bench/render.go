package bench

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// fmtDuration renders a duration with µs precision suitable for
// aligned tables.
func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	}
}

// WriteCPUTable renders Figure 4 — average CPU time per query vs ε —
// as a fixed-width text table with one column per method.
func WriteCPUTable(w io.Writer, series []Series) error {
	return writeFigureTable(w,
		"Figure 4: average CPU time per query vs error value",
		series,
		func(r Row) string { return fmtDuration(r.CPUPerQuery) })
}

// WritePagesTable renders Figure 5 — average page accesses per query
// vs ε — under the paper's counting, which charges only data page
// fetches (the index is memory-resident; this is the only reading
// consistent with the paper's "one thousand times larger" at ε = 0).
func WritePagesTable(w io.Writer, series []Series) error {
	return writeFigureTable(w,
		"Figure 5: average data page accesses per query vs error value (paper's counting)",
		series,
		func(r Row) string { return fmt.Sprintf("%.1f", r.DataPages) })
}

// WriteTotalPagesTable renders the stricter cost model that also
// charges index node reads.
func WriteTotalPagesTable(w io.Writer, series []Series) error {
	return writeFigureTable(w,
		"Figure 5 (strict): average page accesses per query incl. index pages",
		series,
		func(r Row) string { return fmt.Sprintf("%.1f", r.PagesPerQuery) })
}

// writeFigureTable renders one metric of the three-method sweep.
func writeFigureTable(w io.Writer, title string, series []Series, cell func(Row) string) error {
	if len(series) == 0 {
		return fmt.Errorf("bench: no series to render")
	}
	for _, s := range series[1:] {
		if len(s.Rows) != len(series[0].Rows) {
			return fmt.Errorf("bench: ragged series: %d vs %d rows", len(s.Rows), len(series[0].Rows))
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-10s %-12s", "eps/scale", "eps")
	for _, s := range series {
		fmt.Fprintf(&b, " %18s", s.Method)
	}
	b.WriteByte('\n')
	b.WriteString(strings.Repeat("-", 23+19*len(series)))
	b.WriteByte('\n')
	for i, r := range series[0].Rows {
		fmt.Fprintf(&b, "%-10.3f %-12.4g", r.EpsFrac, r.Eps)
		for _, s := range series {
			fmt.Fprintf(&b, " %18s", cell(s.Rows[i]))
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteDetailTable renders the per-method diagnostic columns
// (candidates, false alarms, penetration primitives) for one series.
func WriteDetailTable(w io.Writer, s Series) error {
	var b strings.Builder
	fmt.Fprintf(&b, "Detail: %s\n", s.Method)
	fmt.Fprintf(&b, "%-10s %-12s %12s %12s %12s %12s %12s %12s %12s\n",
		"eps/scale", "eps", "cpu", "pages", "candidates", "results", "false-alarm", "slab-tests", "sphere-test")
	b.WriteString(strings.Repeat("-", 124))
	b.WriteByte('\n')
	for _, r := range s.Rows {
		fmt.Fprintf(&b, "%-10.3f %-12.4g %12s %12.1f %12.1f %12.1f %12.1f %12.1f %12.1f\n",
			r.EpsFrac, r.Eps, fmtDuration(r.CPUPerQuery), r.PagesPerQuery,
			r.Candidates, r.Results, r.FalseAlarms, r.SlabTests, r.SphereTests)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV emits the full sweep as CSV for external plotting.
func WriteCSV(w io.Writer, series []Series) error {
	var b strings.Builder
	b.WriteString("method,eps_frac,eps,cpu_ns,pages,index_pages,data_pages,candidates,results,false_alarms,slab_tests,sphere_tests\n")
	for _, s := range series {
		for _, r := range s.Rows {
			fmt.Fprintf(&b, "%s,%g,%g,%d,%g,%g,%g,%g,%g,%g,%g,%g\n",
				s.Method, r.EpsFrac, r.Eps, r.CPUPerQuery.Nanoseconds(),
				r.PagesPerQuery, r.IndexPages, r.DataPages,
				r.Candidates, r.Results, r.FalseAlarms, r.SlabTests, r.SphereTests)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteAblationTable renders an ablation sweep.
func WriteAblationTable(w io.Writer, title string, rows []AblationRow) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-16s %12s %12s %12s %12s %12s %12s %12s\n",
		"config", "build", "idx-pages", "cpu/query", "pages/query", "candidates", "false-alarm", "results")
	b.WriteString(strings.Repeat("-", 110))
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %12s %12d %12s %12.1f %12.1f %12.1f %12.1f\n",
			r.Label, fmtDuration(r.BuildTime), r.IndexPagesTotal,
			fmtDuration(r.CPUPerQuery), r.PagesPerQuery, r.Candidates, r.FalseAlarms, r.Results)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteProbeTable renders a RunProbeSweep result.
func WriteProbeTable(w io.Writer, points []ProbePoint) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %10s %12s %12s %10s %12s %12s %12s %12s\n", "eps/scale", "nodes", "leaf-checks", "dir-tests", "accepted", "untested", "candidates", "probe/query", "verify/query")
	b.WriteString(strings.Repeat("-", 110))
	b.WriteByte('\n')
	for _, p := range points {
		fmt.Fprintf(&b, "%-10.3f %10.1f %12.1f %12.1f %10.1f %12.1f %12.1f %12s %12s\n",
			p.EpsFrac, p.Nodes, p.LeafChecks, p.DirTests, p.Accepted, p.Untested, p.Candidates, fmtDuration(p.ProbeTime), fmtDuration(p.VerifyTime))
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteNNTable renders the nearest-neighbour sweep.
func WriteNNTable(w io.Writer, points []NNPoint, seqScanPages int) error {
	var b strings.Builder
	fmt.Fprintf(&b, "Nearest-neighbour search (Corollary 1); sequential scan costs %d pages\n", seqScanPages)
	fmt.Fprintf(&b, "%-6s %12s %12s %12s\n", "k", "cpu/query", "pages/query", "candidates")
	b.WriteString(strings.Repeat("-", 46))
	b.WriteByte('\n')
	for _, p := range points {
		fmt.Fprintf(&b, "%-6d %12s %12.1f %12.1f\n",
			p.K, fmtDuration(p.CPUPerQuery), p.PagesPerQuery, p.Candidates)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
