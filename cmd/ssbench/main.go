// Command ssbench regenerates the paper's evaluation (§7) and the
// ablation tables listed in DESIGN.md.  The experiments table below
// names every -experiment value once: `ssbench -h` prints it.
//
// -scale full reproduces the paper's 1 000 × 650 data set (growing the
// insert-built tree of sets 2 and 3 alone takes tens of seconds);
// -scale medium and small shrink it for quick runs.  -cpuprofile and
// -memprofile write pprof profiles of the run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"scaleshift/internal/atomicfile"
	"scaleshift/internal/bench"
	"scaleshift/internal/cliutil"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ssbench:", err)
		os.Exit(1)
	}
}

// runner is what an experiment runs against: the configuration the
// ablations build their own environments from (ablCfg, capped at 200
// companies) and — for the experiments marked env — the shared
// environment at the scale as asked: the data, the workload and the
// serving index, and the insert-built tree once an experiment asks for
// it.
type runner struct {
	stdout  io.Writer
	ablCfg  bench.Config
	env     *bench.Env
	csvPath string
}

// ablEps is the ε (as a fraction of the mean SE-norm) the ablations
// compare at.
const ablEps = 0.02

// An experiment is one -experiment value; env marks those that need the
// shared environment built first.
type experiment struct {
	name, about string
	env         bool
	run         func(r *runner) error
}

// experiments lists every -experiment value, in the order "all" runs
// them.
var experiments = []experiment{
	{"fig45", "Figures 4 and 5: CPU time and page accesses vs ε for the three method sets (one run feeds both)", true, (*runner).fig45},
	{"ablation-split", "R* vs Guttman quadratic vs linear node splits", false, func(r *runner) error {
		rows, err := bench.SplitAblation(r.ablCfg, ablEps)
		return r.ablation("split algorithm", rows, err)
	}},
	{"ablation-dims", "DFT coefficient count f_c sweep", false, func(r *runner) error {
		rows, err := bench.DimsAblation(r.ablCfg, []int{1, 2, 3, 4, 6}, ablEps)
		return r.ablation("DFT coefficients f_c", rows, err)
	}},
	{"ablation-window", "extracting-window length n sweep", false, func(r *runner) error {
		windows := []int{32, 64, 128, 256}
		if r.ablCfg.Days <= 330 {
			windows = []int{32, 64, 128}
		}
		rows, err := bench.WindowAblation(r.ablCfg, windows, ablEps)
		return r.ablation("window length n", rows, err)
	}},
	{"ablation-fanout", "node capacity M sweep", false, func(r *runner) error {
		rows, err := bench.FanoutAblation(r.ablCfg, []int{10, 20, 40, 80}, ablEps)
		return r.ablation("node fanout M", rows, err)
	}},
	{"ablation-index", "R*-tree vs X-tree supernodes", false, func(r *runner) error {
		rows, err := bench.IndexAblation(r.ablCfg, ablEps)
		return r.ablation("R*-tree vs X-tree", rows, err)
	}},
	{"ablation-reduction", "feature basis: DFT vs Haar", false, func(r *runner) error {
		rows, err := bench.ReductionAblation(r.ablCfg, ablEps)
		return r.ablation("feature basis DFT vs Haar", rows, err)
	}},
	{"ablation-build", "construction: insertion vs bulk vs parallel bulk", false, func(r *runner) error {
		rows, err := bench.BuildAblation(r.ablCfg, ablEps)
		return r.ablation("construction method", rows, err)
	}},
	{"shape", "per-level MBR geometry of the insert-built tree (why bounding spheres fail)", true, func(r *runner) error {
		t, err := r.env.InsertTree()
		return r.print(err, func(w io.Writer) error {
			fmt.Fprintln(w, "Insert-built tree MBR shape (why bounding spheres fail, cf. [26]):")
			if err := t.Slab.WriteStats(w); err != nil {
				return err
			}
			bytes := t.Slab.Bytes()
			_, err := fmt.Fprintf(w, "slab: %d bytes in memory, %.1f per window\n",
				bytes, float64(bytes)/float64(max(t.Slab.Len(), 1)))
			return err
		})
	}},
	{"probe", "index phase vs ε: node reads, leaf checks, subtrees accepted whole, candidates and stage times per query", true, func(r *runner) error {
		points, err := r.env.RunProbeSweep([]float64{0.001, 0.005, 0.02, 0.05})
		return r.print(err, func(w io.Writer) error {
			fmt.Fprintf(w, "Index phase per query (row limit 100); arena %d bytes\n", r.env.Index.IndexByteCount())
			return bench.WriteProbeTable(w, points)
		})
	}},
	{"buffer", "data-page reads vs LRU buffer-pool size", true, func(r *runner) error {
		pages := r.env.Store.PageCount()
		points, err := r.env.RunBufferSweep([]int{pages / 16, pages / 4, pages / 2, pages, 2 * pages}, ablEps)
		return r.print(err, func(w io.Writer) error { return bench.WriteBufferTable(w, points, pages) })
	}},
	{"recall", "scale/shift-invariant vs plain Euclidean recall under noise", false, func(r *runner) error {
		points, err := bench.RecallSweep(r.ablCfg, []float64{0, 0.1, 0.5, 1, 2})
		return r.print(err, func(w io.Writer) error { return bench.WriteRecallTable(w, points) })
	}},
	{"paths", "forced tree vs forced scan over ε on the serving index: time, node reads, candidates and strict pages per query", true, func(r *runner) error {
		env, cfg := r.env, r.env.Config
		points, err := env.RunPathSweep([]float64{0.001, 0.005, 0.02, 0.05, 0.2, 1, 5})
		return r.print(err, func(w io.Writer) error {
			fmt.Fprintf(w, "bulk-built index: %d companies x %d days, window %d, %d queries; %d windows, %d index pages, %d data pages\n",
				cfg.Companies, cfg.Days, cfg.WindowLen, cfg.Queries,
				env.Index.WindowCount(), env.Index.IndexPageCount(), env.Store.PageCount())
			return bench.WritePathTable(w, points)
		})
	}},
	{"nn", "nearest-neighbour search cost vs k (Corollary 1)", true, func(r *runner) error {
		points, err := r.env.RunNearestNeighbor([]int{1, 5, 10, 50})
		return r.print(err, func(w io.Writer) error { return bench.WriteNNTable(w, points, r.env.Store.PageCount()) })
	}},
}

// experimentUsage renders the table for the -experiment flag's help.
func experimentUsage() string {
	var b strings.Builder
	b.WriteString("one of:")
	for _, e := range experiments {
		fmt.Fprintf(&b, "\n  %-18s %s", e.name, e.about)
	}
	fmt.Fprintf(&b, "\n  %-18s everything above", "all")
	return b.String()
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ssbench", flag.ContinueOnError)
	which := fs.String("experiment", "fig45", experimentUsage())
	scale := fs.String("scale", "medium", "full (paper: 1000x650, 100 queries) | medium (200x650, 30) | small (50x330, 10)")
	companies := fs.Int("companies", 0, "override company count")
	queries := fs.Int("queries", 0, "override query count")
	seed := fs.Int64("seed", 1, "data and workload seed")
	csvPath := fs.String("csv", "", "also write the fig45 sweep as CSV to this file")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	obsFlags := cliutil.AddObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var selected []experiment
	needEnv := false
	for _, e := range experiments {
		if *which == e.name || *which == "all" {
			selected = append(selected, e)
			needEnv = needEnv || e.env
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown -experiment %q", *which)
	}
	if _, err := obsFlags.Setup(); err != nil {
		return err
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ssbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile is meaningful
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "ssbench: memprofile:", err)
			}
		}()
	}

	cfg := bench.DefaultConfig()
	cfg.Seed = *seed
	switch *scale {
	case "full":
		// Paper scale, as configured by DefaultConfig.
	case "medium":
		cfg = cfg.Scaled(200, 30)
	case "small":
		cfg = cfg.Scaled(50, 10)
		cfg.Days = 330
		cfg.WindowLen = 64
	default:
		return fmt.Errorf("unknown -scale %q", *scale)
	}
	if *companies > 0 {
		cfg.Companies = *companies
	}
	if *queries > 0 {
		cfg.Queries = *queries
	}

	r := &runner{stdout: stdout, ablCfg: cfg, csvPath: *csvPath}
	if r.ablCfg.Companies > 200 {
		r.ablCfg.Companies = 200 // keep rebuild sweeps tractable
	}
	if needEnv {
		fmt.Fprintf(stdout, "building environment: %d companies x %d days, window %d, %d queries...\n",
			cfg.Companies, cfg.Days, cfg.WindowLen, cfg.Queries)
		start := time.Now()
		var err error
		if r.env, err = bench.NewEnv(cfg); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "environment ready in %v: %d values (%d data pages), %d windows in the serving index (%d index pages, height %d)\n\n",
			time.Since(start).Round(time.Millisecond),
			r.env.Store.TotalValues(), r.env.Store.PageCount(),
			r.env.Index.WindowCount(), r.env.Index.IndexPageCount(), r.env.Index.TreeHeight())
	}
	for _, e := range selected {
		if err := e.run(r); err != nil {
			return err
		}
	}
	return obsFlags.Finish()
}

// fig45 sweeps the three method sets over ε and prints Figures 4 and 5.
func (r *runner) fig45() error {
	stdout := r.stdout
	series, err := r.env.RunAll()
	if err != nil {
		return err
	}
	for _, write := range []func(io.Writer, []bench.Series) error{
		bench.WriteCPUTable, bench.WritePagesTable, bench.WriteTotalPagesTable, bench.WriteCPUPlot, bench.WritePagesPlot,
	} {
		if err := r.print(nil, func(w io.Writer) error { return write(w, series) }); err != nil {
			return err
		}
	}
	for _, s := range series[1:] {
		if err := r.print(nil, func(w io.Writer) error { return bench.WriteDetailTable(w, s) }); err != nil {
			return err
		}
	}
	if r.csvPath != "" {
		// Atomic replace so downstream plot scripts never read a
		// half-written sweep.
		err := atomicfile.WriteFile(r.csvPath, func(w io.Writer) error {
			return bench.WriteCSV(w, series)
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n\n", r.csvPath)
	}
	return nil
}

// ablation prints one ablation's rows under its title.
func (r *runner) ablation(what string, rows []bench.AblationRow, err error) error {
	return r.print(err, func(w io.Writer) error {
		return bench.WriteAblationTable(w, fmt.Sprintf("Ablation: %s (eps/scale = %v)", what, ablEps), rows)
	})
}

// print writes what an experiment found with write, then a blank line,
// unless the experiment failed with err.
func (r *runner) print(err error, write func(io.Writer) error) error {
	if err == nil {
		err = write(r.stdout)
	}
	if err == nil {
		_, err = fmt.Fprintln(r.stdout)
	}
	return err
}
