// Command ssbench regenerates the paper's evaluation (§7) and the
// ablation tables listed in DESIGN.md.  The experiments table below
// names every -experiment value once: `ssbench -h` prints it.
//
// -scale full reproduces the paper's 1 000 × 650 data set (the index
// build alone takes tens of seconds); -scale medium and small shrink
// it for quick runs.  -build selects the construction method (insert,
// bulk, or parallel), and -cpuprofile/-memprofile write pprof profiles
// of the run.
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
// ablations and the planner grid build their own environments from,
// and — for the experiments marked env — the shared built environment.
type runner struct {
	stdout    io.Writer
	ablCfg    bench.Config
	env       *bench.Env
	scale     string
	companies int
	csvPath   string
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
	{"shape", "per-level directory geometry (why bounding spheres fail)", true, func(r *runner) error {
		fmt.Fprintln(r.stdout, "Index directory shape (why bounding spheres fail, cf. [26]):")
		if err := r.env.Index.WriteIndexStats(r.stdout); err != nil {
			return err
		}
		bytes, windows := r.env.Index.IndexByteCount(), r.env.Index.WindowCount()
		fmt.Fprintf(r.stdout, "arena: %d bytes with its header and planner sample, %.1f per window\n\n",
			bytes, float64(bytes)/float64(max(windows, 1)))
		return nil
	}},
	{"probe", "index phase vs ε: node reads, leaf checks, subtrees accepted whole, candidates and stage times per query", true, func(r *runner) error {
		points, err := r.env.RunProbeSweep([]float64{0.001, 0.005, 0.02, 0.05})
		if err != nil {
			return err
		}
		fmt.Fprintf(r.stdout, "Index phase per query (row limit 100); arena %d bytes, %s directory\n", r.env.Index.IndexByteCount(), r.env.Index.Directory())
		if err := bench.WriteProbeTable(r.stdout, points); err != nil {
			return err
		}
		fmt.Fprintln(r.stdout)
		return nil
	}},
	{"buffer", "data-page reads vs LRU buffer-pool size", true, func(r *runner) error {
		pages := r.env.Store.PageCount()
		points, err := r.env.RunBufferSweep([]int{pages / 16, pages / 4, pages / 2, pages, 2 * pages}, ablEps)
		if err != nil {
			return err
		}
		if err := bench.WriteBufferTable(r.stdout, points, pages); err != nil {
			return err
		}
		fmt.Fprintln(r.stdout)
		return nil
	}},
	{"recall", "scale/shift-invariant vs plain Euclidean recall under noise", false, func(r *runner) error {
		points, err := bench.RecallSweep(r.ablCfg, []float64{0, 0.1, 0.5, 1, 2})
		if err != nil {
			return err
		}
		if err := bench.WriteRecallTable(r.stdout, points); err != nil {
			return err
		}
		fmt.Fprintln(r.stdout)
		return nil
	}},
	{"planner", "query-engine calibration: cost-based path choice vs each forced access path over an ε × size grid", false, (*runner).planner},
	{"nn", "nearest-neighbour search cost vs k (Corollary 1)", true, func(r *runner) error {
		points, err := r.env.RunNearestNeighbor([]int{1, 5, 10, 50})
		if err != nil {
			return err
		}
		if err := bench.WriteNNTable(r.stdout, points, r.env.Store.PageCount()); err != nil {
			return err
		}
		fmt.Fprintln(r.stdout)
		return nil
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
	buildMode := fs.String("build", "insert", "index construction: insert | bulk | parallel")
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

	mode, err := bench.ParseBuildMode(*buildMode)
	if err != nil {
		return err
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

	r := &runner{stdout: stdout, ablCfg: cfg, scale: *scale, companies: *companies, csvPath: *csvPath}
	if r.ablCfg.Companies > 200 {
		r.ablCfg.Companies = 200 // keep rebuild sweeps tractable
	}
	if needEnv {
		fmt.Fprintf(stdout, "building environment (%s): %d companies x %d days, window %d, %d queries...\n",
			mode, cfg.Companies, cfg.Days, cfg.WindowLen, cfg.Queries)
		start := time.Now()
		if r.env, err = bench.NewEnvBuilt(cfg, mode); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "environment ready in %v: %d values (%d data pages), %d windows indexed (%d index pages, height %d)\n\n",
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
		if err := write(stdout, series); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
	}
	for _, s := range series[1:] {
		if err := bench.WriteDetailTable(stdout, s); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
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
	if err != nil {
		return err
	}
	if err := bench.WriteAblationTable(r.stdout, fmt.Sprintf("Ablation: %s (eps/scale = %v)", what, ablEps), rows); err != nil {
		return err
	}
	fmt.Fprintln(r.stdout)
	return nil
}

// planner prints the calibration grid.  It builds one environment per
// store size, so it ignores the shared env and derives its sizes from
// the scale.
func (r *runner) planner() error {
	sizes := []int{50, 200}
	switch r.scale {
	case "full":
		sizes = []int{100, 400, 1000}
	case "small":
		sizes = []int{25, 50}
	}
	if r.companies > 0 {
		sizes = []int{r.companies}
	}
	points, err := bench.PlannerSweep(r.ablCfg, sizes, []float64{0.01, 0.05, 0.2, 1, 5})
	if err != nil {
		return err
	}
	if err := bench.WritePlannerTable(r.stdout, points); err != nil {
		return err
	}
	fmt.Fprintln(r.stdout)
	return nil
}
