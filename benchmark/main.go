//go:build unix

// Command benchmark is the repository's serving benchmark: it builds
// ssserve and ssgen from the working tree, drives real server
// processes over loopback, checks every answer against a sequential
// scan, and reports the end-to-end and per-layer metrics that
// BENCHMARK.json names.  See README.md in this directory.
//
//	go run ./benchmark                          all four workloads, end to end and traced
//	go run ./benchmark -workload range_tight    one workload
//	go run ./benchmark -compare a.json b.json   A/A or before/after table
//
// The driver's form is
//
//	go run ./benchmark --workload W --seed N --seconds S --trace 0|1
//
// which runs one workload either end to end (trace 0) or traced
// (trace 1) and prints one JSON object as the last line of stdout.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "", "run one workload (default: all four, end to end and traced)")
	seed := fs.Int64("seed", 1, "the only source of randomness: data, queries, append stream")
	seconds := fs.Float64("seconds", defaultSeconds, "timed traffic per run, split over the repetitions")
	trace := fs.Int("trace", -1, "with -workload: 0 = end-to-end run, 1 = traced run (default: both)")
	quick := fs.Bool("quick", false, "50x330 store and 1 s of traffic: checks correctness and schema only, never valid for a claim")
	out := fs.String("out", "", "result JSON path (default benchmark/results/latest.json when running all workloads)")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two result files")
			return 2
		}
		return compareFiles(root, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *trace < -1 || *trace > 1 || (*trace >= 0 && *workloadName == "") {
		fmt.Fprintln(stderr, "benchmark: -trace is 0 or 1 and needs -workload")
		return 2
	}

	cfg := &config{
		seed: *seed, seconds: *seconds, quick: *quick,
		companies: 1000, days: 650,
		reps:  repetitions,
		conns: min(maxConns, runtime.NumCPU()),
		root:  root,
		fleet: &fleet{},
	}
	if cfg.quick {
		cfg.companies, cfg.days = 50, 330
		if *seconds == defaultSeconds {
			cfg.seconds = 1
		}
	}
	// One pooled connection per client goroutine, and never more.
	cfg.hc = &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: maxConns, MaxConnsPerHost: maxConns},
	}
	cfg.admin = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{}}

	selected := workloads
	if *workloadName != "" {
		wl, err := workloadByName(*workloadName)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		selected = []workload{*wl}
	}
	// Span files land beside the result file.
	cfg.results = filepath.Join(root, "benchmark", "results")
	resultPath := *out
	if resultPath != "" {
		cfg.results = filepath.Dir(resultPath)
	} else if *workloadName == "" {
		resultPath = filepath.Join(cfg.results, "latest.json")
	}

	code := 1
	func() {
		// Children die with the run: on return, on panic (re-raised
		// after the kill), and on SIGINT/SIGTERM.
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		defer func() {
			signal.Stop(sig)
			close(sig) // releases the goroutine below
		}()
		go func() {
			if _, ok := <-sig; ok {
				cfg.fleet.killAll()
				if cfg.tmp != "" {
					os.RemoveAll(cfg.tmp)
				}
				os.Exit(130)
			}
		}()
		defer func() {
			if p := recover(); p != nil {
				cfg.fleet.killAll()
				panic(p)
			}
		}()
		code = execute(cfg, selected, *trace, resultPath, stdout, stderr)
	}()
	return code
}

// execute runs the selected workloads and prints the report; the last
// line of stdout is the driver's JSON object.
func execute(cfg *config, selected []workload, trace int, resultPath string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		if leaked := cfg.fleet.killAll(); len(leaked) > 0 {
			fmt.Fprintln(stderr, "benchmark: leaked child processes:", leaked)
		}
		if cfg.tmp != "" {
			fmt.Fprintln(stderr, "benchmark: server logs kept under", cfg.tmp)
		}
		return 1
	}
	// The temp root sits on the repository's filesystem: the WAL's
	// fsync cost there is part of the append metrics.
	if err := os.MkdirAll(filepath.Join(cfg.root, ".bench_build"), 0o755); err != nil {
		return fail(err)
	}
	tmp, err := os.MkdirTemp(filepath.Join(cfg.root, ".bench_build"), "run-")
	if err != nil {
		return fail(err)
	}
	cfg.tmp = tmp
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Minute)
	defer cancel()
	// The binaries are rebuilt from the working tree on every run; go
	// build leaves an up-to-date output alone, so only the first run in
	// a checkout pays for it.
	bin := filepath.Join(cfg.root, ".bench_build", "bin")
	if err := buildBinaries(ctx, cfg.root, bin); err != nil {
		return fail(err)
	}
	cfg.ssserve = filepath.Join(bin, "ssserve")
	cfg.ssgen = filepath.Join(bin, "ssgen")

	needShards := false
	for _, wl := range selected {
		needShards = needShards || wl.Cluster
	}
	data, err := generate(cfg, filepath.Join(tmp, "data"), needShards)
	if err != nil {
		return fail(err)
	}
	oracleStart := time.Now()
	if err := data.loadOracle(filepath.Join(cfg.root, ".bench_build", "oracle"), runtime.NumCPU()); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "# seed %d: %d sequences x %d values, %d queries, eps unit %.6g, oracle in %.1fs\n",
		cfg.seed, data.st.NumSequences(), cfg.days, len(data.queries), data.normScale, time.Since(oracleStart).Seconds())

	rf := &resultFile{Schema: 1, Environment: newEnvironment(cfg), Workloads: map[string]*workloadResult{}}
	total := &tally{}
	var gateFailures []string
	for i := range selected {
		wl := &selected[i]
		r := newRunner(cfg, wl, data)
		wr := r.describe()
		rf.Workloads[wl.Name] = wr
		if trace != 1 {
			var reps []*repResult
			for rep := 0; rep < cfg.reps; rep++ {
				res, err := r.repetition(rep, nil)
				if err != nil {
					return fail(fmt.Errorf("%s repetition %d: %w", wl.Name, rep, err))
				}
				reps = append(reps, res)
			}
			wr.EndToEnd = combine(endToEnd, reps)
			wr.Validity = worstValidity(reps)
			printMetrics(stdout, wl.Name, endToEnd, wr.EndToEnd)
		}
		if trace != 0 {
			layers, validity, traceFile, err := r.tracedRun()
			if err != nil {
				return fail(fmt.Errorf("%s traced run: %w", wl.Name, err))
			}
			wr.PerLayer = layers
			wr.Trace = traceFile
			if wr.Validity == nil {
				wr.Validity = map[string]float64{}
			}
			for k, v := range validity {
				wr.Validity[k] = v
			}
			printMetrics(stdout, wl.Name, perLayer, wr.PerLayer)
			if !cfg.quick { // a toy store's ladder reconciles with nothing
				gateFailures = append(gateFailures, reconcile(wl, wr.Validity)...)
			}
		}
		printValidity(stdout, wl.Name, wr.Validity)
		total.attempted += r.tally.attempted
		total.failed += r.tally.failed
		total.messages = append(total.messages, r.tally.messages...)
	}

	leaked := cfg.fleet.killAll()
	rf.Attempted, rf.Failed = total.attempted, total.failed
	rf.Correct = total.failed == 0 && len(leaked) == 0
	if resultPath != "" {
		if err := writeJSONFile(resultPath, rf); err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, "# result written to", resultPath)
	}
	for _, msg := range total.messages {
		fmt.Fprintln(stderr, "benchmark: failed operation:", msg)
	}
	for _, g := range gateFailures {
		fmt.Fprintln(stderr, "benchmark: reconciliation outside tolerance:", g)
	}
	if len(leaked) > 0 {
		fmt.Fprintln(stderr, "benchmark: leaked child processes:", leaked)
	}
	if total.attempted == 0 {
		return fail(fmt.Errorf("no operation was attempted, so the failed fraction is undefined"))
	}
	if rf.Correct {
		if err := os.RemoveAll(tmp); err != nil {
			return fail(err)
		}
	} else {
		fmt.Fprintln(stderr, "benchmark: server logs kept under", tmp)
	}

	// The driver reads the last line: end-to-end metrics of the one
	// workload with -trace 0, per-layer metrics with -trace 1.
	last := driverLine{Correct: rf.Correct, Attempted: total.attempted, Failed: total.failed, Metrics: map[string]driverMetric{}}
	if len(selected) == 1 {
		wr := rf.Workloads[selected[0].Name]
		values := wr.EndToEnd
		if trace == 1 {
			values = wr.PerLayer
		}
		for name, mv := range values {
			last.Metrics[name] = driverMetric{Value: mv.Value, Unit: mv.Unit}
		}
	}
	line, err := json.Marshal(last)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(line))
	// A failed reconciliation invalidates a full run's ladder but not a
	// single driver run, whose numbers stand on their own.
	if !rf.Correct || (len(selected) > 1 && len(gateFailures) > 0) {
		return 1
	}
	return 0
}

type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// describe records the workload's fixed parameters in the result.
func (r *runner) describe() *workloadResult {
	wr := &workloadResult{
		Why:             r.wl.Why,
		EpsFrac:         r.wl.Frac,
		QueryRate:       r.wl.QueryRate,
		AppendRate:      r.wl.AppendRate,
		ClosedClients:   r.cfg.conns,
		WindowRequests:  r.window,
		TailPercentile:  r.tailQ,
		OpenSeconds:     r.openPhase().Seconds(),
		ClosedSeconds:   r.closedPhase().Seconds(),
		KNNQueries:      r.knnCount(),
		TracePassRepeat: r.wl.TraceRepeats,
	}
	if r.wl.Ingest {
		wr.AppendTailPctl = r.appendTailQ
	}
	return wr
}

// worstValidity keeps, per self-check, the worst repetition.
func worstValidity(reps []*repResult) map[string]float64 {
	out := map[string]float64{}
	for _, rep := range reps {
		for k, v := range rep.Validity {
			if cur, ok := out[k]; !ok || v > cur {
				out[k] = v
			}
		}
	}
	return out
}
