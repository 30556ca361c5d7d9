// Command ssquery runs one scale/shift-invariant similarity query
// against a sequence database, printing the qualifying subsequences
// with their scale factors and shift offsets.
//
// The database is either a CSV file written by ssgen (-data) or a
// freshly generated synthetic set.  The query is a window of the
// database (-query seq:start), optionally disguised with -scale/-shift
// to demonstrate invariance, or an explicit comma-separated value list
// (-query-values).
//
// Examples:
//
//	ssquery -data prices.csv -query 42:100 -scale 2 -shift -5 -eps-frac 0.05
//	ssquery -companies 100 -query 3:25 -eps-frac 0.02 -nn 10
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"scaleshift/internal/cliutil"
	"scaleshift/internal/core"
	"scaleshift/internal/engine"
	"scaleshift/internal/query"
	"scaleshift/internal/store"
	"scaleshift/internal/vec"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ssquery:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ssquery", flag.ContinueOnError)
	dataFile := fs.String("data", "", "CSV database (default: generate synthetic)")
	storeFile := fs.String("store", "", "binary store artifact written by ssgen -binary (overrides -data)")
	companies := fs.Int("companies", 100, "synthetic companies when -data is unset")
	days := fs.Int("days", 650, "synthetic days when -data is unset")
	seed := fs.Int64("seed", 1, "synthetic data seed")
	window := fs.Int("window", 128, "index window length n")
	fc := fs.Int("fc", 3, "DFT coefficients f_c")
	querySpec := fs.String("query", "", "query window as seq:start")
	queryValues := fs.String("query-values", "", "explicit comma-separated query values")
	scale := fs.Float64("scale", 1, "disguise the query window by this scale factor")
	shift := fs.Float64("shift", 0, "disguise the query window by this shift offset")
	eps := fs.Float64("eps", -1, "absolute error bound (overrides -eps-frac)")
	epsFrac := fs.Float64("eps-frac", 0.02, "error bound as a fraction of the mean window SE-norm")
	nn := fs.Int("nn", 0, "if > 0, run k-nearest-neighbour search instead of a range query")
	scaleMin := fs.Float64("scale-min", 0, "cost bound: minimum allowed scale factor (unbounded when not given)")
	scaleMax := fs.Float64("scale-max", 0, "cost bound: maximum allowed scale factor (unbounded when not given)")
	shiftAbs := fs.Float64("shift-abs", 0, "cost bound: maximum |shift offset| (unbounded when not given)")
	limit := fs.Int("limit", 20, "print at most this many matches (0 = all); the count is always complete")
	long := fs.Bool("long", false, "treat the query as longer than the window (multipiece search)")
	explain := fs.Bool("explain", false, "print the query plan: the path, candidates per segment and stage timings")
	pathName := fs.String("path", "auto", "access path: auto (the tree), rtree, or scan (the sequential-scan oracle)")
	indexCache := fs.String("index-cache", "", "cache the built index at this path (load when present, save after building)")
	obsFlags := cliutil.AddObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := obsFlags.Setup()
	if err != nil {
		return err
	}

	// Load or generate the database.  The binary store artifact is
	// checksummed; a truncated or corrupted file is a one-line typed
	// failure here — never a silently wrong database.
	st, err := cliutil.LoadStore(*storeFile, *dataFile, *companies, *days, *seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "database: %d sequences, %d values, %d data pages\n",
		st.NumSequences(), st.TotalValues(), st.PageCount())

	// Build the index.
	opts := core.DefaultOptions()
	opts.WindowLen = *window
	opts.Coefficients = *fc
	ix, how, err := cliutil.OpenIndex(st, opts, *indexCache, logger)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "index: %d windows, %d pages, height %d, %s\n",
		ix.WindowCount(), ix.IndexPageCount(), ix.TreeHeight(), how)

	// Assemble the query.
	q, desc, err := buildQuery(st, *querySpec, *queryValues, *window, *scale, *shift, *long)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "query: %s\n", desc)

	// Resolve epsilon.
	e := *eps
	if e < 0 {
		normScale, err := query.SENormScale(st, *window, 500, *seed+2)
		if err != nil {
			return err
		}
		e = *epsFrac * normScale
		fmt.Fprintf(stdout, "eps: %.4g (%.3f of mean window SE-norm %.4g)\n", e, *epsFrac, normScale)
	} else {
		fmt.Fprintf(stdout, "eps: %.4g (absolute)\n", e)
	}

	// A cost bound given on the command line is used as it is, 0
	// included, as /search uses a given one; none given is no bound.
	given := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { given[f.Name] = true })
	var costs *core.CostBounds
	if given["scale-min"] || given["scale-max"] || given["shift-abs"] {
		c := core.UnboundedCosts()
		if given["scale-min"] {
			c.ScaleMin = *scaleMin
		}
		if given["scale-max"] {
			c.ScaleMax = *scaleMax
		}
		if given["shift-abs"] {
			c.ShiftMin, c.ShiftMax = -*shiftAbs, *shiftAbs
		}
		costs = &c
	}

	force, err := engine.ParsePathKind(*pathName)
	if err != nil {
		return err
	}

	// Run.  The query's kind follows from its shape: -nn selects k-NN, a
	// query longer than the window (-long) the multipiece search.
	var stats core.SearchStats
	searchStart := time.Now()
	res, err := ix.Exec(context.Background(), core.Query{Vec: q, Eps: e, K: max(*nn, 0), Costs: costs, Force: force, Limit: *limit}, &stats)
	if err != nil {
		return err
	}
	ex := res.Explain
	elapsed := time.Since(searchStart)

	if *explain && ex != nil {
		if err := ex.WriteText(stdout); err != nil {
			return err
		}
	}

	fmt.Fprintf(stdout, "search: %v cpu, %d index pages + %d data pages, %d candidates (%d false alarms, %d cost-rejected)\n",
		elapsed.Round(time.Microsecond), stats.IndexNodeAccesses, stats.DataPageAccesses,
		stats.Candidates, stats.FalseAlarms, stats.CostRejected)
	fmt.Fprintf(stdout, "%d matches\n", res.Total)
	for _, m := range res.Matches {
		fmt.Fprintf(stdout, "  %-8s window [%d, %d)  dist=%.4g  a=%.4g  b=%.4g\n",
			m.Name, m.Start, m.Start+len(q), m.Dist, m.Scale, m.Shift)
	}
	if more := res.Total - len(res.Matches); more > 0 {
		fmt.Fprintf(stdout, "  ... %d more\n", more)
	}
	return obsFlags.Finish()
}

// buildQuery resolves the query flags into a vector and a description.
func buildQuery(st *store.Store, spec, values string, window int, scale, shift float64, long bool) (vec.Vector, string, error) {
	if values != "" {
		fields := strings.Split(values, ",")
		q := make(vec.Vector, len(fields))
		for i, f := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, "", fmt.Errorf("parsing -query-values field %d: %w", i+1, err)
			}
			q[i] = v
		}
		return q, fmt.Sprintf("%d explicit values", len(q)), nil
	}
	if spec == "" {
		return nil, "", fmt.Errorf("provide -query seq:start or -query-values")
	}
	parts := strings.SplitN(spec, ":", 2)
	if len(parts) != 2 {
		return nil, "", fmt.Errorf("-query must be seq:start, got %q", spec)
	}
	seq, err := strconv.Atoi(parts[0])
	if err != nil {
		return nil, "", fmt.Errorf("parsing -query sequence: %w", err)
	}
	start, err := strconv.Atoi(parts[1])
	if err != nil {
		return nil, "", fmt.Errorf("parsing -query start: %w", err)
	}
	n := window
	if long {
		n = 2 * window
	}
	w := make(vec.Vector, n)
	if err := st.Window(seq, start, n, w, nil); err != nil {
		return nil, "", err
	}
	q := vec.Apply(w, scale, shift)
	return q, fmt.Sprintf("window %s[%d:%d) disguised by a=%g b=%g",
		st.SequenceName(seq), start, start+n, scale, shift), nil
}
