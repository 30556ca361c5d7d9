// Command ssgen emits the synthetic Hong Kong stock data set used by
// the experiments (the stand-in for the paper's proprietary data) as
// CSV, one sequence per line:
//
//	name,v1,v2,...,vn
//
// Usage:
//
//	ssgen [-companies 1000] [-days 650] [-seed 1] [-o prices.csv]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"scaleshift/internal/atomicfile"
	"scaleshift/internal/cliutil"
	"scaleshift/internal/cluster"
	"scaleshift/internal/core"
	"scaleshift/internal/stock"
	"scaleshift/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ssgen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ssgen", flag.ContinueOnError)
	companies := fs.Int("companies", 1000, "number of price sequences")
	days := fs.Int("days", 650, "samples per sequence")
	sectors := fs.Int("sectors", 12, "number of correlated sectors")
	seed := fs.Int64("seed", 1, "generator seed")
	out := fs.String("o", "", "output file (default stdout)")
	binary := fs.Bool("binary", false, "write the checksummed binary store artifact instead of CSV (for ssquery -store)")
	segOut := fs.String("segments", "", "also write a pre-segmented index artifact (SSSEG) over the generated data")
	segCount := fs.Int("segment-count", 4, "frozen segments in the -segments artifact")
	shards := fs.Int("shards", 0, "hash-partition the data into this many per-shard store artifacts plus an SSMAN cluster manifest (-o names the output directory)")
	window := fs.Int("window", 128, "index window length for -segments")
	fc := fs.Int("fc", 3, "DFT coefficients for -segments")
	obsFlags := cliutil.AddObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := obsFlags.Setup()
	if err != nil {
		return err
	}

	cfg := stock.DefaultConfig()
	cfg.Companies = *companies
	cfg.Days = *days
	cfg.Sectors = *sectors
	cfg.Seed = *seed

	st := store.New()
	if _, err := stock.Populate(st, cfg); err != nil {
		return err
	}

	if *shards > 0 {
		// Sharded output is a different artifact family entirely: a
		// directory of per-shard stores plus the manifest a coordinator
		// validates the fleet against.  Each shard's store carries its
		// own checksums; the manifest carries the partition's.
		if *out == "" {
			return fmt.Errorf("-shards requires -o DIR (the shard artifact directory)")
		}
		man, err := cluster.WriteShardArtifacts(st, *out, *shards, *seed)
		if err != nil {
			return err
		}
		for _, sh := range man.Shards {
			logger.Info("wrote shard artifact", "shard", sh.ID, "dir", sh.Dir,
				"sequences", len(sh.Seqs), "values", sh.Values,
				"fingerprint", fmt.Sprintf("%08x", sh.Fingerprint))
		}
		logger.Info("wrote cluster manifest",
			"path", *out+"/"+cluster.ManifestName,
			"shards", *shards, "sequences", man.Sequences)
		return obsFlags.Finish()
	}

	emit := st.WriteCSV
	if *binary {
		emit = st.WriteBinary
	}
	if *out != "" {
		// Atomic replace: readers of the artifact never observe a
		// half-written file, even across a crash mid-generation.
		if err := atomicfile.WriteFile(*out, emit); err != nil {
			return err
		}
	} else if err := emit(stdout); err != nil {
		return err
	}
	logger.Info("wrote data set",
		"sequences", st.NumSequences(), "values", st.TotalValues(),
		"pages", st.PageCount(), "page_bytes", store.PageSize)

	if *segOut != "" {
		opts := core.DefaultOptions()
		opts.WindowLen = *window
		opts.Coefficients = *fc
		g, err := buildSegmented(st, opts, *segCount)
		if err != nil {
			return fmt.Errorf("-segments: %w", err)
		}
		defer g.Close()
		if err := atomicfile.WriteFile(*segOut, g.WriteBinary); err != nil {
			return fmt.Errorf("-segments: %w", err)
		}
		b := g.Backlog()
		logger.Info("wrote segmented index",
			"path", *segOut, "segments", b.Frozen, "windows", b.FrozenWindows)
	}
	return obsFlags.Finish()
}

// buildSegmented replays the generated store through a segmented index
// in count chunks, compacting after each, so the artifact ships the
// frozen-segment layout a live ingest server would have converged to.
// The features are bit-identical to a from-scratch build — append-time
// extraction replays the same sliding-DFT schedule — so loading the
// artifact gives the same answers as building over the full store.
func buildSegmented(st *store.Store, opts core.Options, count int) (*core.Index, error) {
	if count < 1 {
		return nil, fmt.Errorf("segment count %d < 1", count)
	}
	// Rebuild the data into a live store chunk by chunk: the first
	// chunk seeds the bulk-loaded base segment, each later chunk lands
	// in the delta and freezes into its own segment on Compact.
	full := make([][]float64, st.NumSequences())
	live := store.New()
	for seq := range full {
		n := st.SequenceLen(seq)
		full[seq] = make([]float64, n)
		if err := st.Window(seq, 0, n, full[seq], nil); err != nil {
			return nil, err
		}
		live.AppendSequence(st.SequenceName(seq), full[seq][:n/count])
	}
	g, err := core.NewIndex(live, opts)
	if err == nil {
		err = g.Build()
	}
	if err != nil {
		return nil, err
	}
	// Keep each chunk its own segment: no tiered merging, and a
	// backstop that never triggers.
	g.MergeRatio = 0
	g.MaxFrozen = count + 1
	for k := 2; k <= count; k++ {
		for seq, vals := range full {
			lo, hi := len(vals)*(k-1)/count, len(vals)*k/count
			if err := g.AppendValues(seq, vals[lo:hi]); err != nil {
				g.Close()
				return nil, err
			}
		}
		if err := g.Compact(); err != nil {
			g.Close()
			return nil, err
		}
	}
	return g, nil
}
