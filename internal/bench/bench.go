// Package bench is the experiment harness that regenerates the paper's
// evaluation (§7): Figure 4 (average CPU time per query vs the error
// bound ε) and Figure 5 (average page accesses per query vs ε) for the
// three method sets —
//
//	set 1: sequential scan (Lemma 2 distance over every window),
//	set 2: R*-tree search with Entering/Exiting-Points penetration,
//	set 3: R*-tree search with the Bounding-Spheres heuristic,
//
// plus the ablation sweeps called out in DESIGN.md (split algorithm,
// feature dimensionality, window length, node fanout).
//
// ε values are expressed as fractions of the mean SE-plane norm of
// database windows so the sweep spans "exact search" to "loose search"
// regardless of the data's absolute price scale.
package bench

import (
	"context"
	"fmt"
	"time"

	"scaleshift/internal/bench/rstar"
	"scaleshift/internal/core"
	"scaleshift/internal/geom"
	"scaleshift/internal/query"
	"scaleshift/internal/rtree"
	"scaleshift/internal/seqscan"
	"scaleshift/internal/stock"
	"scaleshift/internal/store"
)

// Method identifies one of the paper's three experiment sets.
type Method int

const (
	// SeqScan is set 1: the sequential-search baseline.
	SeqScan Method = iota
	// TreeEE is set 2: tree search, Entering/Exiting Points only.
	TreeEE
	// TreeSpheres is set 3: tree search with the bounding-spheres
	// pre-check.
	TreeSpheres
)

// String returns the experiment-set label.
func (m Method) String() string {
	switch m {
	case SeqScan:
		return "set1-seqscan"
	case TreeEE:
		return "set2-tree-ee"
	case TreeSpheres:
		return "set3-tree-spheres"
	default:
		return "unknown"
	}
}

// Methods lists the three sets in paper order.
var Methods = []Method{SeqScan, TreeEE, TreeSpheres}

// Config scales the experiment.  DefaultConfig reproduces the paper's
// data set; Scaled lets quick runs shrink it.
type Config struct {
	// Companies and Days size the synthetic stock database
	// (paper: 1 000 × 650 = 650 000 values).
	Companies, Days int
	// WindowLen is the extracting-window length n.
	WindowLen int
	// Coefficients is the DFT feature count f_c (paper: 3 → 6 dims).
	Coefficients int
	// Queries is the number of queries averaged (paper: 100).
	Queries int
	// Seed drives data and workload generation.
	Seed int64
	// EpsFracs is the ε sweep, as fractions of the mean window SE-norm.
	EpsFracs []float64
	// Split selects the tree's split algorithm.
	Split rtree.SplitAlgorithm
	// Reduction selects the feature basis (DFT default, Haar optional).
	Reduction core.ReductionKind
	// SupernodeMaxOverlap enables X-tree supernodes when positive.
	SupernodeMaxOverlap float64
	// MaxEntries overrides the tree fanout M when nonzero (m and p are
	// derived as 40 % and 30 % of M, as in §7).
	MaxEntries int
}

// DefaultConfig is the paper-scale experiment.
func DefaultConfig() Config {
	return Config{
		Companies:    1000,
		Days:         650,
		WindowLen:    128,
		Coefficients: 3,
		Queries:      100,
		Seed:         1,
		EpsFracs:     []float64{0, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2},
		Split:        rtree.SplitRStar,
	}
}

// Scaled returns c with the database and workload shrunk by keeping
// only the given number of companies and queries — used by unit tests
// and quick benchmark runs.
func (c Config) Scaled(companies, queries int) Config {
	c.Companies = companies
	c.Queries = queries
	return c
}

// treeConfig derives the R*-tree parameters from c.
func (c Config) treeConfig() rtree.Config {
	cfg := rtree.DefaultConfig(2 * c.Coefficients)
	cfg.Split = c.Split
	cfg.SupernodeMaxOverlap = c.SupernodeMaxOverlap
	if c.MaxEntries > 0 {
		cfg.MaxEntries = c.MaxEntries
		cfg.MinEntries = max(1, c.MaxEntries*40/100) // builtin max
		cfg.ReinsertCount = c.MaxEntries * 30 / 100
		if cfg.ReinsertCount > cfg.MaxEntries-cfg.MinEntries {
			cfg.ReinsertCount = cfg.MaxEntries - cfg.MinEntries
		}
	}
	return cfg
}

// Env is a prepared experiment environment: the database, the query
// workload, and one built index shared by sets 2 and 3.
type Env struct {
	Config    Config
	Store     *store.Store
	Index     *core.Index
	Queries   []query.Query
	NormScale float64
	BuildTime time.Duration
}

// BuildMode selects how the experiment index is constructed.
type BuildMode int

const (
	// BuildInsert constructs the tree by one-by-one R* insertion (as
	// the paper's dynamic-index requirement implies): rstar.Load behind
	// core.Index.BuildWith, an MBR directory.
	BuildInsert BuildMode = iota
	// BuildBulk constructs the tree with sequential STR bulk loading.
	BuildBulk
	// BuildParallel shards feature extraction and STR packing across
	// GOMAXPROCS workers; the resulting tree is identical to BuildBulk.
	BuildParallel
)

// String returns the construction label used in reports.
func (m BuildMode) String() string {
	switch m {
	case BuildInsert:
		return "insert"
	case BuildBulk:
		return "bulk"
	case BuildParallel:
		return "bulk-parallel"
	default:
		return "unknown"
	}
}

// ParseBuildMode maps a command-line name to a BuildMode.
func ParseBuildMode(s string) (BuildMode, error) {
	switch s {
	case "insert":
		return BuildInsert, nil
	case "bulk":
		return BuildBulk, nil
	case "parallel", "bulk-parallel":
		return BuildParallel, nil
	default:
		return 0, fmt.Errorf("bench: unknown build mode %q (want insert, bulk, or parallel)", s)
	}
}

// NewEnv generates the data, builds the index by one-by-one insertion,
// and samples the workload.
func NewEnv(cfg Config) (*Env, error) {
	return NewEnvBuilt(cfg, BuildInsert)
}

// NewEnvBuilt is NewEnv with a choice of construction method.
func NewEnvBuilt(cfg Config, mode BuildMode) (*Env, error) {
	st := store.New()
	scfg := stock.DefaultConfig()
	scfg.Companies = cfg.Companies
	scfg.Days = cfg.Days
	scfg.Seed = cfg.Seed
	if _, err := stock.Populate(st, scfg); err != nil {
		return nil, fmt.Errorf("bench: generating data: %w", err)
	}

	opts := core.DefaultOptions()
	opts.WindowLen = cfg.WindowLen
	opts.Coefficients = cfg.Coefficients
	opts.Reduction = cfg.Reduction
	opts.Tree = cfg.treeConfig()
	ix, err := core.NewIndex(st, opts)
	if err != nil {
		return nil, fmt.Errorf("bench: creating index: %w", err)
	}
	buildStart := time.Now()
	switch mode {
	case BuildBulk:
		err = ix.BuildBulk()
	case BuildParallel:
		err = ix.BuildBulkParallel(0)
	default:
		err = ix.BuildWith(rstar.Load)
	}
	if err != nil {
		return nil, fmt.Errorf("bench: building index: %w", err)
	}
	buildTime := time.Since(buildStart)

	qcfg := query.DefaultConfig()
	qcfg.N = cfg.Queries
	qcfg.WindowLen = cfg.WindowLen
	qcfg.Seed = cfg.Seed + 1
	qs, err := query.Generate(st, qcfg)
	if err != nil {
		return nil, fmt.Errorf("bench: generating workload: %w", err)
	}
	scale, err := query.SENormScale(st, cfg.WindowLen, 500, cfg.Seed+2)
	if err != nil {
		return nil, fmt.Errorf("bench: calibrating epsilon: %w", err)
	}
	return &Env{
		Config:    cfg,
		Store:     st,
		Index:     ix,
		Queries:   qs,
		NormScale: scale,
		BuildTime: buildTime,
	}, nil
}

// Row is one point of a sweep: one method at one ε, averaged over the
// workload.
type Row struct {
	EpsFrac float64
	Eps     float64
	// CPUPerQuery is Figure 4's y-axis.
	CPUPerQuery time.Duration
	// PagesPerQuery is Figure 5's y-axis (index + data pages).
	PagesPerQuery float64
	// IndexPages and DataPages split PagesPerQuery for tree methods.
	IndexPages, DataPages float64
	// Candidates, Results and FalseAlarms are per-query averages.
	Candidates, Results, FalseAlarms float64
	// SlabTests and SphereTests are per-query penetration primitives.
	SlabTests, SphereTests float64
}

// Series is one method's sweep.
type Series struct {
	Method Method
	Rows   []Row
}

// RunMethod sweeps one method over the ε fractions.
func (e *Env) RunMethod(m Method) (Series, error) {
	s := Series{Method: m}
	switch m {
	case TreeEE:
		if err := e.Index.SetStrategy(geom.EnteringExiting); err != nil {
			return s, err
		}
	case TreeSpheres:
		if err := e.Index.SetStrategy(geom.BoundingSpheres); err != nil {
			return s, err
		}
	}
	for _, frac := range e.Config.EpsFracs {
		row, err := e.runPoint(m, frac)
		if err != nil {
			return s, err
		}
		s.Rows = append(s.Rows, row)
	}
	return s, nil
}

// runPoint runs every workload query at one ε and averages.
func (e *Env) runPoint(m Method, frac float64) (Row, error) {
	eps := frac * e.NormScale
	row := Row{EpsFrac: frac, Eps: eps}
	nq := float64(len(e.Queries))

	switch m {
	case SeqScan:
		var totalPages, totalResults int
		start := time.Now()
		for _, q := range e.Queries {
			var pc store.PageCounter
			res, err := seqscan.Search(e.Store, q.Values, eps, nil, &pc)
			if err != nil {
				return row, err
			}
			totalPages += pc.Distinct()
			totalResults += len(res)
		}
		row.CPUPerQuery = time.Duration(float64(time.Since(start)) / nq)
		row.PagesPerQuery = float64(totalPages) / nq
		row.DataPages = row.PagesPerQuery
		row.Results = float64(totalResults) / nq
		row.Candidates = row.Results

	case TreeEE, TreeSpheres:
		var agg core.SearchStats
		start := time.Now()
		for _, q := range e.Queries {
			var stats core.SearchStats
			if _, err := e.Index.Exec(context.Background(), core.Query{Vec: q.Values, Eps: eps}, &stats); err != nil {
				return row, err
			}
			agg.Add(stats)
		}
		row.CPUPerQuery = time.Duration(float64(time.Since(start)) / nq)
		row.IndexPages = float64(agg.IndexNodeAccesses) / nq
		row.DataPages = float64(agg.DataPageAccesses) / nq
		row.PagesPerQuery = row.IndexPages + row.DataPages
		row.Candidates = float64(agg.Candidates) / nq
		row.Results = float64(agg.Results) / nq
		row.FalseAlarms = float64(agg.FalseAlarms) / nq
		row.SlabTests = float64(agg.Penetration.SlabTests) / nq
		row.SphereTests = float64(agg.Penetration.SphereTests) / nq

	default:
		return row, fmt.Errorf("bench: unknown method %d", int(m))
	}
	return row, nil
}

// RunAll sweeps all three method sets.
func (e *Env) RunAll() ([]Series, error) {
	var out []Series
	for _, m := range Methods {
		s, err := e.RunMethod(m)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}
