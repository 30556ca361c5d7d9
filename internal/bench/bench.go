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
	"slices"
	"time"

	"scaleshift/internal/bench/rstar"
	"scaleshift/internal/core"
	"scaleshift/internal/dft"
	"scaleshift/internal/geom"
	"scaleshift/internal/query"
	"scaleshift/internal/rtree"
	"scaleshift/internal/seqscan"
	"scaleshift/internal/stock"
	"scaleshift/internal/store"
	"scaleshift/internal/vec"
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

// Strategy returns the MBR penetration check a tree set searches with.
func (m Method) Strategy() geom.Strategy {
	if m == TreeSpheres {
		return geom.BoundingSpheres
	}
	return geom.EnteringExiting
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
	// Split selects the insert-built tree's split algorithm.
	Split rstar.SplitAlgorithm
	// Reduction selects the feature basis (DFT default, Haar optional).
	Reduction core.ReductionKind
	// SupernodeMaxOverlap enables X-tree supernodes in the insert-built
	// tree when positive.
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
		Split:        rstar.SplitRStar,
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

// treeConfig derives the insert-built tree's parameters from c.
func (c Config) treeConfig() rstar.Config {
	cfg := rstar.DefaultConfig(2 * c.Coefficients)
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

// options derives the serving index's options from c: the same windows,
// features and page shape as the insert-built tree.
func (c Config) options() core.Options {
	opts := core.DefaultOptions()
	opts.WindowLen = c.WindowLen
	opts.Coefficients = c.Coefficients
	opts.Reduction = c.Reduction
	opts.Tree = c.treeConfig().Config
	return opts
}

// Env is a prepared experiment environment: the database, the query
// workload, the serving index over it, and — once an experiment asks
// for it — the insert-built tree sets 2 and 3 search.
type Env struct {
	Config Config
	Store  *store.Store
	// Index is the serving index, bulk-built on every CPU in BuildTime.
	Index     *core.Index
	Queries   []query.Query
	NormScale float64
	BuildTime time.Duration

	insert *InsertTree // see InsertTree
}

// NewEnv generates the data, builds the serving index and samples the
// workload.  The insert-built tree is grown on first use (InsertTree).
func NewEnv(cfg Config) (*Env, error) {
	e, err := newWorkload(cfg)
	if err == nil {
		e.Index, e.BuildTime, err = e.buildIndex()
	}
	return e, err
}

// buildIndex builds the serving index over e's store and times it.
func (e *Env) buildIndex() (*core.Index, time.Duration, error) {
	ix, err := core.NewIndex(e.Store, e.Config.options())
	if err != nil {
		return nil, 0, fmt.Errorf("bench: creating index: %w", err)
	}
	start := time.Now()
	if err := ix.Build(); err != nil {
		return nil, 0, fmt.Errorf("bench: building index: %w", err)
	}
	return ix, time.Since(start), nil
}

// newWorkload generates the data and samples the workload: an Env
// without an index.
func newWorkload(cfg Config) (*Env, error) {
	st := store.New()
	scfg := stock.DefaultConfig()
	scfg.Companies, scfg.Days, scfg.Seed = cfg.Companies, cfg.Days, cfg.Seed
	if _, err := stock.Populate(st, scfg); err != nil {
		return nil, fmt.Errorf("bench: generating data: %w", err)
	}
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
	return &Env{Config: cfg, Store: st, Queries: qs, NormScale: scale}, nil
}

// execAll runs query(q) on ix for every workload query q, returning the
// queries' ledgers summed and the wall time per query.
func (e *Env) execAll(ix *core.Index, query func(q vec.Vector) core.Query) (core.SearchStats, time.Duration, error) {
	var agg core.SearchStats
	start := time.Now()
	for _, q := range e.Queries {
		if _, err := ix.Exec(context.Background(), query(q.Values), &agg); err != nil {
			return agg, 0, err
		}
	}
	return agg, time.Duration(float64(time.Since(start)) / float64(len(e.Queries))), nil
}

// InsertTree returns the tree experiment sets 2 and 3 search, growing
// it on the first call.
func (e *Env) InsertTree() (*InsertTree, error) {
	if e.insert == nil {
		t, err := growInsertTree(e.Store, e.Config)
		if err != nil {
			return nil, err
		}
		e.insert = t
	}
	return e.insert, nil
}

// InsertTree is the index the paper's experiments search (§6–7): the
// §6 feature point of every window (core.Features), inserted one at a
// time into an R*-tree (rstar.Load) of the configuration's split,
// fanout and supernode settings, frozen into a slab of its MBRs.  Search
// runs sets 2 and 3 over it.
type InsertTree struct {
	// Slab is the frozen tree.
	Slab *rstar.Slab
	// Widen is what a search adds to ε so that neither the slab's
	// float32 rounding nor the extraction's dismisses a true match.
	Widen float64
	// BuildTime covers the extraction and the insertions.
	BuildTime time.Duration

	st   *store.Store
	n    int             // the window length
	fmap *dft.FeatureMap // maps a query to its SE-line
}

// growInsertTree builds the insert-built tree over st's windows under
// cfg.
func growInsertTree(st *store.Store, cfg Config) (*InsertTree, error) {
	start := time.Now()
	ids, cols, widen, err := core.Features(st, cfg.options())
	if err != nil {
		return nil, fmt.Errorf("bench: extracting features: %w", err)
	}
	slab, err := rstar.Load(cfg.treeConfig(), ids, cols)
	if err != nil {
		return nil, fmt.Errorf("bench: growing the tree: %w", err)
	}
	built := time.Since(start)
	fmap, err := dft.NewFeatureMap(cfg.WindowLen, cfg.Coefficients)
	if cfg.Reduction == core.ReductionHaar {
		fmap, err = dft.NewHaarMap(cfg.WindowLen, 2*cfg.Coefficients)
	}
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	return &InsertTree{Slab: slab, Widen: widen, BuildTime: built, st: st, n: cfg.WindowLen, fmap: fmap}, nil
}

// Ledger accounts queries of InsertTree.Search in the paper's cost
// model.
type Ledger struct {
	// Tree counts the index phase: nodes read (index pages), leaf
	// entries checked, penetration tests.
	Tree rtree.SearchStats
	// DataPages counts the distinct data pages each query's
	// post-processing read, summed over queries.
	DataPages int
	// Candidates counts the windows the index phase emitted, Results
	// those within ε; the rest are false alarms.
	Candidates, Results int
}

// Search answers the range query (q, eps) as experiment sets 2 and 3
// do (§6).  The index phase descends the tree under strategy — the
// children whose MBR, enlarged by ε plus Widen, the query's SE-line
// penetrates — and collects the leaf points within that distance of it;
// post-processing fetches every candidate window, in storage order,
// through one page counter and keeps it when vec.MinDist, the
// sequential scan's kernel, puts it within eps.  The rows are the
// sequential scan's, in its order.
func (t *InsertTree) Search(q vec.Vector, eps float64, strategy geom.Strategy, l *Ledger) ([]seqscan.Result, error) {
	n := t.n
	if len(q) != n {
		return nil, fmt.Errorf("bench: query length %d, window length %d", len(q), n)
	}
	line := vec.Line{P: make(vec.Vector, t.fmap.Dim()), D: make(vec.Vector, t.fmap.Dim())}
	t.fmap.TransformSE(line.D, q)
	ids := t.Slab.LineSearchIDs(line, eps+t.Widen, strategy, &l.Tree, nil)
	slices.Sort(ids) // a window id orders as (seq, start)
	var pc store.PageCounter
	var out []seqscan.Result
	w := make(vec.Vector, n)
	for _, id := range ids {
		seq, start := store.DecodeWindowID(id)
		if err := t.st.Window(seq, start, n, w, &pc); err != nil {
			return nil, err
		}
		if m := vec.MinDist(q, w); m.Dist <= eps {
			out = append(out, seqscan.Result{Seq: seq, Start: start, Dist: m.Dist, Scale: m.Scale, Shift: m.Shift})
		}
	}
	l.DataPages += pc.Distinct()
	l.Candidates += len(ids)
	l.Results += len(out)
	return out, nil
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
		t, err := e.InsertTree()
		if err != nil {
			return row, err
		}
		var l Ledger
		start := time.Now()
		for _, q := range e.Queries {
			if _, err := t.Search(q.Values, eps, m.Strategy(), &l); err != nil {
				return row, err
			}
		}
		row.CPUPerQuery = time.Duration(float64(time.Since(start)) / nq)
		row.IndexPages = float64(l.Tree.NodeAccesses) / nq
		row.DataPages = float64(l.DataPages) / nq
		row.PagesPerQuery = row.IndexPages + row.DataPages
		row.Candidates = float64(l.Candidates) / nq
		row.Results = float64(l.Results) / nq
		row.FalseAlarms = float64(l.Candidates-l.Results) / nq
		row.SlabTests = float64(l.Tree.Penetration.SlabTests) / nq
		row.SphereTests = float64(l.Tree.Penetration.SphereTests) / nq

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
