package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"scaleshift/internal/cliutil"
	"scaleshift/internal/core"
	"scaleshift/internal/geom"
	"scaleshift/internal/vec"
)

// The hot-path performance experiment: pointer tree vs frozen flat
// arena, scalar vs batched pruning kernels, and the zero-copy artifact
// open.  Its JSON report is the before/after record CI tracks
// (results/BENCH_<rev>.json) and the regression gate -enforce checks.

// ColdOpenPoint is one measurement of the mmap open path at one index
// size.  O(1) open means OpenMicros stays flat while Windows and
// ArtifactBytes grow.
type ColdOpenPoint struct {
	Windows       int     `json:"windows"`
	ArtifactBytes int64   `json:"artifact_bytes"`
	OpenMicros    float64 `json:"open_us"`
	VerifyMicros  float64 `json:"verify_us"`
}

// PerfReport is the machine-readable result of RunPerf.
type PerfReport struct {
	Label     string `json:"label"`
	Version   string `json:"version"` // ldflags-stamped build id (cliutil.Version)
	GoVersion string `json:"go_version"`
	Timestamp string `json:"timestamp"`

	Companies int     `json:"companies"`
	Days      int     `json:"days"`
	WindowLen int     `json:"window_len"`
	Queries   int     `json:"queries"`
	EpsFrac   float64 `json:"eps_frac"`

	BuildMillis  float64 `json:"build_ms"`
	FreezeMillis float64 `json:"freeze_ms"`
	ArenaBytes   int     `json:"arena_bytes"`

	// ColdOpen demonstrates O(1) open across growing index sizes.
	ColdOpen []ColdOpenPoint `json:"cold_open"`

	// VerifyArtifact latency distribution (the deferred full check).
	VerifyP50Micros float64 `json:"verify_p50_us"`
	VerifyP99Micros float64 `json:"verify_p99_us"`

	// Node-pruning microbenchmark: scalar loop vs batched kernel over
	// identical nodes.  KernelSpeedup is the acceptance gate (>= 1.5x).
	KernelScalarNsPerNode float64 `json:"kernel_scalar_ns_per_node"`
	KernelBatchNsPerNode  float64 `json:"kernel_batch_ns_per_node"`
	KernelSpeedup         float64 `json:"kernel_speedup"`

	// End-to-end query throughput, pointer tree vs flat arena.
	PointerRangeQPS float64 `json:"pointer_range_qps"`
	FlatRangeQPS    float64 `json:"flat_range_qps"`
	PointerNNQPS    float64 `json:"pointer_nn_qps"`
	FlatNNQPS       float64 `json:"flat_nn_qps"`

	// Heap allocations per range query on each representation.
	PointerRangeAllocs float64 `json:"pointer_range_allocs_per_op"`
	FlatRangeAllocs    float64 `json:"flat_range_allocs_per_op"`

	// Ingest holds the streaming-ingest rows (RunIngest) when that
	// experiment ran alongside perf.
	Ingest *IngestReport `json:"ingest,omitempty"`

	// Recovery carries the checkpoint-recovery experiment's rows when
	// -experiment recovery (or all) runs.
	Recovery *RecoveryReport `json:"recovery,omitempty"`

	// Cluster carries the scatter-gather distribution-overhead rows
	// when -experiment cluster (or all) runs.
	Cluster *ClusterReport `json:"cluster,omitempty"`
}

// kernelBench times the node-pruning slab test over nodes of count
// MBRs, scalar vs batched, returning ns per node for each.
func kernelBench(dim, count, nodes, iters int) (scalarNs, batchNs float64) {
	rng := rand.New(rand.NewSource(7))
	type node struct {
		rects []geom.Rect
		pl    geom.NodePlanes
	}
	ns := make([]node, nodes)
	for i := range ns {
		rects := make([]geom.Rect, count)
		data := make([]float64, 2*dim*count)
		for k := range rects {
			l := make(vec.Vector, dim)
			h := make(vec.Vector, dim)
			for j := 0; j < dim; j++ {
				l[j] = (rng.Float64()*2 - 1) * 10
				h[j] = l[j] + rng.Float64()*2
				data[j*count+k] = l[j]
				data[(dim+j)*count+k] = h[j]
			}
			rects[k] = geom.Rect{L: l, H: h}
		}
		ns[i] = node{rects: rects, pl: geom.NodePlanes{Data: data, Count: count, Dim: dim}}
	}
	l := vec.Line{P: make(vec.Vector, dim), D: make(vec.Vector, dim)}
	for j := 0; j < dim; j++ {
		l.P[j] = rng.Float64() * 2
		l.D[j] = rng.Float64()*2 - 1
	}
	const eps = 0.5
	sink := 0

	// Interleave scalar and batch repetitions and keep the fastest of
	// each: the minimum is the estimate least polluted by scheduler or
	// frequency noise, and interleaving spreads any transient across
	// both sides instead of one.
	const reps = 5
	per := (iters + reps - 1) / reps
	scalarNs = math.Inf(1)
	batchNs = math.Inf(1)
	var sc geom.BatchScratch
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		for it := 0; it < per; it++ {
			for i := range ns {
				for _, r := range ns[i].rects {
					if geom.PenetratesEnlarged(geom.EnteringExiting, r, eps, l, nil) {
						sink++
					}
				}
			}
		}
		if v := float64(time.Since(start).Nanoseconds()) / float64(per*nodes); v < scalarNs {
			scalarNs = v
		}

		start = time.Now()
		for it := 0; it < per; it++ {
			for i := range ns {
				verdict := geom.PenetratesEnlargedBatch(geom.EnteringExiting, ns[i].pl, eps, l, &sc, nil)
				for _, v := range verdict {
					if v {
						sink++
					}
				}
			}
		}
		if v := float64(time.Since(start).Nanoseconds()) / float64(per*nodes); v < batchNs {
			batchNs = v
		}
	}
	if sink < 0 {
		panic("unreachable")
	}
	return scalarNs, batchNs
}

// measureQPS runs fn once per query for reps rounds and returns
// queries/second and heap allocations per query.
func measureQPS(reps int, queries []vec.Vector, fn func(q vec.Vector) error) (qps, allocsPerOp float64, err error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	ops := 0
	for r := 0; r < reps; r++ {
		for _, q := range queries {
			if err := fn(q); err != nil {
				return 0, 0, err
			}
			ops++
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	qps = float64(ops) / elapsed.Seconds()
	allocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(ops)
	return qps, allocsPerOp, nil
}

// writeArtifact persists ix to dir and returns the path and size.
func writeArtifact(ix *core.Index, dir, name string) (string, int64, error) {
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", 0, err
	}
	if err := ix.WriteBinary(f); err != nil {
		f.Close()
		return "", 0, err
	}
	if err := f.Close(); err != nil {
		return "", 0, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return "", 0, err
	}
	return path, st.Size(), nil
}

// coldOpenPoint measures the mmap open (and deferred verify) of one
// artifact, taking the median of several rounds.
func coldOpenPoint(path string, ix *core.Index) (ColdOpenPoint, error) {
	st, err := os.Stat(path)
	if err != nil {
		return ColdOpenPoint{}, err
	}
	const rounds = 9
	opens := make([]float64, 0, rounds)
	verifies := make([]float64, 0, rounds)
	var windows int
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		loaded, err := core.LoadIndexFile(path, ix.Store())
		openDur := time.Since(t0)
		if err != nil {
			return ColdOpenPoint{}, err
		}
		t1 := time.Now()
		if err := loaded.VerifyArtifact(); err != nil {
			loaded.Close()
			return ColdOpenPoint{}, err
		}
		verifies = append(verifies, float64(time.Since(t1).Microseconds()))
		opens = append(opens, float64(openDur.Microseconds()))
		windows = loaded.WindowCount()
		loaded.Close()
	}
	sort.Float64s(opens)
	sort.Float64s(verifies)
	return ColdOpenPoint{
		Windows:       windows,
		ArtifactBytes: st.Size(),
		OpenMicros:    opens[len(opens)/2],
		VerifyMicros:  verifies[len(verifies)/2],
	}, nil
}

func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// RunPerf executes the hot-path experiment and prints a human summary
// to stdout alongside the returned report.
func RunPerf(cfg Config, stdout io.Writer) (*PerfReport, error) {
	rep := &PerfReport{
		Version:   cliutil.Version,
		GoVersion: runtime.Version(),
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Companies: cfg.Companies,
		Days:      cfg.Days,
		WindowLen: cfg.WindowLen,
		Queries:   cfg.Queries,
		EpsFrac:   0.05,
	}

	fmt.Fprintf(stdout, "perf: building %d x %d (window %d)...\n", cfg.Companies, cfg.Days, cfg.WindowLen)
	env, err := NewEnvBuilt(cfg, BuildBulk)
	if err != nil {
		return nil, err
	}
	rep.BuildMillis = float64(env.BuildTime.Microseconds()) / 1e3
	eps := rep.EpsFrac * env.NormScale
	queries := make([]vec.Vector, len(env.Queries))
	for i := range env.Queries {
		queries[i] = env.Queries[i].Values
	}
	reps := 3
	if cfg.Companies <= 100 {
		reps = 10
	}

	// Pointer-tree throughput first: the bulk build leaves the index
	// frozen, so thaw it for the pointer side of the comparison.
	if err := env.Index.Thaw(); err != nil {
		return nil, err
	}
	rangeFn := func(ix *core.Index) func(vec.Vector) error {
		return func(q vec.Vector) error {
			_, err := ix.Exec(context.Background(), core.Query{Vec: q, Eps: eps}, nil)
			return err
		}
	}
	nnFn := func(ix *core.Index) func(vec.Vector) error {
		return func(q vec.Vector) error {
			_, err := ix.Exec(context.Background(), core.Query{Vec: q, K: 10}, nil)
			return err
		}
	}
	if rep.PointerRangeQPS, rep.PointerRangeAllocs, err = measureQPS(reps, queries, rangeFn(env.Index)); err != nil {
		return nil, err
	}
	if rep.PointerNNQPS, _, err = measureQPS(reps, queries, nnFn(env.Index)); err != nil {
		return nil, err
	}

	// Freeze, then re-measure on the flat arena.
	t0 := time.Now()
	if err := env.Index.Freeze(); err != nil {
		return nil, err
	}
	rep.FreezeMillis = float64(time.Since(t0).Microseconds()) / 1e3
	if rep.FlatRangeQPS, rep.FlatRangeAllocs, err = measureQPS(reps, queries, rangeFn(env.Index)); err != nil {
		return nil, err
	}
	if rep.FlatNNQPS, _, err = measureQPS(reps, queries, nnFn(env.Index)); err != nil {
		return nil, err
	}

	// Artifact round trip: verify latency distribution at full size.
	dir, err := os.MkdirTemp("", "ssperf")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path, size, err := writeArtifact(env.Index, dir, "full.idx")
	if err != nil {
		return nil, err
	}
	rep.ArenaBytes = int(size)
	verifies := make([]float64, 0, 40)
	loaded, err := core.LoadIndexFile(path, env.Index.Store())
	if err != nil {
		return nil, err
	}
	for i := 0; i < 40; i++ {
		t := time.Now()
		if err := loaded.VerifyArtifact(); err != nil {
			loaded.Close()
			return nil, err
		}
		verifies = append(verifies, float64(time.Since(t).Microseconds()))
	}
	loaded.Close()
	sort.Float64s(verifies)
	rep.VerifyP50Micros = percentile(verifies, 0.50)
	rep.VerifyP99Micros = percentile(verifies, 0.99)

	// Cold-open scaling: index sizes growing ~4x must open in ~constant
	// time (the whole point of the mmap arena).
	for _, frac := range []int{4, 2, 1} {
		sub := cfg
		sub.Companies = cfg.Companies / frac
		if sub.Companies < 2 {
			continue
		}
		subEnv, err := NewEnvBuilt(sub, BuildBulk)
		if err != nil {
			return nil, err
		}
		subPath, _, err := writeArtifact(subEnv.Index, dir, fmt.Sprintf("sub%d.idx", frac))
		if err != nil {
			return nil, err
		}
		pt, err := coldOpenPoint(subPath, subEnv.Index)
		if err != nil {
			return nil, err
		}
		rep.ColdOpen = append(rep.ColdOpen, pt)
	}

	// Node-pruning kernel microbenchmark at the paper's fanout.
	rep.KernelScalarNsPerNode, rep.KernelBatchNsPerNode = kernelBench(2*cfg.Coefficients, 20, 64, 20000)
	if rep.KernelBatchNsPerNode > 0 {
		rep.KernelSpeedup = rep.KernelScalarNsPerNode / rep.KernelBatchNsPerNode
	}

	fmt.Fprintf(stdout, "perf: build %.1fms  freeze %.2fms  artifact %d bytes\n", rep.BuildMillis, rep.FreezeMillis, rep.ArenaBytes)
	for _, pt := range rep.ColdOpen {
		fmt.Fprintf(stdout, "perf: cold open %8d windows (%9d bytes): %7.1fus open, %8.1fus verify\n",
			pt.Windows, pt.ArtifactBytes, pt.OpenMicros, pt.VerifyMicros)
	}
	fmt.Fprintf(stdout, "perf: verify p50 %.1fus p99 %.1fus\n", rep.VerifyP50Micros, rep.VerifyP99Micros)
	fmt.Fprintf(stdout, "perf: pruning kernel %.0fns -> %.0fns per node (%.2fx)\n",
		rep.KernelScalarNsPerNode, rep.KernelBatchNsPerNode, rep.KernelSpeedup)
	fmt.Fprintf(stdout, "perf: range qps %.0f -> %.0f   nn qps %.0f -> %.0f\n",
		rep.PointerRangeQPS, rep.FlatRangeQPS, rep.PointerNNQPS, rep.FlatNNQPS)
	fmt.Fprintf(stdout, "perf: range allocs/op %.1f -> %.1f\n", rep.PointerRangeAllocs, rep.FlatRangeAllocs)
	return rep, nil
}

// Enforce checks the regression gates CI runs against a report:
// the batched kernel must beat the scalar loop by at least minSpeedup,
// and flat-path throughput must not regress more than maxRegression
// below the pointer path.
func (r *PerfReport) Enforce(minSpeedup, maxRegression float64) error {
	if r.KernelSpeedup < minSpeedup {
		return fmt.Errorf("bench: kernel speedup %.2fx below the %.1fx gate", r.KernelSpeedup, minSpeedup)
	}
	if r.FlatRangeQPS < (1-maxRegression)*r.PointerRangeQPS {
		return fmt.Errorf("bench: flat range throughput %.0f qps regressed more than %.0f%% vs pointer %.0f qps",
			r.FlatRangeQPS, maxRegression*100, r.PointerRangeQPS)
	}
	if r.FlatNNQPS < (1-maxRegression)*r.PointerNNQPS {
		return fmt.Errorf("bench: flat NN throughput %.0f qps regressed more than %.0f%% vs pointer %.0f qps",
			r.FlatNNQPS, maxRegression*100, r.PointerNNQPS)
	}
	if r.Ingest != nil {
		return r.Ingest.Enforce(maxRegression)
	}
	return nil
}

// WriteJSON writes the report, indented, with a trailing newline.
func (r *PerfReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
