//go:build unix

package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"scaleshift/internal/ckpt"
	"scaleshift/internal/core"
	"scaleshift/internal/dft"
	"scaleshift/internal/engine"
	"scaleshift/internal/geom"
	"scaleshift/internal/vec"
	"scaleshift/internal/wal"
)

// This file is the only place that calls the layers' public functions
// directly: the traced run's in-process replica and the per-layer
// timings taken around it.  An API change in internal/ lands here.

// compactThreshold mirrors core.SegmentedIndex's default: the replica
// compacts when its delta reaches what would wake the server's
// background compactor.
const compactThreshold = 4096

// tracedRun is the -trace 1 run: one repetition with the span recorder
// off (its loaded phases supply the server-side counters), then, with
// the servers still up, the traced pass against an in-process replica
// and the per-layer timings.
func (r *runner) tracedRun() (map[string]*metricValue, map[string]float64, string, error) {
	rec := &recorder{epoch: time.Now()}
	layer := map[string]float64{}
	validity := map[string]float64{}
	res, err := r.repetition(r.cfg.reps, func(lv *live) error {
		return r.measureLayers(lv, rec, layer, validity)
	})
	if err != nil {
		return nil, nil, "", err
	}
	for k, v := range res.Metrics {
		layer[k] = v
	}
	for k, v := range res.Validity {
		validity[k] = v
	}
	out := map[string]*metricValue{}
	for _, def := range perLayer {
		v := layer[def.Name] // 0: the workload bypasses this layer
		mv := &metricValue{Value: v, Unit: def.Unit, Min: v, Max: v, Raw: []float64{v}}
		if n, ok := res.Samples[def.Name]; ok {
			mv.Samples = []int{n}
		}
		out[def.Name] = mv
	}
	traceFile := filepath.Join(r.cfg.results, "trace-"+r.wl.Name+".json")
	if err := writeJSONFile(traceFile, struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{r.wl.Name, r.cfg.seed, rec.spans}); err != nil {
		return nil, nil, "", err
	}
	if rel, err := filepath.Rel(r.cfg.root, traceFile); err == nil {
		traceFile = rel // keeps the build box's paths out of committed results
	}
	return out, validity, traceFile, nil
}

// measureLayers runs against the live deployment of the traced
// repetition.
func (r *runner) measureLayers(lv *live, rec *recorder, m, validity map[string]float64) error {
	ctx := context.Background()
	wl, data := r.wl, r.data
	base := lv.dep.front().base

	// core.build_ms: the cold-start work, on the data the servers hold.
	// The ingest replica grows, so it builds over its own copy, before
	// the traced pass that needs it.  The static replicas build after
	// their pass, which then runs on a heap about as small as the
	// server's and so at about the server's garbage-collection cadence.
	build := func() (*core.Index, error) {
		st := data.st
		if wl.Ingest {
			var err error
			if st, err = readStore(data.storePath); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		built, err := core.NewIndex(st, core.DefaultOptions())
		if err == nil {
			err = built.BuildBulkParallel(0)
		}
		if err == nil {
			err = built.Freeze()
		}
		if err != nil {
			return nil, fmt.Errorf("building the replica index: %w", err)
		}
		m["core.build_ms"] = ms(time.Since(start))
		return built, nil
	}
	var built *core.Index
	var err error

	// core.open_ms: the warm reopen every later start pays.
	artifact, artifactStore := filepath.Join(lv.dep.dir, "prices.index"), data.st
	if wl.Cluster {
		artifact = filepath.Join(lv.dep.dir, "shard0", "index.bin")
		if artifactStore, err = readStore(filepath.Join(lv.dep.dir, "shard0", "store.bin")); err != nil {
			return err
		}
	}
	var opened *core.Index
	var openMS []float64
	for k := 0; k < 5; k++ {
		if opened != nil {
			opened.Close()
		}
		start := time.Now()
		if opened, err = core.LoadIndexFile(artifact, artifactStore); err == nil {
			err = opened.VerifyArtifact()
		}
		if err != nil {
			return fmt.Errorf("reopening %s: %w", artifact, err)
		}
		openMS = append(openMS, ms(time.Since(start)))
	}
	defer opened.Close()
	m["core.open_ms"] = median(openMS)

	// The traced pass, against the replica that matches the deployment.
	var replica searcher = opened
	switch {
	case wl.Cluster:
		coord, tap, err := newReplicaCoordinator(ctx, lv.dep)
		if err != nil {
			return err
		}
		ps, untraced, err := r.tracedPass(base, rec, nil, coord, tap)
		if err != nil {
			return err
		}
		ladder(wl, rec, ps, untraced, m, validity)
	case wl.Ingest:
		if built, err = build(); err != nil {
			return err
		}
		ing, err := newIngestReplica(built, lv, m)
		if err != nil {
			return err
		}
		defer ing.close()
		ps, untraced, err := r.tracedPass(base, rec, ing.seg, nil, nil)
		if err != nil {
			return err
		}
		ladder(wl, rec, ps, untraced, m, validity)
		if err := ing.recoverTimings(m); err != nil {
			return err
		}
		replica = ing.seg
	default:
		ps, untraced, err := r.tracedPass(base, rec, opened, nil, nil)
		if err != nil {
			return err
		}
		ladder(wl, rec, ps, untraced, m, validity)
	}

	if built == nil {
		if built, err = build(); err != nil {
			return err
		}
	}
	if wl.Cluster {
		replica = built // the cluster has no single-node artifact; allocations are measured on the full index
	}

	// Allocation cost of one search on the serving representation.
	nq := len(data.queries)
	if wl.Frac == looseFrac {
		nq = min(nq, 10)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < nq; i++ {
		var stats core.SearchStats
		if _, _, err := replica.SearchPlannedContext(ctx, data.queries[i].Values, data.eps(wl.Frac), core.UnboundedCosts(), engine.PathAuto, nil, &stats); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	m["core.search_allocs"] = float64(after.Mallocs-before.Mallocs) / float64(nq)
	m["core.search_bytes"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(nq)

	// rtree.knn_us: best-first k-NN on the frozen tree.
	var knnUS []float64
	for i := 0; i < min(len(data.queries), 40); i++ {
		var stats core.SearchStats
		start := time.Now()
		if _, err := built.NearestNeighborsWithCostsContext(ctx, data.queries[i].Values, knnK, core.UnboundedCosts(), &stats); err != nil {
			return err
		}
		knnUS = append(knnUS, float64(time.Since(start))/1e3)
	}
	m["rtree.knn_us"] = percentile(knnUS, 0.5)

	return kernelTimings(data, m)
}

// batches times fn, which performs ops operations, five times and
// returns the median nanoseconds per operation.
func batches(ops int, fn func()) float64 {
	var per []float64
	for b := 0; b < 5; b++ {
		start := time.Now()
		fn()
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(ops))
	}
	return median(per)
}

// kernelTimings measures the leaf functions every query or append
// funnels into, on the run's own data.
func kernelTimings(data *dataset, m map[string]float64) error {
	rng := rand.New(rand.NewSource(data.seed))
	st := data.st
	randomWindow := func(dst vec.Vector) error {
		seq := rng.Intn(st.NumSequences())
		return st.Window(seq, rng.Intn(st.SequenceLen(seq)-windowLen+1), windowLen, dst, nil)
	}

	// store.window_ns
	const fetches = 20000
	addrs := make([][2]int, fetches)
	for i := range addrs {
		seq := rng.Intn(st.NumSequences())
		addrs[i] = [2]int{seq, rng.Intn(st.SequenceLen(seq) - windowLen + 1)}
	}
	w := make(vec.Vector, windowLen)
	var werr error
	m["store.window_ns"] = batches(fetches, func() {
		for _, a := range addrs {
			if err := st.Window(a[0], a[1], windowLen, w, nil); err != nil {
				werr = err
			}
		}
	})
	if werr != nil {
		return werr
	}

	// vec.mindist_ns on real windows
	const windows = 2000
	pool := make([]vec.Vector, windows)
	for i := range pool {
		pool[i] = make(vec.Vector, windowLen)
		if err := randomWindow(pool[i]); err != nil {
			return err
		}
	}
	q := data.queries[0].Values
	var sink float64
	m["vec.mindist_ns"] = batches(windows, func() {
		for _, p := range pool {
			sink += vec.MinDist(q, p).Dist
		}
	})

	// dft.slide_ns: Slide + Feature per incoming value
	fmap, err := dft.NewFeatureMap(windowLen, core.DefaultOptions().Coefficients)
	if err != nil {
		return err
	}
	seqLen := st.SequenceLen(0)
	series := make(vec.Vector, seqLen)
	if err := st.Window(0, 0, seqLen, series, nil); err != nil {
		return err
	}
	feat := make(vec.Vector, fmap.Dim())
	var serr error
	const passes = 20
	m["dft.slide_ns"] = batches(passes*(seqLen-windowLen), func() {
		for p := 0; p < passes; p++ {
			sl, err := dft.NewSlidingTransformer(fmap, series[:windowLen])
			if err != nil {
				serr = err
				return
			}
			for _, v := range series[windowLen:] {
				sl.Slide(v)
				sl.Feature(feat)
				sink += feat[0]
			}
		}
	})
	if serr != nil {
		return serr
	}

	// geom.kernel_ns_per_node: the batched Entering/Exiting test over
	// one node of 20 entries in the 6-dimensional feature space, MBRs
	// drawn around the features of real windows.
	const fanout, nodes = 20, 256
	dim := fmap.Dim()
	planes := make([]geom.NodePlanes, nodes)
	for n := range planes {
		pl := geom.NodePlanes{Data: make([]float64, 2*dim*fanout), Count: fanout, Dim: dim}
		for e := 0; e < fanout; e++ {
			if err := randomWindow(w); err != nil {
				return err
			}
			f := fmap.Transform(vec.SETransform(w))
			for j := 0; j < dim; j++ {
				half := 0.05 * (1 + math.Abs(f[j]))
				pl.LRow(j)[e] = f[j] - half
				pl.HRow(j)[e] = f[j] + half
			}
		}
		planes[n] = pl
	}
	line := vec.Line{P: make(vec.Vector, dim), D: fmap.Transform(vec.SETransform(q))}
	var sc geom.BatchScratch
	eps := data.eps(tightFrac)
	hits := 0
	m["geom.kernel_ns_per_node"] = batches(nodes*20, func() {
		for rep := 0; rep < 20; rep++ {
			for _, pl := range planes {
				for _, v := range geom.PenetratesEnlargedBatch(geom.EnteringExiting, pl, eps, line, &sc, nil) {
					if v {
						hits++
					}
				}
			}
		}
	})
	kernelSink = sink + float64(hits)
	return nil
}

// kernelSink receives what the timed kernel loops computed, so the
// compiler cannot discard the calls.
var kernelSink float64

// ingestReplica is the harness's own copy of the write path: a WAL and
// a segmented index on the same filesystem as the server's, fed the
// exact appends the server acked.
type ingestReplica struct {
	dir      string
	seg      *core.SegmentedIndex
	walPath  string
	ckptBase string
}

// newIngestReplica replays every acked append through wal.AppendValues
// and SegmentedIndex.AppendValues, timing each, compacts whenever the
// delta reaches the server's threshold, and installs checkpoints three
// quarters of the way through so that recovery has a WAL tail to
// replay.
func newIngestReplica(built *core.Index, lv *live, m map[string]float64) (*ingestReplica, error) {
	seg, err := core.NewSegmentedFromIndex(built)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(lv.dep.dir, "replica")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ing := &ingestReplica{dir: dir, seg: seg, walPath: filepath.Join(dir, "replica.wal"), ckptBase: filepath.Join(dir, "ckpt")}
	log, _, err := wal.Open(ing.walPath)
	if err != nil {
		return nil, err
	}
	defer log.Close()

	acked := lv.stream.log
	checkpointAt := len(acked) * 3 / 4
	var walUS, applyUS, compactMS, installMS []float64
	for k, a := range acked {
		if k == checkpointAt {
			if err := seg.Compact(); err != nil {
				return nil, err
			}
			for c := 0; c < 3; c++ {
				start := time.Now()
				write, release, err := seg.SegmentWriter()
				if err != nil {
					return nil, err
				}
				meta := ckpt.Meta{Generation: int64(c + 1), WALOffset: log.Offset(), CreatedAt: time.Now()}
				err = ckpt.Install(ing.ckptBase, meta, seg.Store().Snapshot().WriteBinary, write)
				release()
				if err != nil {
					return nil, err
				}
				installMS = append(installMS, ms(time.Since(start)))
			}
		}
		start := time.Now()
		if err := log.AppendValues(a.seq, a.values); err != nil {
			return nil, err
		}
		mid := time.Now()
		if err := seg.AppendValues(a.seq, a.values); err != nil {
			return nil, err
		}
		end := time.Now()
		walUS = append(walUS, float64(mid.Sub(start))/1e3)
		applyUS = append(applyUS, float64(end.Sub(mid))/1e3)
		if seg.Backlog().DeltaWindows >= compactThreshold {
			start := time.Now()
			if err := seg.Compact(); err != nil {
				return nil, err
			}
			compactMS = append(compactMS, ms(time.Since(start)))
		}
	}
	m["wal.append_us"] = percentile(walUS, 0.5)
	m["core.append_us"] = percentile(applyUS, 0.5)
	m["core.compact_ms"] = percentile(compactMS, 0.5)
	m["ckpt.install_ms"] = median(installMS)
	if n := len(acked) * appendSize; n > 0 {
		m["wal.bytes_per_value"] = float64(log.Offset()) / float64(n)
	}
	return ing, nil
}

// recoverTimings measures ckpt.Recover plus the replay of the WAL tail
// past the checkpoint, as a restarted server does it.
func (ing *ingestReplica) recoverTimings(m map[string]float64) error {
	var recoverMS []float64
	for k := 0; k < 3; k++ {
		start := time.Now()
		res, _, err := ckpt.Recover(ing.ckptBase)
		if err != nil {
			return err
		}
		log, recs, err := wal.Open(ing.walPath)
		if err != nil {
			return err
		}
		for _, rec := range recs {
			if rec.End > res.Meta.WALOffset {
				if err := res.Seg.AppendValues(rec.Seq, rec.Values); err != nil {
					return err
				}
			}
		}
		recoverMS = append(recoverMS, ms(time.Since(start)))
		log.Close()
		if got, want := res.Store.TotalValues(), ing.seg.Store().TotalValues(); got != want {
			return fmt.Errorf("replica recovery holds %d values, want %d", got, want)
		}
		res.Seg.Close()
	}
	m["ckpt.recover_ms"] = median(recoverMS)
	return nil
}

func (ing *ingestReplica) close() {
	ing.seg.Close()
}
