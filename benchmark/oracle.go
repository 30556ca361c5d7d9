//go:build unix

package main

import (
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"scaleshift/internal/query"
	"scaleshift/internal/seqscan"
	"scaleshift/internal/store"
)

// dataset is everything one run derives from -seed: the generated
// store, the 100 disguised query windows, ε's unit, and the sequential
// scan's answer to every query.
type dataset struct {
	seed      int64
	dir       string // holds prices.store and, for the cluster, shards/
	storePath string
	st        *store.Store
	queries   []query.Query
	normScale float64
	expect    []expectation
	// The request paths, built once so the timed loops format nothing.
	tightPath, loosePath, knnPath []string
}

type winKey struct{ Seq, Start int }

// expectation is the oracle's answer for one query.
type expectation struct {
	// Tight maps every window within tightFrac·scale to its result.
	Tight map[winKey]seqscan.Result
	// LooseCount is the number of windows within looseFrac·scale;
	// Loose holds them only for the looseFullChecks queries that get a
	// full comparison.
	LooseCount int
	Loose      map[winKey]seqscan.Result
	// Knn is the k nearest windows, nearest first, ties in storage
	// order.
	Knn []seqscan.Result
}

func (d *dataset) eps(frac float64) float64 { return frac * d.normScale }

// generate runs ssgen into dir and loads what it wrote.
func generate(cfg *config, dir string, needShards bool) (*dataset, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &dataset{seed: cfg.seed, dir: dir, storePath: filepath.Join(dir, "prices.store")}
	common := []string{"-companies", strconv.Itoa(cfg.companies), "-days", strconv.Itoa(cfg.days),
		"-seed", strconv.FormatInt(cfg.seed, 10), "-binary"}
	if err := runTool(cfg.ssgen, append(common, "-o", d.storePath)...); err != nil {
		return nil, err
	}
	if needShards {
		args := append(common, "-shards", strconv.Itoa(shardCount), "-o", filepath.Join(dir, "shards"))
		if err := runTool(cfg.ssgen, args...); err != nil {
			return nil, err
		}
	}
	st, err := readStore(d.storePath)
	if err != nil {
		return nil, err
	}
	d.st = st

	qc := query.DefaultConfig()
	qc.Seed = cfg.seed
	if d.queries, err = query.Generate(st, qc); err != nil {
		return nil, err
	}
	if d.normScale, err = query.SENormScale(st, windowLen, seNormSamples, cfg.seed); err != nil {
		return nil, err
	}
	for _, q := range d.queries {
		values := make([]string, len(q.Values))
		for i, v := range q.Values {
			values[i] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		base := "/search?values=" + strings.Join(values, ",")
		d.tightPath = append(d.tightPath, base+"&eps="+strconv.FormatFloat(d.eps(tightFrac), 'g', -1, 64))
		d.loosePath = append(d.loosePath, base+"&eps="+strconv.FormatFloat(d.eps(looseFrac), 'g', -1, 64))
		d.knnPath = append(d.knnPath, base+"&nn="+strconv.Itoa(knnK))
	}
	return d, nil
}

func (d *dataset) rangePath(frac float64, i int) string {
	if frac == looseFrac {
		return d.loosePath[i%len(d.loosePath)]
	}
	return d.tightPath[i%len(d.tightPath)]
}

func readStore(path string) (*store.Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := store.ReadBinary(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return st, nil
}

// fullCheck reports whether query i gets the complete loose match-set
// comparison: looseFullChecks of them, evenly spaced.
func fullCheck(i, n int) bool {
	step := n / looseFullChecks
	if step == 0 {
		step = 1
	}
	return i%step == 0 && i/step < looseFullChecks
}

// loadOracle fills d.expect, from cacheDir when an earlier run in this
// checkout already scanned the identical store for the identical
// queries, and by computeOracle otherwise.  The scan costs about as
// much as a whole run's traffic, and the driver repeats seeds.
func (d *dataset) loadOracle(cacheDir string, workers int) error {
	raw, err := os.ReadFile(d.storePath)
	if err != nil {
		return err
	}
	h := sha256.New()
	h.Write(raw)
	fmt.Fprintf(h, "seed=%d tight=%g loose=%g k=%d full=%d", d.seed, d.eps(tightFrac), d.eps(looseFrac), knnK, looseFullChecks)
	path := filepath.Join(cacheDir, fmt.Sprintf("%x.gob", h.Sum(nil)[:12]))
	if f, err := os.Open(path); err == nil {
		err = gob.NewDecoder(f).Decode(&d.expect)
		f.Close()
		if err == nil && len(d.expect) == len(d.queries) {
			return nil
		}
	}
	if err := d.computeOracle(workers); err != nil {
		return err
	}
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return err
	}
	// Written whole, then renamed: a killed run never leaves a torn
	// cache entry for the next one to trust.
	tmp, err := os.CreateTemp(cacheDir, "oracle-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := gob.NewEncoder(tmp).Encode(d.expect); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// computeOracle answers every query by sequential scan at the loose ε,
// on all cores, and derives the tight sets and the k nearest from that
// one pass.  It is not part of any metric.
func (d *dataset) computeOracle(workers int) error {
	d.expect = make([]expectation, len(d.queries))
	epsTight, epsLoose := d.eps(tightFrac), d.eps(looseFrac)
	errs := make([]error, len(d.queries))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				d.expect[i], errs[i] = oracleFor(d.st, d.queries[i], epsTight, epsLoose, fullCheck(i, len(d.queries)))
			}
		}()
	}
	for i := range d.queries {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func oracleFor(st *store.Store, q query.Query, epsTight, epsLoose float64, keepLoose bool) (expectation, error) {
	res, err := seqscan.Search(st, q.Values, epsLoose, nil, nil)
	if err != nil {
		return expectation{}, err
	}
	e := expectation{LooseCount: len(res), Tight: map[winKey]seqscan.Result{}}
	if keepLoose {
		e.Loose = make(map[winKey]seqscan.Result, len(res))
	}
	for _, r := range res {
		if r.Dist <= epsTight {
			e.Tight[winKey{r.Seq, r.Start}] = r
		}
		if keepLoose {
			e.Loose[winKey{r.Seq, r.Start}] = r
		}
	}
	if len(res) >= knnK {
		// Every window nearer than the k-th nearest is inside the loose
		// set, so the k nearest overall are the k nearest of it.
		sort.SliceStable(res, func(i, j int) bool { return res[i].Dist < res[j].Dist })
		e.Knn = append([]seqscan.Result(nil), res[:knnK]...)
	} else if e.Knn, err = seqscan.Nearest(st, q.Values, knnK, nil); err != nil {
		return expectation{}, err
	}
	return e, nil
}

// searchResponse is the part of ssserve's (and the coordinator's)
// /search payload the harness reads.
type searchResponse struct {
	Eps       float64 `json:"eps"`
	ElapsedNs int64   `json:"elapsed_ns"`
	Total     int     `json:"total_matches"`
	Matches   []struct {
		Seq   int     `json:"seq"`
		Start int     `json:"start"`
		Dist  float64 `json:"dist"`
		Scale float64 `json:"scale"`
		Shift float64 `json:"shift"`
	} `json:"matches"`
	Truncated bool `json:"truncated"`
	Stats     struct {
		IndexNodeReads int `json:"index_node_reads"`
		DataPageReads  int `json:"data_page_reads"`
	} `json:"stats"`
	Coverage *struct {
		Complete bool `json:"complete"`
	} `json:"coverage"`
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkMatches verifies that every returned match is in want with
// bit-identical dist, scale and shift, and, when the response is
// complete (limit=0), that nothing in want is missing.  staticOnly
// ignores windows that start past lastStaticStart: on ingest_mixed the
// appended tail may legitimately add matches the seed-data oracle
// cannot know.
func checkMatches(resp *searchResponse, want map[winKey]seqscan.Result, complete, staticOnly bool, lastStaticStart int) error {
	seen := 0
	for _, m := range resp.Matches {
		if staticOnly && m.Start > lastStaticStart {
			continue
		}
		w, ok := want[winKey{m.Seq, m.Start}]
		if !ok {
			return fmt.Errorf("match (%d,%d) dist %g is not in the oracle's set", m.Seq, m.Start, m.Dist)
		}
		if !sameBits(m.Dist, w.Dist) || !sameBits(m.Scale, w.Scale) || !sameBits(m.Shift, w.Shift) {
			return fmt.Errorf("match (%d,%d): dist/scale/shift %g/%g/%g differ in bits from the oracle's %g/%g/%g",
				m.Seq, m.Start, m.Dist, m.Scale, m.Shift, w.Dist, w.Scale, w.Shift)
		}
		seen++
	}
	if complete && seen != len(want) {
		return fmt.Errorf("%d of the oracle's %d matches returned", seen, len(want))
	}
	return nil
}

// checkRange validates one range response against the oracle.
func (d *dataset) checkRange(resp *searchResponse, i int, frac float64, complete, ingest bool) error {
	e := &d.expect[i%len(d.expect)]
	if resp.Coverage != nil && !resp.Coverage.Complete {
		return fmt.Errorf("coordinator coverage incomplete")
	}
	lastStatic := d.st.SequenceLen(0) - windowLen // every generated sequence has the same length
	if frac == looseFrac {
		if resp.Total != e.LooseCount {
			return fmt.Errorf("total_matches %d, oracle %d", resp.Total, e.LooseCount)
		}
		if complete && e.Loose != nil {
			return checkMatches(resp, e.Loose, true, false, lastStatic)
		}
		return nil
	}
	if !ingest && resp.Total != len(e.Tight) {
		return fmt.Errorf("total_matches %d, oracle %d", resp.Total, len(e.Tight))
	}
	if ingest && resp.Total < len(e.Tight) {
		return fmt.Errorf("total_matches %d below the seed-data oracle's %d", resp.Total, len(e.Tight))
	}
	// A default-limit response lists every match as long as the set
	// fits under the server's cap of 100.
	complete = complete || !resp.Truncated
	return checkMatches(resp, e.Tight, complete, ingest, lastStatic)
}

// checkKNN validates a k-NN response: k matches, nearest first, with
// the oracle's distances bit for bit.  Window identity is compared too
// unless the oracle itself has a tie at that rank.
func (d *dataset) checkKNN(resp *searchResponse, i int) error {
	e := &d.expect[i%len(d.expect)]
	if resp.Coverage != nil && !resp.Coverage.Complete {
		return fmt.Errorf("coordinator coverage incomplete")
	}
	if len(resp.Matches) != len(e.Knn) {
		return fmt.Errorf("%d neighbours returned, want %d", len(resp.Matches), len(e.Knn))
	}
	for r, m := range resp.Matches {
		w := e.Knn[r]
		if !sameBits(m.Dist, w.Dist) {
			return fmt.Errorf("neighbour %d: dist %g, oracle %g", r, m.Dist, w.Dist)
		}
		tied := (r > 0 && e.Knn[r-1].Dist == w.Dist) || (r+1 < len(e.Knn) && e.Knn[r+1].Dist == w.Dist)
		if !tied && (m.Seq != w.Seq || m.Start != w.Start) {
			return fmt.Errorf("neighbour %d: window (%d,%d), oracle (%d,%d)", r, m.Seq, m.Start, w.Seq, w.Start)
		}
	}
	return nil
}
