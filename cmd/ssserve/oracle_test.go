package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"scaleshift/internal/cliutil"
	"scaleshift/internal/cluster"
	"scaleshift/internal/core"
	"scaleshift/internal/engine"
	"scaleshift/internal/oracle"
	"scaleshift/internal/vec"
)

// The exactness suites at the HTTP layer: a server, a batch endpoint, a
// coordinator or a recovered index is one more oracle.System, held by
// oracle.Check to the sequential scan over the data it serves.

// searchParams encodes q as GET /search parameters, or reports that
// the endpoint cannot express its cost bounds.
func searchParams(q core.Query) (url.Values, error) {
	p := url.Values{"limit": {strconv.Itoa(q.Limit)}}
	if len(q.Vec) > 0 {
		fields := make([]string, len(q.Vec))
		for i, v := range q.Vec {
			fields[i] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		p.Set("values", strings.Join(fields, ","))
	}
	if q.K > 0 {
		p.Set("nn", strconv.Itoa(q.K))
	} else {
		p.Set("eps", strconv.FormatFloat(q.Eps, 'g', -1, 64))
	}
	if q.Force != engine.PathAuto {
		p.Set("path", q.Force.String())
	}
	c := q.Costs
	if c == (core.CostBounds{}) {
		return p, nil
	}
	if c.ShiftMin != -c.ShiftMax {
		return nil, fmt.Errorf("cost bounds %+v have no /search form", c)
	}
	for name, v := range map[string]float64{"scale_min": c.ScaleMin, "scale_max": c.ScaleMax, "shift_abs": c.ShiftMax} {
		if !math.IsInf(v, 0) {
			p.Set(name, strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	return p, nil
}

// expressible keeps the queries GET /search can carry.
func expressible(qs []core.Query) []core.Query {
	return slices.DeleteFunc(slices.Clone(qs), func(q core.Query) bool {
		_, err := searchParams(q)
		return err != nil
	})
}

// drawn is a query cut from the stored window of n values at (seq,
// start), disguised as scale·w + shift.
type drawn struct {
	seq, start, n int
	scale, shift  float64
}

func (d drawn) vec(data []oracle.Seq) []float64 {
	return vec.Apply(data[d.seq].Values[d.start:d.start+d.n], d.scale, d.shift)
}

// searchSystem answers each query with one GET /search on h: the ith
// query, for i below len(from), as the window from[i] names (seq,
// start, len, scale, shift), which the server resolves itself, and the
// others by their values.  Every answer's truncated flag must say
// whether rows were cut, and for shards above 0 — a coordinator — its
// coverage must be complete over that many shards.
func searchSystem(name string, h http.Handler, shards int, from ...drawn) oracle.System {
	return oracle.System{Name: name, Answer: func(_ *core.Index, qs []core.Query) ([]core.Result, error) {
		out := make([]core.Result, len(qs))
		for i, q := range qs {
			p, err := searchParams(q)
			if err != nil {
				return nil, err
			}
			if i < len(from) {
				d := from[i]
				p.Del("values")
				for k, v := range map[string]float64{"seq": float64(d.seq), "start": float64(d.start), "len": float64(d.n), "scale": d.scale, "shift": d.shift} {
					p.Set(k, strconv.FormatFloat(v, 'g', -1, 64))
				}
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/search?"+p.Encode(), nil))
			var sw cluster.SearchWire
			if rec.Code != http.StatusOK {
				return nil, fmt.Errorf("query %d: status %d: %s", i, rec.Code, rec.Body)
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &sw); err != nil {
				return nil, err
			}
			if sw.Truncated != (sw.Total > len(sw.Matches)) {
				return nil, fmt.Errorf("query %d: truncated %v with %d rows of %d", i, sw.Truncated, len(sw.Matches), sw.Total)
			}
			if c := sw.Coverage; shards > 0 && (c == nil || !c.Complete || c.OK != shards) {
				return nil, fmt.Errorf("query %d: coverage %+v, want complete over %d shards", i, c, shards)
			}
			out[i] = core.Result{Matches: oracle.Matches(sw.Matches), Total: sw.Total}
		}
		return out, nil
	}}
}

// batchSystem answers the queries through POST /search on s, one batch
// per (path, limit) group, each query's values sent explicitly.
func batchSystem(s *server) oracle.System {
	return oracle.System{Name: "POST /search", Answer: func(_ *core.Index, qs []core.Query) ([]core.Result, error) {
		out := make([]core.Result, len(qs))
		groups := map[[2]int][]int{}
		for i, q := range qs {
			key := [2]int{int(q.Force), q.Limit}
			groups[key] = append(groups[key], i)
		}
		for key, idx := range groups {
			req := batchRequestJSON{Path: engine.PathKind(key[0]).String(), Limit: &key[1]}
			for _, i := range idx {
				q := qs[i]
				bq := batchQueryJSON{Values: q.Vec, Eps: &q.Eps}
				if c := q.Costs; c != (core.CostBounds{}) {
					bq.ScaleMin, bq.ScaleMax, bq.ShiftAbs = bound(c.ScaleMin), bound(c.ScaleMax), bound(c.ShiftMax)
				}
				req.Queries = append(req.Queries, bq)
			}
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			rec := httptest.NewRecorder()
			r := httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body))
			r.Header.Set("Content-Type", "application/json")
			s.ServeHTTP(rec, r)
			var br batchResponseJSON
			if rec.Code != http.StatusOK {
				return nil, fmt.Errorf("batch status %d: %s", rec.Code, rec.Body)
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil {
				return nil, err
			}
			if br.Completed != len(idx) {
				return nil, fmt.Errorf("batch completed %d of %d", br.Completed, len(idx))
			}
			for j, i := range idx {
				out[i] = core.Result{Matches: oracle.Matches(br.Results[j].Matches), Total: br.Results[j].Total}
			}
		}
		return out, nil
	}}
}

// bound is the batch field for cost bound v: absent — unbounded — for
// an infinite v.
func bound(v float64) *float64 {
	if math.IsInf(v, 0) {
		return nil
	}
	return &v
}

func ptr[T any](v T) *T { return &v }

// indexSystem answers through ix, whatever index Check holds.
func indexSystem(name string, ix *core.Index) oracle.System {
	return oracle.System{Name: name, Answer: func(_ *core.Index, qs []core.Query) ([]core.Result, error) {
		res, _, err := ix.ExecBatch(context.Background(), qs, 2, nil)
		return res, err
	}}
}

// exactOver holds ix — recovered, replayed or reloaded — to the scan
// over want, the data it must serve.
func exactOver(t *testing.T, want []oracle.Seq, ix *core.Index) {
	t.Helper()
	opts := ix.Options()
	oracle.Check(t, oracle.Case{Opts: opts, Data: want, Queries: oracle.Mix(want, opts.WindowLen, 1),
		Systems: []oracle.System{indexSystem("the index under test", ix)}})
}

func TestRebuiltIndexServesExactResults(t *testing.T) {
	cfg := newTestServerConfig(t)
	cache := filepath.Join(t.TempDir(), "index.bin")
	if err := os.WriteFile(cache, []byte("not an index artifact"), 0o644); err != nil {
		t.Fatal(err)
	}
	st := cfg.snap.ix.Store()
	ix, how, err := cliutil.OpenIndex(st, cfg.snap.ix.Options(), cache, cfg.logger)
	if err != nil {
		t.Fatal(err)
	}
	cfg.snap = &snapshot{ix: ix, normScale: cfg.snap.normScale, how: how, loadedAt: time.Now()}
	s := newServerFromConfig(t, cfg)
	data := oracle.FromStore(st)
	oracle.Check(t, oracle.Case{Data: data, Queries: expressible(oracle.Mix(data, 32, 1)),
		Systems: []oracle.System{searchSystem("the rebuilt server", s, 0)}})
	var ready struct {
		Snapshot struct {
			How string `json:"how"`
		} `json:"snapshot"`
	}
	_, body := get(t, s, "/readyz")
	if err := json.Unmarshal(body, &ready); err != nil || !strings.HasPrefix(ready.Snapshot.How, "rebuilt (") {
		t.Fatalf("/readyz snapshot: %s (%v)", body, err)
	}
}

// TestBatchMatchesSequential is the oracle check at the HTTP layer: a
// POST batch answers, per slot, exactly as the scan does — and as the
// equivalent GETs.
func TestBatchMatchesSequential(t *testing.T) {
	s := newTestServer(t)
	pin := s.snap.Acquire()
	data := oracle.FromStore(pin.Value().ix.Store())
	pin.Release()
	qs := slices.DeleteFunc(expressible(oracle.Mix(data, 32, 1)), func(q core.Query) bool {
		return q.K > 0 || len(q.Vec) != 32
	})
	oracle.Check(t, oracle.Case{Data: data, Queries: qs, Systems: []oracle.System{batchSystem(s), searchSystem("GET /search", s, 0)}})
}

// TestGivenZeroIsUsed: an absent ε or cost bound takes its default, and
// a given 0 is used as it is — eps 0 is an exact-match query, and
// scale_max=0, scale_min=0 and shift_abs=0 bound the transformation —
// in a POST batch, in a GET by values and by stored window, and through
// a coordinator, whose shards get the bounds as it forwards them.
func TestGivenZeroIsUsed(t *testing.T) {
	tc := buildCoordCluster(t, 3)
	data := oracle.FromStore(tc.union.Store())
	d := drawn{3, 12, 32, 1.7, 3.25}
	q := d.vec(data)
	inf := math.Inf(1)
	qs := []core.Query{
		{Vec: q, Eps: 0},
		{Vec: q, Eps: oracle.Eps(q, 0.3), Costs: core.CostBounds{ScaleMin: -inf, ScaleMax: 0, ShiftMin: -inf, ShiftMax: inf}},
		{Vec: q, Eps: oracle.Eps(q, 0.3), Costs: core.CostBounds{ScaleMin: 0, ScaleMax: inf, ShiftMin: 0, ShiftMax: 0}},
	}
	tc.check(t, qs, d, d, d)
	oracle.Check(t, oracle.Case{Data: data, Queries: qs, Systems: []oracle.System{batchSystem(tc.single)}})
}

// check holds the coordinator and the single-node server over the
// union store to the scan, each asked by values and — for the first
// len(from) queries — by the stored window from[i] names.
func (tc *coordTestCluster) check(t *testing.T, qs []core.Query, from ...drawn) {
	t.Helper()
	n := len(tc.shards)
	systems := []oracle.System{searchSystem("the coordinator", tc.front, n), searchSystem("the single node", tc.single, 0)}
	if len(from) > 0 {
		systems = append(systems, searchSystem("the coordinator, by window", tc.front, n, from...),
			searchSystem("the single node, by window", tc.single, 0, from...))
	}
	oracle.Check(t, oracle.Case{Data: oracle.FromStore(tc.union.Store()), Queries: qs, Systems: systems})
}

// TestCoordinatorMatchesSingleNode drives the standard mix through the
// coordinator and the single-node server — unlimited, with limits the
// shards each apply before the merge, k-NN and long queries alike —
// after a stored window the coordinator resolves against its owner.
func TestCoordinatorMatchesSingleNode(t *testing.T) {
	tc := buildCoordCluster(t, 3)
	data := oracle.FromStore(tc.union.Store())
	d := drawn{3, 12, 32, 1, 0}
	q := core.Query{Vec: d.vec(data), Eps: oracle.Eps(d.vec(data), 0.08)}
	limited := q
	limited.Limit = 2
	tc.check(t, append([]core.Query{q, limited}, expressible(oracle.Mix(data, 32, 3))...), d, d)
}

// TestRangeEquivalence disguises query windows, which the coordinator
// resolves against the owner shard and fans out as values: the merged
// head and total are the scan's at every limit, and the shards' own
// counts add up to the total — the merge drops duplicate rows silently,
// so only that sum shows a row reaching it twice.
func TestRangeEquivalence(t *testing.T) {
	tc := buildCoordCluster(t, 3)
	data := oracle.FromStore(tc.union.Store())
	scatter := oracle.System{Name: "Scatter", Answer: func(_ *core.Index, qs []core.Query) ([]core.Result, error) {
		out := make([]core.Result, len(qs))
		for i, q := range qs {
			p, err := searchParams(q)
			if err != nil {
				return nil, err
			}
			g := tc.front.coord.Scatter(t.Context(), p, 0, "")
			if g.Failed != 0 || g.ShardResults != g.Total {
				return nil, fmt.Errorf("query %d: %d failed shards, shard result total %d, merged total %d", i, g.Failed, g.ShardResults, g.Total)
			}
			out[i] = core.Result{Matches: oracle.Matches(g.Matches), Total: g.Total}
		}
		return out, nil
	}}
	for name, d := range map[string]drawn{
		"identity":       {2, 10, 32, 1, 0},
		"scaled_shifted": {7, 40, 32, 1.7, 3.25},
		"negative_shift": {11, 0, 32, 0.6, -12.5},
	} {
		t.Run(name, func(t *testing.T) {
			q := core.Query{Vec: d.vec(data), Eps: oracle.Eps(d.vec(data), 0.3)}
			var qs []core.Query
			for _, limit := range []int{0, 1, 5, 1000} {
				q.Limit = limit
				qs = append(qs, q)
			}
			n := len(tc.shards)
			oracle.Check(t, oracle.Case{Data: data, Queries: qs, Systems: []oracle.System{scatter,
				searchSystem("the coordinator", tc.front, n), searchSystem("the coordinator, by window", tc.front, n, d, d, d, d),
				searchSystem("the single node, by window", tc.single, 0, d, d, d, d)}})
		})
	}
}

// TestLongQueryEquivalence: a query three windows long runs as a
// multipiece search on every shard and on the single node alike.
func TestLongQueryEquivalence(t *testing.T) {
	tc := buildCoordCluster(t, 3)
	d := drawn{4, 8, 96, 1.2, -2}
	q := d.vec(oracle.FromStore(tc.union.Store()))
	tc.check(t, []core.Query{{Vec: q, Eps: oracle.Eps(q, 0.25)}, {Vec: q, Eps: oracle.Eps(q, 0.5), Limit: 3}}, d, d)
}

// TestKNNEquivalence: the merged global top-k is the scan's, and a
// limit cuts the merged list while the shards still send all of theirs.
func TestKNNEquivalence(t *testing.T) {
	tc := buildCoordCluster(t, 3)
	d := drawn{9, 25, 32, 1, 0}
	q := d.vec(oracle.FromStore(tc.union.Store()))
	tc.check(t, []core.Query{{Vec: q, K: 9}, {Vec: q, K: 9, Limit: 4}, {Vec: q, K: 1}}, d, d, d)
}
