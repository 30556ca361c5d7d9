package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"scaleshift/internal/cluster"
	"scaleshift/internal/core"
	"scaleshift/internal/obs"
	"scaleshift/internal/query"
	"scaleshift/internal/stock"
	"scaleshift/internal/store"
)

// coordTestCluster is a full scatter-gather topology built from real
// ssserve shard servers plus the single-node oracle over the same union
// store: every cluster answer has a ground truth.
type coordTestCluster struct {
	front  *coordServer
	single *server            // oracle over the union store
	union  *core.Index        // the oracle's index
	shards []*httptest.Server // real ssserve processes' HTTP surface
	man    *cluster.Manifest
	norm   float64 // union norm scale, for eps selection
}

func buildCoordCluster(t *testing.T, shards int) *coordTestCluster {
	t.Helper()
	obs.Enable()
	t.Cleanup(obs.Disable)

	st := store.New()
	cfg := stock.DefaultConfig()
	cfg.Companies = 12
	cfg.Days = 140
	if _, err := stock.Populate(st, cfg); err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.WindowLen = 32

	buildServer := func(s *store.Store) *server {
		ix, err := core.NewIndex(s, opts)
		if err == nil {
			err = ix.Build()
		}
		if err != nil {
			t.Fatal(err)
		}
		norm, err := query.SENormScale(s, opts.WindowLen, 50, 3)
		if err != nil {
			t.Fatal(err)
		}
		return newServerFromConfig(t, serverConfig{
			snap:   &snapshot{ix: ix, normScale: norm, how: "built for test", loadedAt: time.Now()},
			tracer: obs.NewTracer(16),
			logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
			serve:  testServeFlags(),
		})
	}

	parts, man, err := cluster.Partition(st, shards)
	if err != nil {
		t.Fatal(err)
	}
	tc := &coordTestCluster{man: man, single: buildServer(st)}
	pin := tc.single.snap.Acquire()
	tc.union = pin.Value().ix
	pin.Release()
	norm, err := query.SENormScale(st, opts.WindowLen, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	tc.norm = norm

	addrs := make([]string, shards)
	for i, p := range parts {
		if p.NumSequences() == 0 {
			t.Fatalf("shard %d is empty; pick test parameters that populate every shard", i)
		}
		srv := httptest.NewServer(buildServer(p))
		t.Cleanup(srv.Close)
		tc.shards = append(tc.shards, srv)
		addrs[i] = srv.URL
	}

	coord, err := newTestCoordinator(t, man, addrs)
	if err != nil {
		t.Fatal(err)
	}
	front, err := newCoordServer(coordConfig{
		coord:  coord,
		tracer: obs.NewTracer(16),
		logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		serve:  testServeFlags(),
		quorum: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	tc.front = front
	return tc
}

func newTestCoordinator(t *testing.T, man *cluster.Manifest, addrs []string) (*cluster.Coordinator, error) {
	return cluster.NewCoordinator(t.Context(), cluster.CoordinatorConfig{
		Manifest:       man,
		Addrs:          addrs,
		Shard:          cluster.ShardConfig{AttemptTimeout: 10 * time.Second},
		ConnectTimeout: 10 * time.Second,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
}

func coordGet(t *testing.T, h http.Handler, path string, header http.Header) (*http.Response, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Set(k, v)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	resp := rec.Result()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// search sends a GET /search and decodes the body, requiring status.
func search(t *testing.T, h http.Handler, path string, status int) cluster.SearchWire {
	t.Helper()
	resp, body := coordGet(t, h, path, nil)
	if resp.StatusCode != status {
		t.Fatalf("%s: status %d, want %d: %s", path, resp.StatusCode, status, body)
	}
	var sw cluster.SearchWire
	if err := json.Unmarshal(body, &sw); err != nil {
		t.Fatalf("%s: decoding: %v\n%s", path, err, body)
	}
	return sw
}

// values formats a window of the union store, disguised, exactly the
// way the coordinator fans values out.
func (tc *coordTestCluster) values(t *testing.T, seq, start, n int, scale, shift float64) string {
	t.Helper()
	raw := make([]float64, n)
	if err := tc.union.Store().Window(seq, start, n, raw, nil); err != nil {
		t.Fatal(err)
	}
	fields := make([]string, n)
	for i, v := range raw {
		fields[i] = strconv.FormatFloat(scale*v+shift, 'g', -1, 64)
	}
	return strings.Join(fields, ",")
}

func (tc *coordTestCluster) eps(frac float64) string {
	return strconv.FormatFloat(frac*tc.norm, 'g', -1, 64)
}

// byDist puts a k-NN answer in canonical (dist, seq, start) order: two
// exact answers may list distance ties differently, never differ in
// what they hold.
func byDist(ms []cluster.WireMatch) {
	slices.SortFunc(ms, func(a, b cluster.WireMatch) int {
		return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.Seq, b.Seq), cmp.Compare(a.Start, b.Start))
	})
}

// sameMatches requires two answers to hold the same rows, every float
// bit-identical.
func sameMatches(t *testing.T, what string, got, want []cluster.WireMatch) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: cluster returned %d matches, single node %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Seq != w.Seq || g.Start != w.Start || g.Name != w.Name ||
			math.Float64bits(g.Dist) != math.Float64bits(w.Dist) ||
			math.Float64bits(g.Scale) != math.Float64bits(w.Scale) ||
			math.Float64bits(g.Shift) != math.Float64bits(w.Shift) {
			t.Fatalf("%s: match %d differs:\n  cluster %+v\n  oracle  %+v", what, i, g, w)
		}
	}
}

// matchSingleNode sends path to the coordinator and to the single-node
// oracle and requires the same complete answer — rows, total and
// truncation — and returns the oracle's.
func (tc *coordTestCluster) matchSingleNode(t *testing.T, path string, knn bool) cluster.SearchWire {
	t.Helper()
	got := search(t, tc.front, path, http.StatusOK)
	if !got.Coverage.Complete || got.Coverage.OK != len(tc.shards) {
		t.Fatalf("%s: coverage %+v, want complete with every shard ok", path, got.Coverage)
	}
	want := search(t, tc.single, path, http.StatusOK)
	if got.Total != want.Total || got.Truncated != want.Truncated {
		t.Fatalf("%s: coordinator total %d (truncated %v), single node %d (%v)", path, got.Total, got.Truncated, want.Total, want.Truncated)
	}
	if knn {
		byDist(got.Matches)
		byDist(want.Matches)
	}
	sameMatches(t, path, got.Matches, want.Matches)
	return want
}

// TestCoordinatorMatchesSingleNode drives the same seq/start query
// through the coordinator and the single-node oracle and requires
// bit-identical matches: unlimited, with a limit the shards each apply
// before the merge, and with the default.
func TestCoordinatorMatchesSingleNode(t *testing.T) {
	tc := buildCoordCluster(t, 3)
	for _, limit := range []string{"&limit=0", "&limit=2", ""} {
		want := tc.matchSingleNode(t, "/search?seq=3&start=12&eps="+tc.eps(0.08)+limit, false)
		if want.Total < 3 {
			t.Fatalf("oracle found %d matches; the comparison needs at least 3", want.Total)
		}
	}
}

// TestRangeEquivalence disguises the query window (the coordinator
// resolves it against the owner shard and fans out the values): the
// merged head and total must be the single node's at every limit, and
// the shards' own counts must add up to the oracle's total — the merge
// drops duplicate rows silently, so only that sum shows a row reaching
// it twice.
func TestRangeEquivalence(t *testing.T) {
	tc := buildCoordCluster(t, 3)
	for _, c := range []struct {
		name         string
		seq, start   int
		scale, shift float64
	}{
		{"identity", 2, 10, 1, 0},
		{"scaled_shifted", 7, 40, 1.7, 3.25},
		{"negative_shift", 11, 0, 0.6, -12.5},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := fmt.Sprintf("/search?seq=%d&start=%d&scale=%g&shift=%g&eps=%s", c.seq, c.start, c.scale, c.shift, tc.eps(0.08))
			all := tc.matchSingleNode(t, path+"&limit=0", false)
			if all.Total == 0 {
				t.Fatal("oracle found nothing; the equivalence check would be vacuous")
			}
			params := url.Values{}
			params.Set("values", tc.values(t, c.seq, c.start, 32, c.scale, c.shift))
			params.Set("eps", tc.eps(0.08))
			for _, limit := range []int{0, 1, 5, all.Total, 1000} {
				if limit > 0 {
					tc.matchSingleNode(t, fmt.Sprintf("%s&limit=%d", path, limit), false)
				}
				params.Set("limit", strconv.Itoa(limit))
				g := tc.front.coord.Scatter(t.Context(), params, 0, "")
				if g.Failed != 0 || g.ShardResults != all.Total || g.Total != all.Total {
					t.Fatalf("limit %d: %d failed shards, shard result total %d, merged total %d, oracle %d",
						limit, g.Failed, g.ShardResults, g.Total, all.Total)
				}
			}
		})
	}
}

// TestLongQueryEquivalence: a query three windows long runs as a
// multipiece search on every shard and on the oracle alike.
func TestLongQueryEquivalence(t *testing.T) {
	tc := buildCoordCluster(t, 3)
	path := fmt.Sprintf("/search?values=%s&eps=%s&limit=0", tc.values(t, 4, 8, 96, 1.2, -2), tc.eps(0.25))
	if tc.matchSingleNode(t, path, false).Total == 0 {
		t.Fatal("oracle found nothing; raise eps")
	}
}

// TestKNNEquivalence: the merged global top-k is the single node's, and
// a limit cuts the merged list while the shards still send all of
// theirs.
func TestKNNEquivalence(t *testing.T) {
	tc := buildCoordCluster(t, 3)
	const k = 9
	path := fmt.Sprintf("/search?values=%s&nn=%d", tc.values(t, 9, 25, 32, 1, 0), k)
	if all := tc.matchSingleNode(t, path+"&limit=0", true); len(all.Matches) != k {
		t.Fatalf("oracle returned %d of %d neighbors", len(all.Matches), k)
	}
	if got := tc.matchSingleNode(t, path+"&limit=4", true); got.Total != k || len(got.Matches) != 4 {
		t.Fatalf("limit 4: %d rows, total %d, want 4 of %d", len(got.Matches), got.Total, k)
	}
}

// TestCoordinatorTraceparentPropagation sends a caller traceparent and
// requires the same trace id on the coordinator's response, in every
// covered shard's coverage entry, and retrievable from the shard's own
// /debug/traces — the cross-process drill-down path sstop uses.
func TestCoordinatorTraceparentPropagation(t *testing.T) {
	tc := buildCoordCluster(t, 3)
	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	hdr := http.Header{obs.TraceparentHeader: []string{obs.FormatTraceparent(traceID)}}

	resp, body := coordGet(t, tc.front, "/search?seq=0&start=5&eps_frac=0.08", hdr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := obs.ParseTraceparent(resp.Header.Get(obs.TraceparentHeader)); got != traceID {
		t.Fatalf("response traceparent %q, want %q", got, traceID)
	}
	var cr cluster.SearchWire
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.TraceID != traceID {
		t.Fatalf("coordinator trace id %q, want %q", cr.TraceID, traceID)
	}
	// The coordinator's root span describes the query as a shard's does.
	tr, ok := tc.front.tracer.Get(traceID)
	if !ok || !slices.Contains(tr.Spans[0].Attrs, obs.Attr{Key: "query", Value: "window 0:5 len 32 (a=1 b=0)"}) {
		t.Fatalf("coordinator root span lacks the query attribute: %+v", tr)
	}
	for _, sh := range cr.Coverage.Shards {
		if sh.TraceID != traceID {
			t.Fatalf("shard %d adopted trace id %q, want %q", sh.ID, sh.TraceID, traceID)
		}
		// The shard's trace is retrievable from the shard process itself.
		tr, err := http.Get(tc.shards[sh.ID].URL + "/debug/traces?id=" + traceID)
		if err != nil {
			t.Fatal(err)
		}
		tb, _ := io.ReadAll(tr.Body)
		tr.Body.Close()
		if tr.StatusCode != http.StatusOK {
			t.Fatalf("shard %d /debug/traces?id=%s: status %d: %s", sh.ID, traceID, tr.StatusCode, tb)
		}
	}
}

// checkPartial kills shard dead and requires, for path: 206 (not a
// 5xx), accurate per-shard attribution in the coverage block, and
// exact matches for the surviving slices — the oracle's answer minus
// the dead shard's sequences.
func (tc *coordTestCluster) checkPartial(t *testing.T, dead int, path string) {
	t.Helper()
	want := search(t, tc.single, path, http.StatusOK)
	tc.shards[dead].Close()
	got := search(t, tc.front, path, http.StatusPartialContent)
	if got.Coverage.Complete || got.Coverage.Failed != 1 || got.Coverage.OK != 2 {
		t.Fatalf("coverage %+v, want failed=1 ok=2", got.Coverage)
	}
	for _, sh := range got.Coverage.Shards {
		if (sh.ID == dead) != (sh.State == "failed") || (sh.ID == dead) != (sh.Error != "") {
			t.Fatalf("shard %d entry %+v; only shard %d should fail, with an error", sh.ID, sh, dead)
		}
	}
	deadSeqs := make(map[int]bool)
	for _, g := range tc.man.Shards[dead].Seqs {
		deadSeqs[g] = true
	}
	expect := slices.DeleteFunc(want.Matches, func(m cluster.WireMatch) bool { return deadSeqs[m.Seq] })
	if len(expect) == want.Total {
		t.Fatal("no oracle match lives on the dead shard; the check would be vacuous")
	}
	sameMatches(t, "partial", got.Matches, expect)
	if got.Total != len(expect) {
		t.Fatalf("partial total %d, want %d", got.Total, len(expect))
	}
}

// TestPartialCoverageAttribution: a query given by value loses exactly
// the dead fault domain's slice — degraded, attributed, and never
// silently wrong.
func TestPartialCoverageAttribution(t *testing.T) {
	tc := buildCoordCluster(t, 3)
	tc.checkPartial(t, 1, fmt.Sprintf("/search?values=%s&eps=%s&limit=0", tc.values(t, 2, 10, 32, 1, 0), tc.eps(0.08)))
}

// TestCoordinatorPartialCoverage: the same for a seq/start query whose
// owner survives, and the "partial" wide event carries the per-shard
// outcomes.
func TestCoordinatorPartialCoverage(t *testing.T) {
	tc := buildCoordCluster(t, 3)
	const dead = 2
	tc.checkPartial(t, dead, "/search?seq=3&start=12&eps="+tc.eps(0.08)+"&limit=0")

	events, _, _ := tc.front.events.Drain(0, 0)
	var found *obs.Event
	for _, e := range events {
		if e.Kind == "search" && e.Status == http.StatusPartialContent {
			found = e
		}
	}
	if found == nil {
		t.Fatal("no partial search wide event emitted")
	}
	if found.Outcome != "partial" || len(found.Shards) != 3 {
		t.Fatalf("event outcome=%q shards=%d, want partial with 3 shards", found.Outcome, len(found.Shards))
	}
	for _, sh := range found.Shards {
		if (sh.ID == dead) != (sh.State == "failed") {
			t.Fatalf("event shard %d state %q mismatched", sh.ID, sh.State)
		}
	}
}

// TestCoordinatorOwnerDownUnavailable: a seq/start query whose owner
// shard is gone cannot be resolved; that is a 503 with Retry-After, not
// a wrong answer and not a 200 with an empty result.
func TestCoordinatorOwnerDownUnavailable(t *testing.T) {
	tc := buildCoordCluster(t, 3)
	const dead = 1
	ownedSeq := tc.man.Shards[dead].Seqs[0]
	tc.shards[dead].Close()

	resp, body := coordGet(t, tc.front,
		fmt.Sprintf("/search?seq=%d&start=0&eps_frac=0.08", ownedSeq), nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

// TestCoordinatorReadyzQuorum: readiness follows the configured shard
// quorum, the body names each shard's state, and draining overrides.
func TestCoordinatorReadyzQuorum(t *testing.T) {
	tc := buildCoordCluster(t, 3)
	resp, body := coordGet(t, tc.front, "/readyz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy fleet /readyz = %d: %s", resp.StatusCode, body)
	}
	var rz struct {
		Ready       bool    `json:"ready"`
		Quorum      float64 `json:"quorum"`
		ShardsReady int     `json:"shards_ready"`
		ShardsTotal int     `json:"shards_total"`
		Shards      []struct {
			ID    int    `json:"id"`
			Ready bool   `json:"ready"`
			Error string `json:"error"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(body, &rz); err != nil {
		t.Fatal(err)
	}
	if !rz.Ready || rz.ShardsReady != 3 || rz.ShardsTotal != 3 {
		t.Fatalf("readyz %+v, want 3/3 ready", rz)
	}
	// Draining drops the ready gauge; undraining restores it to the
	// quorum's verdict.
	tc.front.SetDraining(true)
	if g := tc.front.readyGauge.Value(); g != 0 {
		t.Fatalf("draining: scaleshift_ready %g, want 0", g)
	}
	tc.front.SetDraining(false)
	if g := tc.front.readyGauge.Value(); g != 1 {
		t.Fatalf("undrained: scaleshift_ready %g, want 1", g)
	}

	// One shard down: 2/3 >= 0.5, still ready, with the dead shard named.
	tc.shards[0].Close()
	resp, body = coordGet(t, tc.front, "/readyz", nil)
	if err := json.Unmarshal(body, &rz); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || rz.ShardsReady != 2 {
		t.Fatalf("2/3 fleet: status %d ready=%d, want 200 with 2 ready: %s", resp.StatusCode, rz.ShardsReady, body)
	}
	for _, sh := range rz.Shards {
		if sh.ID == 0 && (sh.Ready || sh.Error == "") {
			t.Fatalf("dead shard entry %+v, want unready with an error", sh)
		}
	}

	// Two shards down: 1/3 < 0.5, not ready.
	tc.shards[1].Close()
	resp, body = coordGet(t, tc.front, "/readyz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("1/3 fleet /readyz = %d, want 503: %s", resp.StatusCode, body)
	}

	// Draining beats quorum.
	tc.front.SetDraining(true)
	resp, _ = coordGet(t, tc.front, "/readyz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz = %d, want 503", resp.StatusCode)
	}
}

// TestCoordinatorRejectsBadQuery: parameter errors are the caller's
// 400, decided before any shard is bothered.
func TestCoordinatorRejectsBadQuery(t *testing.T) {
	tc := buildCoordCluster(t, 2)
	for _, path := range []string{
		"/search",                      // no query at all
		"/search?seq=abc&start=0",      // unparsable
		"/search?seq=0&start=0&len=-4", // bad window
	} {
		resp, body := coordGet(t, tc.front, path, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", path, resp.StatusCode, body)
		}
	}
	// POST batch is explicitly not available in coordinator mode.
	req := httptest.NewRequest(http.MethodPost, "/search", nil)
	rec := httptest.NewRecorder()
	tc.front.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotImplemented {
		t.Fatalf("POST /search = %d, want 501", rec.Code)
	}
}

// TestWindowResolution checks coordinator-side seq/start resolution:
// the owner shard serves exactly the union store's bytes.
func TestWindowResolution(t *testing.T) {
	tc := buildCoordCluster(t, 3)
	for _, seq := range []int{0, 3, 7, 9} {
		got := make([]float64, 32)
		if err := tc.front.coord.Window(t.Context(), seq, 5, got); err != nil {
			t.Fatal(err)
		}
		want := make([]float64, 32)
		if err := tc.union.Store().Window(seq, 5, 32, want, nil); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("sequence %d value %d: cluster %v, store %v", seq, i, got[i], want[i])
			}
		}
	}
	if err := tc.front.coord.Window(t.Context(), tc.man.Sequences, 0, make([]float64, 32)); err == nil {
		t.Fatal("out-of-range sequence must not resolve")
	}
}

// TestCoordinatorRejectsMiswiredFleet swaps two shard addresses; the
// fingerprint check must refuse to start rather than remap answers
// through the wrong table.
func TestCoordinatorRejectsMiswiredFleet(t *testing.T) {
	tc := buildCoordCluster(t, 3)
	_, err := newTestCoordinator(t, tc.man, []string{tc.shards[1].URL, tc.shards[0].URL, tc.shards[2].URL})
	if err == nil {
		t.Fatal("coordinator accepted a mis-wired -shard-addrs ordering")
	}
	if !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("want a fingerprint identity error, got: %v", err)
	}
}
