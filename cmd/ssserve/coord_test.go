package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"scaleshift/internal/cluster"
	"scaleshift/internal/core"
	"scaleshift/internal/obs"
	"scaleshift/internal/query"
	"scaleshift/internal/resilience"
	"scaleshift/internal/stock"
	"scaleshift/internal/store"
)

// coordTestCluster is a full scatter-gather topology built from real
// ssserve shard servers — the production shard surface, not the
// in-process ShardNode adapter — plus the single-node oracle over the
// same union store.
type coordTestCluster struct {
	front  *coordServer
	single *server            // oracle over the union store
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
			snap:    &snapshot{ix: ix, normScale: norm, how: "built for test", loadedAt: time.Now()},
			tracer:  obs.NewTracer(16),
			logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
			serve:   testServeFlags(),
			breaker: resilience.DefaultBreakerConfig(),
		})
	}

	parts, man, err := cluster.Partition(st, shards)
	if err != nil {
		t.Fatal(err)
	}
	tc := &coordTestCluster{man: man, single: buildServer(st)}
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

	coord, err := cluster.NewCoordinator(t.Context(), cluster.CoordinatorConfig{
		Manifest:       man,
		Addrs:          addrs,
		Shard:          cluster.ShardConfig{AttemptTimeout: 10 * time.Second},
		ConnectTimeout: 10 * time.Second,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
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

type coordRespJSON struct {
	TraceID   string      `json:"trace_id"`
	Eps       float64     `json:"eps"`
	Total     int         `json:"total_matches"`
	Matches   []matchJSON `json:"matches"`
	Truncated bool        `json:"truncated"`
	Coverage  struct {
		Complete bool `json:"complete"`
		OK       int  `json:"ok"`
		Degraded int  `json:"degraded"`
		Failed   int  `json:"failed"`
		Shards   []struct {
			ID      int    `json:"id"`
			State   string `json:"state"`
			TraceID string `json:"trace_id"`
			Error   string `json:"error"`
		} `json:"shards"`
	} `json:"coverage"`
}

// TestCoordinatorMatchesSingleNode drives the same seq/start query
// through the coordinator and the single-node oracle and requires
// bit-identical matches: coverage of the acceptance criterion at the
// HTTP layer, on top of the cluster package's engine-level suite.
func TestCoordinatorMatchesSingleNode(t *testing.T) {
	tc := buildCoordCluster(t, 3)
	eps := 0.08 * tc.norm
	// Unlimited, with a limit the shards each apply before the merge, and
	// with the default.
	for _, limit := range []string{"&limit=0", "&limit=2", ""} {
		path := fmt.Sprintf("/search?seq=3&start=12&eps=%s%s", strconv.FormatFloat(eps, 'g', -1, 64), limit)

		resp, body := coordGet(t, tc.front, path, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("coordinator status %d: %s", resp.StatusCode, body)
		}
		var got coordRespJSON
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("decoding: %v\n%s", err, body)
		}
		if !got.Coverage.Complete || got.Coverage.OK != 3 {
			t.Fatalf("coverage %+v, want complete with 3 ok shards", got.Coverage)
		}

		sresp, sbody := get(t, tc.single, path)
		if sresp.StatusCode != http.StatusOK {
			t.Fatalf("oracle status %d: %s", sresp.StatusCode, sbody)
		}
		var want searchResponse
		if err := json.Unmarshal(sbody, &want); err != nil {
			t.Fatal(err)
		}
		if want.Total < 3 {
			t.Fatalf("oracle found %d matches; the comparison needs at least 3", want.Total)
		}
		if got.Total != want.Total || len(got.Matches) != len(want.Matches) || got.Truncated != want.Truncated {
			t.Fatalf("%q: coordinator returned %d of %d matches (truncated %v), single node %d of %d (%v)",
				limit, len(got.Matches), got.Total, got.Truncated, len(want.Matches), want.Total, want.Truncated)
		}
		for i := range want.Matches {
			g, w := got.Matches[i], want.Matches[i]
			if g.Seq != w.Seq || g.Start != w.Start || g.Name != w.Name ||
				math.Float64bits(g.Dist) != math.Float64bits(w.Dist) ||
				math.Float64bits(g.Scale) != math.Float64bits(w.Scale) ||
				math.Float64bits(g.Shift) != math.Float64bits(w.Shift) {
				t.Fatalf("%q: match %d differs:\n  coordinator %+v\n  oracle      %+v", limit, i, g, w)
			}
		}
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
	var cr coordRespJSON
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.TraceID != traceID {
		t.Fatalf("coordinator trace id %q, want %q", cr.TraceID, traceID)
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

// TestCoordinatorPartialCoverage kills one shard and requires: 206 (not
// a 5xx), accurate per-shard attribution in the coverage block, exact
// matches for the surviving slices, and a "partial" wide event carrying
// the per-shard outcomes.
func TestCoordinatorPartialCoverage(t *testing.T) {
	tc := buildCoordCluster(t, 3)
	const dead = 2
	tc.shards[dead].Close()

	eps := 0.08 * tc.norm
	path := fmt.Sprintf("/search?seq=3&start=12&eps=%s&limit=0", strconv.FormatFloat(eps, 'g', -1, 64))
	resp, body := coordGet(t, tc.front, path, nil)
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("status %d, want 206: %s", resp.StatusCode, body)
	}
	var got coordRespJSON
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Coverage.Complete || got.Coverage.Failed != 1 || got.Coverage.OK != 2 {
		t.Fatalf("coverage %+v, want failed=1 ok=2", got.Coverage)
	}
	for _, sh := range got.Coverage.Shards {
		if sh.ID == dead {
			if sh.State != "failed" || sh.Error == "" {
				t.Fatalf("dead shard entry %+v, want failed with an error", sh)
			}
		} else if sh.State != "ok" {
			t.Fatalf("healthy shard %d reported %q", sh.ID, sh.State)
		}
	}

	// Surviving matches are exact: the oracle's answer minus the dead
	// shard's sequences.
	_, sbody := get(t, tc.single, path)
	var want searchResponse
	if err := json.Unmarshal(sbody, &want); err != nil {
		t.Fatal(err)
	}
	deadSeqs := make(map[int]bool)
	for _, g := range tc.man.Shards[dead].Seqs {
		deadSeqs[g] = true
	}
	var expect []matchJSON
	for _, m := range want.Matches {
		if !deadSeqs[m.Seq] {
			expect = append(expect, m)
		}
	}
	if len(expect) == len(want.Matches) {
		t.Fatal("no oracle match lives on the dead shard; the check would be vacuous")
	}
	if len(got.Matches) != len(expect) {
		t.Fatalf("partial answer has %d matches, want %d", len(got.Matches), len(expect))
	}
	for i := range expect {
		if got.Matches[i].Seq != expect[i].Seq || got.Matches[i].Start != expect[i].Start ||
			math.Float64bits(got.Matches[i].Dist) != math.Float64bits(expect[i].Dist) {
			t.Fatalf("partial match %d differs: %+v vs %+v", i, got.Matches[i], expect[i])
		}
	}

	// The wide event attributes the same coverage.
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
