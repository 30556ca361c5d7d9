package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"scaleshift/internal/cliutil"
	"scaleshift/internal/cluster"
	"scaleshift/internal/core"
	"scaleshift/internal/obs"
	"scaleshift/internal/query"
	"scaleshift/internal/stock"
	"scaleshift/internal/store"
)

// testServeFlags are the admission limits test servers run with:
// generous enough that ordinary tests never shed, small enough that
// the overload tests can saturate them deliberately.
func testServeFlags() cliutil.ServeFlags {
	return cliutil.ServeFlags{
		MaxInflight:    16,
		MaxQueue:       32,
		QueueTimeout:   2 * time.Second,
		RequestTimeout: 30 * time.Second,
	}
}

// newTestIndex builds a small synthetic store + index + normScale for
// server tests.
func newTestIndex(t *testing.T) (*core.Index, float64) {
	t.Helper()
	st := store.New()
	cfg := stock.DefaultConfig()
	cfg.Companies = 10
	cfg.Days = 120
	if _, err := stock.Populate(st, cfg); err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.WindowLen = 32

	ix, err := core.NewIndex(st, opts)
	if err == nil {
		err = ix.Build()
	}
	if err != nil {
		t.Fatal(err)
	}
	normScale, err := query.SENormScale(st, opts.WindowLen, 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	return ix, normScale
}

// newTestServerConfig builds the default test serverConfig over a small
// synthetic store; tests adjust it before calling newServerFromConfig.
func newTestServerConfig(t *testing.T) serverConfig {
	t.Helper()
	ix, normScale := newTestIndex(t)
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	return serverConfig{
		snap:   &snapshot{ix: ix, normScale: normScale, how: "built for test", loadedAt: time.Now()},
		tracer: obs.NewTracer(16),
		logger: logger,
		serve:  testServeFlags(),
	}
}

func newServerFromConfig(t *testing.T, cfg serverConfig) *server {
	t.Helper()
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// newTestServer builds a server over a small synthetic store, with the
// obs layer enabled (as ssserve always runs).
func newTestServer(t *testing.T) *server {
	t.Helper()
	obs.Enable()
	t.Cleanup(obs.Disable)
	return newServerFromConfig(t, newTestServerConfig(t))
}

func get(t *testing.T, s *server, path string) (*http.Response, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	resp := rec.Result()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestSearchEndpoint(t *testing.T) {
	s := newTestServer(t)
	resp, body := get(t, s, "/search?seq=0&start=5&eps_frac=0.05")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr cluster.SearchWire
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("decoding response: %v\n%s", err, body)
	}
	if sr.Total < 1 {
		t.Fatal("self-query must match itself at least")
	}
	if sr.Plan == nil || sr.Plan.Path == "" {
		t.Fatalf("response missing plan: %s", body)
	}
	if sr.TraceID == "" {
		t.Fatalf("response missing trace_id: %s", body)
	}
	if sr.Stats.Candidates != sr.Stats.FalseAlarms+sr.Stats.CostRejected+sr.Total {
		t.Fatalf("stats ledger unbalanced in response: %+v total=%d", sr.Stats, sr.Total)
	}
}

// TestSearchTraceSpanDurations is the acceptance check: the HTTP
// query's trace must contain plan/probe/verify spans whose durations
// sum to no more than the root span's total.
func TestSearchTraceSpanDurations(t *testing.T) {
	s := newTestServer(t)
	resp, body := get(t, s, "/search?seq=1&start=9&eps_frac=0.05")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr cluster.SearchWire
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}

	tresp, tbody := get(t, s, "/debug/traces?id="+sr.TraceID)
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch status %d: %s", tresp.StatusCode, tbody)
	}
	var trace obs.TraceSnapshot
	if err := json.Unmarshal(tbody, &trace); err != nil {
		t.Fatal(err)
	}
	if trace.ID != sr.TraceID {
		t.Fatalf("trace id %s, want %s", trace.ID, sr.TraceID)
	}
	var stageSum, rootDur int64
	seen := map[string]bool{}
	for _, span := range trace.Spans {
		if span.InFlight {
			t.Fatalf("span %s still in flight after response", span.Name)
		}
		switch span.Name {
		case "plan", "probe", "verify":
			seen[span.Name] = true
			stageSum += span.DurationNs
		case "search":
			rootDur = span.DurationNs
		}
	}
	for _, want := range []string{"plan", "probe", "verify"} {
		if !seen[want] {
			t.Errorf("trace missing %q span", want)
		}
	}
	if rootDur == 0 {
		t.Fatal("trace missing the root search span")
	}
	if stageSum > rootDur {
		t.Fatalf("stage durations sum to %dns, exceeding the root span's %dns", stageSum, rootDur)
	}
	// The per-descent span nests under probe.
	hasDescent := false
	for _, span := range trace.Spans {
		if span.Name == "rtree.descent" || span.Name == "scan" {
			hasDescent = true
		}
	}
	if !hasDescent {
		t.Error("trace has no access-path span under probe")
	}
}

func TestSearchParameterErrors(t *testing.T) {
	s := newTestServer(t)
	tc := buildCoordCluster(t, 2)
	// One bound on len, whichever route addresses a window: a negative
	// len once panicked GET /search, a huge one allocated what the client
	// asked for, and a batch fell back to the window length.
	lenErr := fmt.Sprintf("parameter len must be in (0, %d]", maxAppendValues)
	huge := strconv.Itoa(maxAppendValues + 1)
	for _, c := range []struct {
		h                        http.Handler
		method, path, body, want string
	}{
		{s, "GET", "/search", "", ""},                               // no query at all
		{s, "GET", "/search?seq=abc&start=1", "", ""},               // bad int
		{s, "GET", "/search?seq=0&start=5&eps=x", "", ""},           // bad float
		{s, "GET", "/search?values=1,2,zebra", "", ""},              // bad values list
		{s, "GET", "/search?seq=0&start=99999", "", ""},             // window out of range
		{s, "GET", "/search?seq=0&start=5&nn=3&path=rtree", "", ""}, // nn + forced path
		{s, "GET", "/search?seq=0&start=5&path=warp", "", ""},       // unknown path
		{s, "GET", "/search?seq=0&start=0&len=-1", "", lenErr},
		{s, "GET", "/search?seq=0&start=0&len=" + huge, "", lenErr},
		{s, "POST", "/search", `{"queries": [{"seq": 0, "start": 0, "len": -5}]}`, lenErr},
		{s, "POST", "/search", `{"queries": [{"seq": 0, "start": 0, "len": ` + huge + `}]}`, lenErr},
		{s, "GET", "/window?seq=0&start=0&len=-1", "", lenErr},
		{s, "GET", "/window?seq=0&start=0&len=" + huge, "", lenErr},
		{s, "GET", "/window?start=0&len=32", "", "parameter seq is required"},
		{s, "GET", "/window?seq=0&len=32", "", "parameter start is required"},
		{s, "GET", "/window?seq=0&start=0", "", "parameter len is required"},
		{tc.front, "GET", "/search?seq=0&start=0&len=-1", "", lenErr},
		{tc.front, "GET", "/search?seq=0&start=0&len=" + huge, "", lenErr},
	} {
		rec := httptest.NewRecorder()
		c.h.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, strings.NewReader(c.body)))
		var e map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e["error"] == "" {
			t.Errorf("%s %s: error response not JSON with an error field: %s", c.method, c.path, rec.Body)
		}
		switch {
		case rec.Code < 400:
			t.Errorf("%s %s: status %d, want an error", c.method, c.path, rec.Code)
		case c.want != "" && (rec.Code != http.StatusBadRequest || !strings.Contains(e["error"], c.want)):
			t.Errorf("%s %s: status %d %q, want 400 %q", c.method, c.path, rec.Code, e["error"], c.want)
		}
	}
}

func TestSearchNearestNeighbour(t *testing.T) {
	s := newTestServer(t)
	resp, body := get(t, s, "/search?seq=2&start=11&nn=5")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr cluster.SearchWire
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Total != 5 {
		t.Fatalf("nn=5 returned %d matches", sr.Total)
	}
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t)
	resp, body := get(t, s, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var h map[string]interface{}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if len(h) != 1 || h["status"] != "ok" {
		t.Fatalf("healthz = %s", body)
	}
}

// TestRebuiltIndexServesExactResults: a server whose index cache cannot
// be served comes up on the index rebuilt from the store, opened the way
// main opens it (cliutil.OpenIndex): it answers range and k-NN queries
// exactly as a server over a fresh build does, and /readyz says the
// index was rebuilt and why.
func TestRebuiltIndexServesExactResults(t *testing.T) {
	fresh := newTestServer(t)
	cfg := newTestServerConfig(t)
	cache := filepath.Join(t.TempDir(), "index.bin")
	if err := os.WriteFile(cache, []byte("not an index artifact"), 0o644); err != nil {
		t.Fatal(err)
	}
	ix, how, err := cliutil.OpenIndex(cfg.snap.ix.Store(), cfg.snap.ix.Options(), cache, cfg.logger)
	if err != nil {
		t.Fatal(err)
	}
	cfg.snap = &snapshot{ix: ix, normScale: cfg.snap.normScale, how: how, loadedAt: time.Now()}
	s := newServerFromConfig(t, cfg)
	for _, path := range []string{"/search?seq=0&start=5&eps_frac=0.05", "/search?seq=0&start=5&nn=3"} {
		var want, got cluster.SearchWire
		for _, c := range []struct {
			s   *server
			out *cluster.SearchWire
		}{{fresh, &want}, {s, &got}} {
			resp, body := get(t, c.s, path)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d: %s", path, resp.StatusCode, body)
			}
			if err := json.Unmarshal(body, c.out); err != nil {
				t.Fatal(err)
			}
		}
		if got.Total < 1 || got.Total != want.Total || !reflect.DeepEqual(got.Matches, want.Matches) {
			t.Fatalf("%s: %d matches over the rebuilt index, %d over a fresh one", path, got.Total, want.Total)
		}
	}
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

func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t)
	// Drive one query so the search counters exist.
	get(t, s, "/search?seq=0&start=5&eps_frac=0.05")
	resp, body := get(t, s, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	out := string(body)
	for _, want := range []string{
		"scaleshift_searches_total",
		"scaleshift_candidates_total",
		"scaleshift_http_requests_total{handler=\"search\"}",
		"scaleshift_index_windows",
		"scaleshift_index_bytes",
		"scaleshift_search_duration_seconds_bucket",
		"# TYPE scaleshift_searches_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestDebugVars(t *testing.T) {
	s := newTestServer(t)
	resp, body := get(t, s, "/debug/vars")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var v map[string]interface{}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("expvar output not JSON: %v", err)
	}
}

func TestPprofIndex(t *testing.T) {
	s := newTestServer(t)
	resp, body := get(t, s, "/debug/pprof/")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "goroutine") {
		t.Error("pprof index does not list profiles")
	}
}

func TestTracesEndpoint(t *testing.T) {
	s := newTestServer(t)
	get(t, s, "/search?seq=0&start=5&eps_frac=0.05")
	resp, body := get(t, s, "/debug/traces")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var traces []obs.TraceSnapshot
	if err := json.Unmarshal(body, &traces); err != nil {
		t.Fatal(err)
	}
	if len(traces) == 0 {
		t.Fatal("no traces retained after a query")
	}
	resp, _ = get(t, s, "/debug/traces?id=doesnotexist")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace id: status %d, want 404", resp.StatusCode)
	}
}

// TestConcurrentQueries hammers /search from several goroutines — the
// registry, tracer ring, and engine must hold up under -race.
func TestConcurrentQueries(t *testing.T) {
	s := newTestServer(t)
	_, before := get(t, s, "/metrics")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				path := fmt.Sprintf("/search?seq=%d&start=%d&eps_frac=0.05", w%4, 3+i)
				req := httptest.NewRequest(http.MethodGet, path, nil)
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("%s: status %d", path, rec.Code)
				}
			}
		}(w)
	}
	wg.Wait()
	resp, after := get(t, s, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatal("metrics unavailable after concurrent queries")
	}
	// obs.Default is process-global, so compare deltas, not absolutes:
	// 4 workers x 8 queries = 32 searches recorded.
	delta := counterValue(t, string(after), "scaleshift_searches_total") -
		counterValue(t, string(before), "scaleshift_searches_total")
	if delta != 32 {
		t.Errorf("searches_total advanced by %d over 32 concurrent queries", delta)
	}
}

// counterValue extracts an unlabelled counter's value from Prometheus
// text output (0 when the metric is not yet registered).
func counterValue(t *testing.T, body, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseInt(strings.TrimPrefix(line, name+" "), 10, 64)
			if err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	return 0
}

func TestSearchLimitTruncates(t *testing.T) {
	s := newTestServer(t)
	fetch := func(limit string) cluster.SearchWire {
		t.Helper()
		resp, body := get(t, s, "/search?seq=0&start=5&eps_frac=0.2"+limit)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var sr cluster.SearchWire
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		return sr
	}
	full := fetch("&limit=0")
	if full.Total < 4 || len(full.Matches) != full.Total || full.Truncated {
		t.Fatalf("limit=0 returned %d of %d matches, truncated=%v; the test needs at least 4", len(full.Matches), full.Total, full.Truncated)
	}
	// The limit reaches the engine, which counts what it does not
	// return: same total, same ledger, the unlimited answer's first rows.
	for _, limit := range []int{1, 3} {
		sr := fetch(fmt.Sprintf("&limit=%d", limit))
		if sr.Total != full.Total || len(sr.Matches) != limit || !sr.Truncated {
			t.Fatalf("limit=%d returned %d matches, truncated=%v, total %d (unlimited %d)",
				limit, len(sr.Matches), sr.Truncated, sr.Total, full.Total)
		}
		for i, m := range sr.Matches {
			if m != full.Matches[i] {
				t.Fatalf("limit=%d: row %d is %+v, the unlimited answer has %+v", limit, i, m, full.Matches[i])
			}
		}
		got, want := sr.Stats, full.Stats
		got.PlanNs, got.ProbeNs, got.VerifyNs = want.PlanNs, want.ProbeNs, want.VerifyNs
		if got != want {
			t.Fatalf("limit=%d: stats %+v, unlimited %+v", limit, sr.Stats, full.Stats)
		}
	}
	if def := fetch(""); def.Total != full.Total || len(def.Matches) != min(full.Total, 100) {
		t.Fatalf("default limit returned %d of %d matches", len(def.Matches), def.Total)
	}
}

func TestLongQueryOverHTTP(t *testing.T) {
	s := newTestServer(t)
	resp, body := get(t, s, "/search?seq=0&start=5&len=64&eps_frac=0.1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr cluster.SearchWire
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Plan == nil || sr.Plan.Pieces < 2 {
		t.Fatalf("len=2*window must run a multipiece search: %s", body)
	}
}
