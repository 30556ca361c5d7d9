package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite cmd/ssserve/testdata/*.golden from the current server")

// goldenMask blanks what two runs of one request do not share: stage
// timings, elapsed times and trace ids.
var goldenMask = regexp.MustCompile(`("[a-z_]*_ns"|"trace_id"): ("[^"]*"|-?[0-9]+)`)

// checkGolden compares a response body, masked and with the shard
// servers' addresses replaced by their ids, to testdata/<name>.golden.
func checkGolden(t *testing.T, name string, status, wantStatus int, body []byte, shards []*httptest.Server) {
	t.Helper()
	if status != wantStatus {
		t.Fatalf("%s: status %d, want %d: %s", name, status, wantStatus, body)
	}
	got := goldenMask.ReplaceAll(body, []byte(`$1: "masked"`))
	for i, s := range shards {
		got = bytes.ReplaceAll(got, []byte(strings.TrimPrefix(s.URL, "http://")), []byte(fmt.Sprintf("shard%d", i)))
	}
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: body differs from %s\n got: %s\nwant: %s", name, path, got, want)
	}
}

// TestGoldenBodies pins the bytes of every /search body shape both
// modes serve — shard range, k-NN, limited and batch, and the
// coordinator's full, partial and no-coverage answers — against files
// recorded before the two frontends shared one wire schema.  Run with
// -update to rewrite them after a deliberate change to the schema.
func TestGoldenBodies(t *testing.T) {
	s := newTestServer(t)
	for _, c := range []struct{ name, path string }{
		{"shard_range", "/search?seq=0&start=5&eps_frac=0.05"},
		{"shard_knn", "/search?seq=2&start=11&nn=5"},
		{"shard_limited", "/search?seq=0&start=5&eps_frac=0.2&limit=3"},
	} {
		resp, body := get(t, s, c.path)
		checkGolden(t, c.name, resp.StatusCode, http.StatusOK, body, nil)
	}
	resp, body := post(t, s, "/search", []byte(`{"queries": [{"seq": 0, "start": 5}, {"seq": 3, "start": 40, "scale": 2, "shift": -1, "eps_frac": 0.1}], "limit": 3}`))
	checkGolden(t, "shard_batch", resp.StatusCode, http.StatusOK, body, nil)

	tc := buildCoordCluster(t, 3)
	resp, body = coordGet(t, tc.front, "/search?seq=3&start=12&eps_frac=0.08&limit=5", nil)
	checkGolden(t, "coord_full", resp.StatusCode, http.StatusOK, body, tc.shards)
	_, body = get(t, tc.single, "/window?seq=3&start=12&len=32")
	var win struct{ Values []float64 }
	if err := json.Unmarshal(body, &win); err != nil {
		t.Fatal(err)
	}
	fields := make([]string, len(win.Values))
	for i, v := range win.Values {
		fields[i] = fmt.Sprint(v)
	}
	path := "/search?eps_frac=0.08&limit=5&values=" + strings.Join(fields, ",")
	tc.shards[2].Close()
	resp, body = coordGet(t, tc.front, path, nil)
	checkGolden(t, "coord_partial", resp.StatusCode, http.StatusPartialContent, body, tc.shards)
	tc.shards[0].Close()
	tc.shards[1].Close()
	resp, body = coordGet(t, tc.front, path, nil)
	checkGolden(t, "coord_none", resp.StatusCode, http.StatusServiceUnavailable, body, tc.shards)
}

// TestSearchHandlerAllocCeiling bounds what one tight GET /search
// allocates in the frontend: on a shard, and on a coordinator over a
// three-shard fleet (whose count includes the shards' own requests, all
// in this process).  The ceilings keep the headroom they were set with
// over the measured counts (99, 805 and 678 once the plan stopped
// pricing paths and the SE-line moved into the query's scratch); lower
// them when the handler gets cheaper.
func TestSearchHandlerAllocCeiling(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := newTestServer(t)
	tc := buildCoordCluster(t, 3)
	for _, c := range []struct {
		name    string
		h       http.Handler
		path    string
		ceiling float64
	}{
		{"shard", s, "/search?seq=0&start=5&eps_frac=0.001", 100},
		{"coordinator", tc.front, "/search?seq=3&start=12&eps_frac=0.001", 868},
		// Explicit values, as a load generator sends them: the coordinator
		// forwards them unparsed.
		{"coordinator values", tc.front, "/search?values=" + tc.values(t, 0, 5, 32, 1, 0) + "&eps_frac=0.001", 679},
	} {
		req := httptest.NewRequest(http.MethodGet, c.path, nil)
		allocs := testing.AllocsPerRun(50, func() {
			rec := httptest.NewRecorder()
			c.h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", c.name, rec.Code, rec.Body)
			}
		})
		t.Logf("%s: %.1f allocs per GET /search", c.name, allocs)
		if allocs > c.ceiling {
			t.Errorf("%s: %.1f allocs per GET /search, ceiling %.0f", c.name, allocs, c.ceiling)
		}
	}
}
