package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"scaleshift/internal/cliutil"
	"scaleshift/internal/cluster"
	"scaleshift/internal/core"
	"scaleshift/internal/faulty"
	"scaleshift/internal/obs"
	"scaleshift/internal/query"
	"scaleshift/internal/stock"
	"scaleshift/internal/store"
	"scaleshift/internal/wal"
)

// promptBound is the acceptance bound on the server quiescing after a
// client disconnect (see the core package's cancellation contract).
func promptBound() time.Duration {
	if raceDetectorEnabled {
		return time.Second
	}
	return 100 * time.Millisecond
}

// post drives a POST through the in-process mux.
func post(t *testing.T, s *server, path string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	resp := rec.Result()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// metricValue extracts a (possibly labelled) series value from
// Prometheus text output; 0 when absent.
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, series+" ") {
			var v float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, series+" "), "%g", &v); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	return 0
}

func TestLivezAlwaysOK(t *testing.T) {
	s := newTestServer(t)
	s.SetDraining(true) // draining is a routing signal, not a liveness one
	resp, body := get(t, s, "/livez")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("livez while draining: status %d: %s", resp.StatusCode, body)
	}
}

func TestReadyzDraining(t *testing.T) {
	s := newTestServer(t)
	resp, body := get(t, s, "/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh server not ready: %d: %s", resp.StatusCode, body)
	}
	s.SetDraining(true)
	resp, body = get(t, s, "/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining server still ready: %d", resp.StatusCode)
	}
	var d map[string]interface{}
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	if d["draining"] != true || d["ready"] != false {
		t.Fatalf("readyz detail = %s", body)
	}
	s.SetDraining(false)
	if resp, _ = get(t, s, "/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatal("undraining did not restore readiness")
	}
}

// TestOverloadShedsWith429 saturates the in-flight set and the queue,
// then asserts the next request is shed immediately with 429 and a
// Retry-After hint — the acceptance behaviour for overload.
func TestOverloadShedsWith429(t *testing.T) {
	cfg := newTestServerConfig(t)
	cfg.serve.MaxInflight = 1
	cfg.serve.MaxQueue = 1
	cfg.serve.QueueTimeout = 2 * time.Second
	s := newServerFromConfig(t, cfg)

	// Occupy the only in-flight slot out-of-band.
	release, err := s.adm.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Fill the one queue slot with a real request; it parks waiting for
	// the slot we hold.
	queuedDone := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/search?seq=0&start=5&eps_frac=0.05", nil))
		queuedDone <- rec.Code
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.adm.QueueDepth() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Queue full: this one must shed now, not wait.
	start := time.Now()
	resp, body := get(t, s, "/search?seq=0&start=5&eps_frac=0.05")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("queue-full shed took %v; must be immediate", elapsed)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("429 without Retry-After")
	}
	var secs int
	if _, err := fmt.Sscanf(ra, "%d", &secs); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want integer seconds >= 1", ra)
	}
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e["error"], "queue_full") {
		t.Fatalf("shed body = %s", body)
	}

	// Releasing the slot lets the queued request through to a real 200.
	release()
	select {
	case code := <-queuedDone:
		if code != http.StatusOK {
			t.Fatalf("queued request finished %d, want 200", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued request never completed")
	}
}

// TestQueueTimeoutSheds parks a request behind a held slot longer than
// -queue-timeout and asserts it sheds with 429 rather than waiting
// forever.
func TestQueueTimeoutSheds(t *testing.T) {
	cfg := newTestServerConfig(t)
	cfg.serve.MaxInflight = 1
	cfg.serve.MaxQueue = 4
	cfg.serve.QueueTimeout = 30 * time.Millisecond
	s := newServerFromConfig(t, cfg)

	release, err := s.adm.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	resp, body := get(t, s, "/search?seq=0&start=5&eps_frac=0.05")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e["error"], "queue_timeout") {
		t.Fatalf("shed body = %s", body)
	}
}

// TestReadyzReportsPoisonedWAL: an append whose fsync fails — EIO,
// injected into the write-ahead log's file through faulty.FailingFile —
// poisons the log, which then refuses every append until the process
// reopens it.  The append that hit the fault is refused, and /readyz
// takes the instance out of rotation with the cause under
// ingest.wal_poisoned.
func TestReadyzReportsPoisonedWAL(t *testing.T) {
	log, recs, err := wal.Open(filepath.Join(t.TempDir(), "ingest.wal"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	s, _ := newIngestTestServer(t, log, recs)
	if resp, body := get(t, s, "/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before the fault: %d: %s", resp.StatusCode, body)
	}
	if resp, raw := postAppend(t, s, `{"seq": 0, "values": [1, 2, 3]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("append before the fault: %d: %s", resp.StatusCode, raw)
	}

	log.InjectFault(func(f wal.SyncWriter) wal.SyncWriter { return faulty.FailingFile(f, -1, nil, syscall.EIO) })
	if resp, raw := postAppend(t, s, `{"seq": 0, "values": [4, 5]}`); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("append through a failing fsync: %d, want 500: %s", resp.StatusCode, raw)
	}
	resp, body := get(t, s, "/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with a poisoned log: %d, want 503: %s", resp.StatusCode, body)
	}
	var d struct {
		Ready  bool `json:"ready"`
		Ingest struct {
			Poisoned string `json:"wal_poisoned"`
		} `json:"ingest"`
	}
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	if d.Ready || !strings.Contains(d.Ingest.Poisoned, syscall.EIO.Error()) {
		t.Fatalf("readyz detail = %s, want ingest.wal_poisoned naming the EIO", body)
	}
}

// batchBody builds a POST /search payload of windows read back from
// the store.
func batchBody(t *testing.T, n int, epsFrac float64, path string) []byte {
	t.Helper()
	req := batchRequestJSON{Path: path}
	for i := 0; i < n; i++ {
		seq, start := i%4, 3+i%20
		ef := epsFrac
		req.Queries = append(req.Queries, batchQueryJSON{Seq: &seq, Start: &start, EpsFrac: ef})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestBatchMatchesSequential is the oracle check at the HTTP layer: a
// POST batch must return, per slot, exactly what the equivalent GET
// returns.
func TestBatchMatchesSequential(t *testing.T) {
	s := newTestServer(t)
	const n = 8
	resp, body := post(t, s, "/search", batchBody(t, n, 0.05, ""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var br batchResponseJSON
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != n || br.Completed != n {
		t.Fatalf("completed %d/%d results %d", br.Completed, n, len(br.Results))
	}
	for i, item := range br.Results {
		if item.Status != "complete" {
			t.Fatalf("slot %d status %q", i, item.Status)
		}
		seq, start := i%4, 3+i%20
		gresp, gbody := get(t, s, fmt.Sprintf("/search?seq=%d&start=%d&eps_frac=0.05", seq, start))
		if gresp.StatusCode != http.StatusOK {
			t.Fatalf("sequential query %d: %d", i, gresp.StatusCode)
		}
		var sr cluster.SearchWire
		if err := json.Unmarshal(gbody, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Total != item.Total {
			t.Fatalf("slot %d: batch %d matches, sequential %d", i, item.Total, sr.Total)
		}
		for j := range item.Matches {
			if item.Matches[j] != sr.Matches[j] {
				t.Fatalf("slot %d match %d differs: batch %+v sequential %+v",
					i, j, item.Matches[j], sr.Matches[j])
			}
		}
	}
}

func TestBatchRequestLimits(t *testing.T) {
	s := newTestServer(t)

	// One query over the batch ceiling.
	resp, body := post(t, s, "/search", batchBody(t, maxBatchQueries+1, 0.05, ""))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: %d, want 413: %s", resp.StatusCode, body)
	}

	// A body over the byte ceiling.
	big := batchRequestJSON{Queries: []batchQueryJSON{{Values: make([]float64, maxRequestBody)}}}
	raw, err := json.Marshal(big)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) <= maxRequestBody {
		t.Fatalf("test body only %d bytes", len(raw))
	}
	resp, body = post(t, s, "/search", raw)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d, want 413: %s", resp.StatusCode, body)
	}

	// Malformed batches are the client's fault.
	for name, payload := range map[string]string{
		"empty":         `{"queries":[]}`,
		"unknown field": `{"queries":[{"seq":0}],"bogus":1}`,
		"bad path":      `{"queries":[{"seq":0}],"path":"warp"}`,
		"no addressing": `{"queries":[{"eps":0.5}]}`,
	} {
		resp, body = post(t, s, "/search", []byte(payload))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, resp.StatusCode, body)
		}
	}
}

// TestClientDisconnectCancelsBatch is the regression test for the
// disconnect contract: dropping the connection mid-batch must cancel
// the fan-out and quiesce the server within the engine's cancellation
// bound.
func TestClientDisconnectCancelsBatch(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)

	// A store big enough that a 256-query scan batch cannot finish
	// before the cancel lands.
	st := store.New()
	scfg := stock.DefaultConfig()
	scfg.Companies = 30
	scfg.Days = 650
	if _, err := stock.Populate(st, scfg); err != nil {
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
	cfg := serverConfig{
		snap:   &snapshot{ix: ix, normScale: normScale, how: "built for test", loadedAt: time.Now()},
		tracer: obs.NewTracer(16),
		logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		serve:  testServeFlags(),
	}
	s := newServerFromConfig(t, cfg)

	// A real TCP server: client disconnects only propagate into
	// r.Context() over a live connection.
	ts := httptest.NewServer(s)
	defer ts.Close()

	body := batchRequestJSON{Parallelism: 1}
	for i := 0; i < maxBatchQueries; i++ {
		seq, start := i%20, 3+i%500
		body.Queries = append(body.Queries, batchQueryJSON{Seq: &seq, Start: &start, EpsFrac: 0.3})
	}
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/search", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	reqDone := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		reqDone <- err
	}()

	// Wait for the batch to be admitted, then drop the connection.
	deadline := time.Now().Add(5 * time.Second)
	for s.adm.Inflight() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("batch never started")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	cancelled := time.Now()
	for s.adm.Inflight() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("server did not quiesce after disconnect")
		}
		time.Sleep(time.Millisecond)
	}
	if d := time.Since(cancelled); d > promptBound() {
		t.Errorf("fan-out quiesced %v after disconnect, want <= %v", d, promptBound())
	}
	if err := <-reqDone; err == nil {
		t.Error("client request succeeded despite the cancel (batch too fast for the test to mean anything)")
	}
}

// writeArtifacts builds a small store+index pair and writes both as
// checksummed artifacts, returning the reload configuration that loads
// them back.
func writeArtifacts(t *testing.T, companies, days int) reloadConfig {
	t.Helper()
	dir := t.TempDir()
	st := store.New()
	scfg := stock.DefaultConfig()
	scfg.Companies = companies
	scfg.Days = days
	if _, err := stock.Populate(st, scfg); err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.WindowLen = 16
	ix, err := core.NewIndex(st, opts)
	if err == nil {
		err = ix.Build()
	}
	if err != nil {
		t.Fatal(err)
	}
	storePath := filepath.Join(dir, "prices.store")
	indexPath := filepath.Join(dir, "prices.index")
	var buf bytes.Buffer
	if err := st.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(storePath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := ix.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(indexPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return reloadConfig{StorePath: storePath, IndexPath: indexPath, Opts: opts, Seed: 7}
}

// newArtifactServer builds a server whose initial snapshot came from
// on-disk artifacts and whose reload path reads them through the given
// injector.
func newArtifactServer(t *testing.T, rcfg reloadConfig, in *faulty.Injector) *server {
	t.Helper()
	obs.Enable()
	t.Cleanup(obs.Disable)
	if in != nil {
		rcfg.Open = func(path string) (io.ReadCloser, error) {
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			return struct {
				io.Reader
				io.Closer
			}{in.Reader(f), f}, nil
		}
	}
	snap, err := newReloader(rcfg).load()
	if err != nil {
		t.Fatal(err)
	}
	return newServerFromConfig(t, serverConfig{
		snap:   snap,
		tracer: obs.NewTracer(16),
		logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		serve:  testServeFlags(),
		reload: &rcfg,
	})
}

func TestAdminReloadSwapsSnapshot(t *testing.T) {
	s := newArtifactServer(t, writeArtifacts(t, 4, 80), nil)

	resp, body := get(t, s, "/search?seq=0&start=5&eps_frac=0.05")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-reload search: %d: %s", resp.StatusCode, body)
	}

	resp, body = post(t, s, "/admin/reload", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: %d: %s", resp.StatusCode, body)
	}
	var rr map[string]interface{}
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr["status"] != "reloaded" || rr["generation"] != float64(1) {
		t.Fatalf("reload response = %s", body)
	}

	resp, body = get(t, s, "/search?seq=0&start=5&eps_frac=0.05")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-reload search: %d: %s", resp.StatusCode, body)
	}

	_, metrics := get(t, s, "/metrics")
	if v := metricValue(t, string(metrics), `scaleshift_reloads_total{result="ok"}`); v < 1 {
		t.Fatalf("reloads ok metric = %g", v)
	}

	// GET is not a reload.
	resp, _ = get(t, s, "/admin/reload")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET reload: %d, want 405", resp.StatusCode)
	}
}

func TestAdminReloadUnconfigured(t *testing.T) {
	s := newTestServer(t) // synthetic data, no artifacts
	resp, body := post(t, s, "/admin/reload", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("reload without artifacts: %d, want 409: %s", resp.StatusCode, body)
	}
}

// TestReloadRejectsCorruptArtifact corrupts the artifact mid-reload
// and asserts the old snapshot keeps serving identical results, the
// rejection is visible in /readyz and the metrics, and a clean retry
// recovers.
func TestReloadRejectsCorruptArtifact(t *testing.T) {
	var in faulty.Injector
	s := newArtifactServer(t, writeArtifacts(t, 4, 80), &in)

	_, before := get(t, s, "/search?seq=1&start=7&eps_frac=0.1")

	p := faulty.NonePlan()
	p.FlipOffset, p.FlipMask = 100, 0xFF
	in.Set(p)
	resp, body := post(t, s, "/admin/reload", nil)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt reload: %d, want 422: %s", resp.StatusCode, body)
	}
	if in.Injections() == 0 {
		t.Fatal("fault never fired; the test corrupted nothing")
	}

	// Old snapshot still serving, with bit-identical results (trace
	// ids and timings differ per request; the matches must not).
	resp, after := get(t, s, "/search?seq=1&start=7&eps_frac=0.1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search after rejected reload: %d", resp.StatusCode)
	}
	var rBefore, rAfter cluster.SearchWire
	if err := json.Unmarshal(before, &rBefore); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(after, &rAfter); err != nil {
		t.Fatal(err)
	}
	if rBefore.Total != rAfter.Total || len(rBefore.Matches) != len(rAfter.Matches) {
		t.Fatalf("results changed after a rejected reload: %d vs %d matches", rBefore.Total, rAfter.Total)
	}
	for i := range rBefore.Matches {
		if rBefore.Matches[i] != rAfter.Matches[i] {
			t.Fatalf("match %d changed after a rejected reload", i)
		}
	}

	// The rejection is reported: /readyz detail and the metric.
	resp, body = get(t, s, "/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after rejected reload: %d (old snapshot serves; server stays ready)", resp.StatusCode)
	}
	var d map[string]interface{}
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	if d["last_reload_rejected"] == nil {
		t.Fatalf("readyz does not report the rejected reload: %s", body)
	}
	_, metrics := get(t, s, "/metrics")
	if v := metricValue(t, string(metrics), `scaleshift_reloads_total{result="rejected"}`); v < 1 {
		t.Fatalf("reloads rejected metric = %g", v)
	}

	// Disarming the fault recovers on the next reload, clearing the
	// rejection report.
	in.Clear()
	if resp, body = post(t, s, "/admin/reload", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("clean reload after fault: %d: %s", resp.StatusCode, body)
	}
	_, body = get(t, s, "/readyz")
	d = nil // Unmarshal merges into a non-nil map; start fresh
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	if d["last_reload_rejected"] != nil {
		t.Fatalf("successful reload did not clear the rejection report: %s", body)
	}
}

// TestReloadFlipEveryByte is the exhaustive corruption sweep: flipping
// any single byte of either artifact must make the loader reject the
// snapshot.  Run on a deliberately tiny artifact pair so the sweep
// stays fast.
func TestReloadFlipEveryByte(t *testing.T) {
	rcfg := writeArtifacts(t, 2, 40)
	storeLen := artifactLen(t, rcfg.StorePath)
	indexLen := artifactLen(t, rcfg.IndexPath)

	var in faulty.Injector
	rcfg.Open = func(path string) (io.ReadCloser, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		return struct {
			io.Reader
			io.Closer
		}{in.Reader(f), f}, nil
	}
	rl := newReloader(rcfg)

	// Sanity: unfaulted load succeeds.
	if _, err := rl.load(); err != nil {
		t.Fatalf("clean load: %v", err)
	}

	flip := func(offset int64) {
		p := faulty.NonePlan()
		p.FlipOffset, p.FlipMask = offset, 0xFF
		in.Set(p)
	}
	// The store artifact is opened first, so its offsets are hit on the
	// first wrapped reader of each attempt; past the store's length the
	// flip lands in the index artifact instead (TruncateReader-style
	// offsets are per-reader, so aim per artifact).
	for off := int64(0); off < storeLen; off++ {
		flip(off)
		if _, err := rl.load(); err == nil {
			t.Fatalf("store byte %d: corrupt artifact accepted", off)
		}
	}
	// For index offsets the store must read clean: the injector plan is
	// captured per wrapped reader, so swap to a plan only the second
	// reader of the attempt sees.  Easiest correct arrangement: wrap
	// only the index artifact.
	in.Clear()
	rcfg2 := rcfg
	rcfg2.Open = func(path string) (io.ReadCloser, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		if path != rcfg.IndexPath {
			return f, nil
		}
		return struct {
			io.Reader
			io.Closer
		}{in.Reader(f), f}, nil
	}
	rl2 := newReloader(rcfg2)
	for off := int64(0); off < indexLen; off++ {
		flip(off)
		if _, err := rl2.load(); err == nil {
			t.Fatalf("index byte %d: corrupt artifact accepted", off)
		}
	}
}

func artifactLen(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestServeFlagsRejectedByServer: a misconfigured limit fails server
// construction instead of building a footgun.
func TestServeFlagsRejectedByServer(t *testing.T) {
	cfg := newTestServerConfig(t)
	cfg.serve = cliutil.ServeFlags{MaxInflight: 0, MaxQueue: 1, QueueTimeout: time.Second, RequestTimeout: time.Second}
	if _, err := newServer(cfg); err == nil {
		t.Fatal("zero max-inflight accepted")
	}
}
