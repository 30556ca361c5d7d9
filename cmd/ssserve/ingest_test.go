package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"scaleshift/internal/cluster"
	"scaleshift/internal/core"
	"scaleshift/internal/obs"
	"scaleshift/internal/wal"
)

// newIngestTestServer builds a server over a live segmented index with
// append enabled.  The compactor is not started: tests drive Compact
// explicitly so there is no background goroutine to race or leak.
func newIngestTestServer(t *testing.T, log *wal.Log, recs []wal.Record) (*server, *core.Index) {
	t.Helper()
	obs.Enable()
	t.Cleanup(obs.Disable)
	seg, normScale := newTestIndex(t)
	in, err := newIngestState(seg, log, recs, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := newServerFromConfig(t, serverConfig{
		snap:   &snapshot{ix: seg, normScale: normScale, how: "built for test", loadedAt: time.Now()},
		tracer: obs.NewTracer(16),
		logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		serve:  testServeFlags(),
		ingest: in,
	})
	return s, seg
}

func postAppend(t *testing.T, s *server, body string) (*http.Response, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/append", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	resp := rec.Result()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp, raw
}

func TestAppendEndpoint(t *testing.T) {
	s, seg := newIngestTestServer(t, nil, nil)
	before := seg.WindowCount()

	// Append to an existing sequence by id.
	vals := make([]string, 40)
	for i := range vals {
		vals[i] = fmt.Sprintf("%g", 100+float64(i))
	}
	body := fmt.Sprintf(`{"seq": 0, "values": [%s]}`, strings.Join(vals, ","))
	resp, raw := postAppend(t, s, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append by seq: %d: %s", resp.StatusCode, raw)
	}
	var ack appendResponseJSON
	if err := json.Unmarshal(raw, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Seq != 0 || ack.Created || ack.Windows != before+40 {
		t.Fatalf("append ack wrong: %+v (before %d)", ack, before)
	}

	// A brand-new named sequence, then growing it by name.
	resp, raw = postAppend(t, s, `{"name": "LIVE", "values": [1, 2, 3, 4, 5]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append new name: %d: %s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &ack); err != nil {
		t.Fatal(err)
	}
	if !ack.Created || ack.SeqLen != 5 {
		t.Fatalf("new-sequence ack wrong: %+v", ack)
	}
	live := ack.Seq
	resp, raw = postAppend(t, s, `{"name": "LIVE", "values": [6, 7]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append existing name: %d: %s", resp.StatusCode, raw)
	}
	ack = appendResponseJSON{}
	if err := json.Unmarshal(raw, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Created || ack.Seq != live || ack.SeqLen != 7 {
		t.Fatalf("by-name growth ack wrong: %+v", ack)
	}

	// The appended windows are searchable immediately: query the last
	// window of sequence 0, which now ends in the appended ramp.
	n := seg.Options().WindowLen
	start := seg.Store().SequenceLen(0) - n
	gr, body2 := get(t, s, fmt.Sprintf("/search?seq=0&start=%d&eps=0.001", start))
	if gr.StatusCode != http.StatusOK {
		t.Fatalf("search after append: %d: %s", gr.StatusCode, body2)
	}
	var sr cluster.SearchWire
	if err := json.Unmarshal([]byte(body2), &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Total < 1 {
		t.Fatalf("appended window not found by self-query: %+v", sr)
	}

	// Malformed requests.
	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"seq": 0}`, http.StatusBadRequest},                               // no values
		{`{"values": [1]}`, http.StatusBadRequest},                          // neither seq nor name
		{`{"seq": 0, "name": "X", "values": [1]}`, http.StatusBadRequest},   // both
		{`{"seq": 0, "values": [1, "x"]}`, http.StatusBadRequest},           // bad JSON float
		{`{"seq": 0, "values": [1], "bogus": true}`, http.StatusBadRequest}, // unknown field
		{`{"seq": 99, "values": [1]}`, http.StatusNotFound},                 // no such sequence
	} {
		resp, raw := postAppend(t, s, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("append %s: got %d want %d: %s", tc.body, resp.StatusCode, tc.want, raw)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/append", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /append: got %d want 405", rec.Code)
	}

	// /readyz reports the ingest backlog.
	rr, rbody := get(t, s, "/readyz")
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("readyz: %d: %s", rr.StatusCode, rbody)
	}
	var detail map[string]interface{}
	if err := json.Unmarshal([]byte(rbody), &detail); err != nil {
		t.Fatal(err)
	}
	ing, ok := detail["ingest"].(map[string]interface{})
	if !ok {
		t.Fatalf("readyz missing ingest detail: %s", rbody)
	}
	if ing["delta_windows"].(float64) == 0 {
		t.Fatalf("readyz shows no delta backlog after appends: %v", ing)
	}
	if err := seg.Compact(); err != nil {
		t.Fatal(err)
	}
	_, rbody = get(t, s, "/readyz")
	if err := json.Unmarshal([]byte(rbody), &detail); err != nil {
		t.Fatal(err)
	}
	ing = detail["ingest"].(map[string]interface{})
	if ing["delta_windows"].(float64) != 0 || ing["compactions"].(float64) < 1 {
		t.Fatalf("readyz backlog did not drain after compaction: %v", ing)
	}
}

func TestAppendWithoutIngestRejected(t *testing.T) {
	s := newTestServer(t)
	resp, raw := postAppend(t, s, `{"seq": 0, "values": [1]}`)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("append on non-ingest server: got %d want 409: %s", resp.StatusCode, raw)
	}
}

// TestAppendWALReplay is the crash-recovery contract end to end: every
// acked append is in the log, and replaying the log over a fresh index
// built from the original (pre-append) store restores the exact search
// surface.
func TestAppendWALReplay(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "ingest.wal")
	log, recs, err := wal.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh wal replayed %d records", len(recs))
	}
	s, seg := newIngestTestServer(t, log, nil)

	for i := 0; i < 3; i++ {
		vals := make([]string, 20)
		for j := range vals {
			vals[j] = fmt.Sprintf("%g", float64(10*i+j))
		}
		resp, raw := postAppend(t, s, fmt.Sprintf(`{"seq": %d, "values": [%s]}`, i, strings.Join(vals, ",")))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("append %d: %d: %s", i, resp.StatusCode, raw)
		}
	}
	resp, raw := postAppend(t, s, `{"name": "NEW", "values": [3, 1, 4, 1, 5, 9, 2, 6]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append new: %d: %s", resp.StatusCode, raw)
	}
	wantWindows := seg.WindowCount()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// "Crash" and recover: fresh store and index (the checkpoint), WAL
	// replayed on top.
	log2, recs2, err := wal.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if len(recs2) != 4 {
		t.Fatalf("wal replayed %d records, want 4", len(recs2))
	}
	_, seg2 := newIngestTestServer(t, log2, recs2)
	if got := seg2.WindowCount(); got != wantWindows {
		t.Fatalf("recovered index has %d windows, want %d", got, wantWindows)
	}

	// The recovered index answers a query over appended data the same
	// way as the original.
	n := seg.Options().WindowLen
	q := make([]float64, n)
	start := seg.Store().SequenceLen(0) - n
	if err := seg.QueryWindow(0, start, n, q); err != nil {
		t.Fatal(err)
	}
	var st1, st2 core.SearchStats
	r1, err := seg.Exec(context.Background(), core.Query{Vec: q, Eps: 0.01}, &st1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := seg2.Exec(context.Background(), core.Query{Vec: q, Eps: 0.01}, &st2)
	if err != nil {
		t.Fatal(err)
	}
	m1, m2 := r1.Matches, r2.Matches
	if len(m1) != len(m2) {
		t.Fatalf("recovered search returned %d matches, original %d", len(m2), len(m1))
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("match %d diverged after recovery: %+v vs %+v", i, m1[i], m2[i])
		}
	}
}
