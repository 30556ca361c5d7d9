package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"scaleshift/internal/cliutil"
	"scaleshift/internal/cluster"
	"scaleshift/internal/core"
	"scaleshift/internal/engine"
	"scaleshift/internal/obs"
	"scaleshift/internal/wal"
)

// eventsPage mirrors the /debug/events envelope.
type eventsPage struct {
	Events      []*obs.Event `json:"events"`
	Missed      uint64       `json:"missed"`
	Next        uint64       `json:"next"`
	Emitted     uint64       `json:"emitted"`
	Overwritten uint64       `json:"overwritten"`
	SinkDropped uint64       `json:"sink_dropped"`
}

func drainEvents(t *testing.T, s *server, since uint64) eventsPage {
	t.Helper()
	resp, body := get(t, s, fmt.Sprintf("/debug/events?since=%d", since))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/events status %d: %s", resp.StatusCode, body)
	}
	var page eventsPage
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatalf("decoding events page: %v\n%s", err, body)
	}
	return page
}

// eventsOfKind filters a page by kind.
func eventsOfKind(page eventsPage, kind string) []*obs.Event {
	var out []*obs.Event
	for _, e := range page.Events {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// statsFromEvent reconstructs the engine ledger from the wide event so
// the accounting invariants can be checked from the event alone.
func statsFromEvent(e *obs.Event) core.SearchStats {
	st := core.SearchStats{
		Candidates:        e.Stats.Candidates,
		FalseAlarms:       e.Stats.FalseAlarms,
		CostRejected:      e.Stats.CostRejected,
		Results:           e.Stats.Results,
		IndexNodeAccesses: e.Stats.IndexNodeReads,
		DataPageAccesses:  e.Stats.DataPageReads,
	}
	st.PathProbes[engine.PathScan] = e.Stats.ScanProbes
	return st
}

// TestSearchEmitsOneWideEvent is the exactly-once acceptance check for
// GET /search: one event per request, whatever the outcome, carrying a
// stats ledger that passes CheckInvariants and span timings that sum
// within the event's own duration.
func TestSearchEmitsOneWideEvent(t *testing.T) {
	s := newTestServer(t)

	resp, body := get(t, s, "/search?seq=0&start=5&eps_frac=0.05")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr cluster.SearchWire
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}

	page := drainEvents(t, s, 0)
	if page.Emitted != 1 || len(page.Events) != 1 || page.Missed != 0 {
		t.Fatalf("one request must emit exactly one event: emitted=%d drained=%d missed=%d",
			page.Emitted, len(page.Events), page.Missed)
	}
	e := page.Events[0]
	if e.Kind != "search" || e.Status != http.StatusOK || e.Outcome != "ok" {
		t.Fatalf("event = kind %q status %d outcome %q", e.Kind, e.Status, e.Outcome)
	}
	if e.TraceID != sr.TraceID {
		t.Fatalf("event trace %q, response trace %q", e.TraceID, sr.TraceID)
	}
	if e.Path == "" || len(e.Plan) == 0 {
		t.Fatalf("event missing plan: path=%q plan=%v", e.Path, e.Plan)
	}
	if e.Matches != sr.Total {
		t.Fatalf("event matches %d, response total %d", e.Matches, sr.Total)
	}
	if e.Stats == nil {
		t.Fatal("event missing stats")
	}
	if err := statsFromEvent(e).CheckInvariants(); err != nil {
		t.Fatalf("event stats: %v", err)
	}
	// An Index is one segment: one plan row, the tree's, carrying the
	// candidates it actually emitted.
	if want := []obs.EventPlanRow{{Path: "rtree", Candidates: e.Stats.Candidates}}; !reflect.DeepEqual(e.Plan, want) {
		t.Errorf("event plan rows %+v, want %+v", e.Plan, want)
	}
	if e.DurationNs <= 0 {
		t.Fatal("event has no duration")
	}
	var spanSum int64
	seen := map[string]bool{}
	for _, sp := range e.Spans {
		seen[sp.Name] = true
		spanSum += sp.DurationNs
	}
	for _, want := range []string{"plan", "probe", "verify"} {
		if !seen[want] {
			t.Errorf("event missing %q span (got %v)", want, e.Spans)
		}
	}
	if spanSum > e.DurationNs {
		t.Fatalf("span durations sum to %dns, exceeding the event's %dns", spanSum, e.DurationNs)
	}

	// A failed parse still emits exactly one event, classed client_error.
	resp, _ = get(t, s, "/search?seq=abc&start=1")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad query status %d", resp.StatusCode)
	}
	page = drainEvents(t, s, page.Next)
	if len(page.Events) != 1 {
		t.Fatalf("failed request emitted %d events, want 1", len(page.Events))
	}
	if e := page.Events[0]; e.Kind != "search" || e.Outcome != "client_error" || e.Status != http.StatusBadRequest {
		t.Fatalf("error event = kind %q status %d outcome %q", e.Kind, e.Status, e.Outcome)
	}
}

// TestBatchEmitsSlotEvents: one search_batch event per POST plus one
// thin batch_slot event per slot, all sharing the batch's trace ID.
func TestBatchEmitsSlotEvents(t *testing.T) {
	s := newTestServer(t)
	body := `{"queries": [{"seq": 0, "start": 3}, {"seq": 1, "start": 7}, {"seq": 2, "start": 11}]}`
	req := httptest.NewRequest(http.MethodPost, "/search", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rec.Code, rec.Body.Bytes())
	}
	var br batchResponseJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil {
		t.Fatal(err)
	}

	page := drainEvents(t, s, 0)
	batches := eventsOfKind(page, "search_batch")
	slots := eventsOfKind(page, "batch_slot")
	if len(batches) != 1 {
		t.Fatalf("batch emitted %d search_batch events, want 1", len(batches))
	}
	if len(slots) != 3 {
		t.Fatalf("batch emitted %d batch_slot events, want 3", len(slots))
	}
	be := batches[0]
	if be.TraceID != br.TraceID || be.Outcome != "ok" {
		t.Fatalf("batch event = trace %q outcome %q (response trace %q)", be.TraceID, be.Outcome, br.TraceID)
	}
	if be.Stats == nil {
		t.Fatal("batch event missing aggregated stats")
	}
	if err := statsFromEvent(be).CheckInvariants(); err != nil {
		t.Fatalf("batch event stats: %v", err)
	}
	seenSlots := map[int]bool{}
	for _, e := range slots {
		if e.TraceID != br.TraceID {
			t.Fatalf("slot %d carries trace %q, want the batch's %q", e.Slot, e.TraceID, br.TraceID)
		}
		if e.Outcome != "ok" {
			t.Fatalf("slot %d outcome %q", e.Slot, e.Outcome)
		}
		seenSlots[e.Slot] = true
	}
	if len(seenSlots) != 3 {
		t.Fatalf("slot indexes %v, want {0,1,2}", seenSlots)
	}
}

// TestAppendEmitsOneWideEvent: the ingest endpoint gets the same
// exactly-once treatment, with wal and apply spans from the durable
// path.
func TestAppendEmitsOneWideEvent(t *testing.T) {
	log, recs, err := wal.Open(filepath.Join(t.TempDir(), "events.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	s, _ := newIngestTestServer(t, log, recs)

	resp, raw := postAppend(t, s, `{"seq": 0, "values": [1, 2, 3, 4, 5]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append status %d: %s", resp.StatusCode, raw)
	}
	page := drainEvents(t, s, 0)
	if len(page.Events) != 1 {
		t.Fatalf("one append emitted %d events, want 1", len(page.Events))
	}
	e := page.Events[0]
	if e.Kind != "append" || e.Outcome != "ok" || e.Status != http.StatusOK {
		t.Fatalf("append event = kind %q status %d outcome %q", e.Kind, e.Status, e.Outcome)
	}
	if e.Matches != 5 {
		t.Fatalf("append event records %d values, want 5", e.Matches)
	}
	if e.TraceID == "" {
		t.Fatal("append event missing trace id")
	}
	seen := map[string]bool{}
	for _, sp := range e.Spans {
		seen[sp.Name] = true
	}
	if !seen["wal"] || !seen["apply"] {
		t.Fatalf("append event spans %v, want wal and apply", e.Spans)
	}

	// A rejected append also emits exactly one event.
	resp, _ = postAppend(t, s, `{"values": []}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty append status %d", resp.StatusCode)
	}
	page = drainEvents(t, s, page.Next)
	if len(page.Events) != 1 || page.Events[0].Outcome != "client_error" {
		t.Fatalf("rejected append events = %+v", page.Events)
	}

	// Searches served by an append-mode server carry the same stage
	// spans, plan table and plan summary as a static one's.
	resp, raw = get(t, s, "/search?seq=0&start=5&eps_frac=0.05")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("segmented search status %d: %s", resp.StatusCode, raw)
	}
	var sr cluster.SearchWire
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Plan == nil || sr.Plan.Pieces != 1 {
		t.Errorf("segmented search body plan = %+v, want pieces 1", sr.Plan)
	}
	page = drainEvents(t, s, page.Next)
	if len(page.Events) != 1 || page.Events[0].Kind != "search" {
		t.Fatalf("segmented search events = %+v", page.Events)
	}
	// One row per probed segment, whose actual candidates add up to
	// the query's: every window lives in exactly one segment.
	rows, emitted := page.Events[0].Plan, 0
	for _, row := range rows {
		if row.Path != "rtree" {
			t.Errorf("segmented search plan row %+v, want the tree", row)
		}
		emitted += row.Candidates
	}
	if len(rows) == 0 || page.Events[0].Stats == nil || emitted != page.Events[0].Stats.Candidates {
		t.Errorf("segmented search plan rows %+v do not add up to the event's candidates (stats %+v)", rows, page.Events[0].Stats)
	}
	seen = map[string]bool{}
	for _, sp := range page.Events[0].Spans {
		seen[sp.Name] = true
	}
	for _, want := range []string{"plan", "probe", "verify"} {
		if !seen[want] {
			t.Errorf("segmented search event missing %q span (got %v)", want, page.Events[0].Spans)
		}
	}
}

func TestEventsEndpointPaging(t *testing.T) {
	s := newTestServer(t)
	for i := 0; i < 5; i++ {
		get(t, s, fmt.Sprintf("/search?seq=0&start=%d&eps_frac=0.05", 3+i))
	}
	resp, body := get(t, s, "/debug/events?since=0&max=2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var page eventsPage
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Events) != 2 || page.Next != 2 || page.Emitted != 5 {
		t.Fatalf("page = %d events, next %d, emitted %d; want 2, 2, 5", len(page.Events), page.Next, page.Emitted)
	}
	rest := drainEvents(t, s, page.Next)
	if len(rest.Events) != 3 {
		t.Fatalf("second page = %d events, want 3", len(rest.Events))
	}
	for i, e := range rest.Events {
		if e.Seq != page.Next+uint64(i)+1 {
			t.Fatalf("event %d has seq %d, want contiguous from %d", i, e.Seq, page.Next+1)
		}
	}
	if resp, _ := get(t, s, "/debug/events?since=banana"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad since: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := get(t, s, "/debug/events?max=banana"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad max: status %d, want 400", resp.StatusCode)
	}
}

// TestTraceparentAdoptAndEcho: an inbound W3C trace context is adopted
// as the query's trace identity and echoed on the response; without one
// the response still carries a parseable traceparent.
func TestTraceparentAdoptAndEcho(t *testing.T) {
	s := newTestServer(t)
	const inboundID = "4bf92f3577b34da6a3ce929d0e0e4736"

	req := httptest.NewRequest(http.MethodGet, "/search?seq=0&start=5&eps_frac=0.05", nil)
	req.Header.Set(obs.TraceparentHeader, "00-"+inboundID+"-00f067aa0ba902b7-01")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	var sr cluster.SearchWire
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if sr.TraceID != inboundID {
		t.Fatalf("response trace %q, want adopted inbound id %q", sr.TraceID, inboundID)
	}
	echo := rec.Header().Get(obs.TraceparentHeader)
	if got := obs.ParseTraceparent(echo); got != inboundID {
		t.Fatalf("echoed traceparent %q does not carry the inbound trace id", echo)
	}
	if _, ok := s.tracer.Get(inboundID); !ok {
		t.Fatal("adopted trace not retrievable by its external id")
	}

	// Without an inbound header the response still stitches: the echoed
	// traceparent must be well-formed.
	resp, _ := get(t, s, "/search?seq=1&start=5&eps_frac=0.05")
	echo = resp.Header.Get(obs.TraceparentHeader)
	if len(echo) != 55 || !strings.HasPrefix(echo, "00-") {
		t.Fatalf("local echo %q is not a well-formed traceparent", echo)
	}
}

func TestTraceFilters(t *testing.T) {
	s := newTestServer(t)

	// One fine query, one errored query (the engine rejects a too-short
	// explicit vector after the trace has started).
	if resp, body := get(t, s, "/search?seq=0&start=5&eps_frac=0.05"); resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d: %s", resp.StatusCode, body)
	}
	if resp, _ := get(t, s, "/search?values=1,2,3"); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("short query status %d, want 422", resp.StatusCode)
	}

	fetch := func(path string) []obs.TraceSnapshot {
		t.Helper()
		resp, body := get(t, s, path)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, body)
		}
		var traces []obs.TraceSnapshot
		if err := json.Unmarshal(body, &traces); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return traces
	}

	errored := fetch("/debug/traces?error=1")
	if len(errored) != 1 || !errored[0].Error {
		t.Fatalf("?error=1 returned %d traces (want exactly the failed query)", len(errored))
	}
	if got := fetch("/debug/traces?min_ms=0"); len(got) < 2 {
		t.Fatalf("min_ms=0 filtered traces away: %d", len(got))
	}
	if got := fetch("/debug/traces?min_ms=1000000"); len(got) != 0 {
		t.Fatalf("min_ms=1e6 returned %d traces, want 0", len(got))
	}
	// Filters compose conjunctively.
	if got := fetch("/debug/traces?error=1&min_ms=1000000"); len(got) != 0 {
		t.Fatalf("error=1&min_ms=1e6 returned %d traces, want 0 (the errored query was fast)", len(got))
	}
	if resp, _ := get(t, s, "/debug/traces?min_ms=banana"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad min_ms: status %d, want 400", resp.StatusCode)
	}
}

// TestTailRetention is the acceptance scenario: after a flood of 10k
// fast queries, one slow request and one errored request from before
// (and during) the flood must still be retrievable via /debug/traces,
// because the tracer's tail buckets outlive the recent ring.
func TestTailRetention(t *testing.T) {
	cfg := newTestServerConfig(t)
	cfg.tracer = obs.NewTracer(128)
	obs.Enable()
	t.Cleanup(obs.Disable)
	s := newServerFromConfig(t, cfg)

	// The errored request: engine rejection after the trace roots.
	if resp, _ := get(t, s, "/search?values=1,2,3"); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatal("expected a 422")
	}
	resp, body := get(t, s, "/debug/traces?error=1")
	var errTraces []obs.TraceSnapshot
	if err := json.Unmarshal(body, &errTraces); err != nil || len(errTraces) != 1 {
		t.Fatalf("errored trace not found: %v %s", err, body)
	}
	errID := errTraces[0].ID

	// The slow request: a forced-scan batch of the most queries a batch
	// may hold, far slower than one indexed lookup.  (At 64 queries it
	// took ~5 ms, within reach of the flood's own slowest few on a
	// loaded 2-vCPU box.)
	var queries []string
	for i := 0; i < maxBatchQueries; i++ {
		queries = append(queries, fmt.Sprintf(`{"seq": %d, "start": %d}`, i%4, 3+i%64))
	}
	breq := fmt.Sprintf(`{"queries": [%s], "path": "scan"}`, strings.Join(queries, ","))
	req := httptest.NewRequest(http.MethodPost, "/search", strings.NewReader(breq))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("slow batch status %d: %s", rec.Code, rec.Body.Bytes())
	}
	var br batchResponseJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil {
		t.Fatal(err)
	}
	slowID := br.TraceID

	// The flood: 10k fast queries, ~80x the recent ring's capacity.
	for i := 0; i < 10000; i++ {
		req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/search?seq=%d&start=%d&eps_frac=0.02", i%4, 3+i%60), nil)
		s.ServeHTTP(httptest.NewRecorder(), req)
	}

	if resp, body = get(t, s, "/debug/traces?id="+slowID); resp.StatusCode != http.StatusOK {
		t.Fatalf("slow trace %s evicted by the flood: %d %s", slowID, resp.StatusCode, body)
	}
	if resp, body = get(t, s, "/debug/traces?id="+errID); resp.StatusCode != http.StatusOK {
		t.Fatalf("errored trace %s evicted by the flood: %d %s", errID, resp.StatusCode, body)
	}
}

// TestCheckpointAgeIdleSkip: the age trigger must not re-serialize an
// idle server (no acked appends past the checkpoint), so checkpoint age
// keeps climbing while due() stays false — and the age gauge reports
// the growing lag.
func TestCheckpointAgeIdleSkip(t *testing.T) {
	dir := t.TempDir()
	s, _, c := startAppendServer(t, filepath.Join(dir, "a.wal"), filepath.Join(dir, "a.ckpt"))
	c.cfg.Interval = time.Millisecond

	appendRamp(t, s, 0, 100, 40)
	if _, err := c.run(); err != nil {
		t.Fatal(err)
	}
	ageAfter := c.age()

	time.Sleep(20 * time.Millisecond)
	if c.due() {
		t.Fatal("idle server reported due: the age trigger must require acked appends past the checkpoint")
	}
	if c.age() <= ageAfter {
		t.Fatal("checkpoint age did not climb while idle")
	}
	resp, body := get(t, s, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatal("metrics unavailable")
	}
	if !strings.Contains(string(body), "scaleshift_checkpoint_age_seconds") {
		t.Fatal("/metrics missing scaleshift_checkpoint_age_seconds")
	}

	// New acked appends re-arm the trigger; a checkpoint resets the age.
	appendRamp(t, s, 0, 101, 40)
	if !c.due() {
		t.Fatal("appends past the checkpoint must make the age trigger due")
	}
	if _, err := c.run(); err != nil {
		t.Fatal(err)
	}
	if got := c.age(); got > 10*time.Second {
		t.Fatalf("age %v did not reset after a checkpoint", got)
	}
}

// TestCheckpointPhaseMetrics: a durable checkpoint publishes its phase
// timings and the checkpoint counter.
func TestCheckpointPhaseMetrics(t *testing.T) {
	dir := t.TempDir()
	s, _, c := startAppendServer(t, filepath.Join(dir, "m.wal"), filepath.Join(dir, "m.ckpt"))
	appendRamp(t, s, 0, 100, 40)
	if _, err := c.run(); err != nil {
		t.Fatal(err)
	}
	_, body := get(t, s, "/metrics")
	out := string(body)
	for _, want := range []string{
		"scaleshift_checkpoints_total",
		`scaleshift_checkpoint_phase_seconds_count{phase="capture"}`,
		`scaleshift_checkpoint_phase_seconds_count{phase="install"}`,
		`scaleshift_checkpoint_phase_seconds_count{phase="truncate"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestDashAgainstLiveServer drives the sstop poll-render loop against
// a live ssserve over real HTTP.
func TestDashAgainstLiveServer(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	client := ts.Client()
	for i := 0; i < 4; i++ {
		resp, err := client.Get(ts.URL + fmt.Sprintf("/search?seq=0&start=%d&eps_frac=0.05", 3+i))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	var buf bytes.Buffer
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := cliutil.RunDash(ctx, client, ts.URL, &buf, 10*time.Millisecond, 2, false); err != nil {
		t.Fatalf("RunDash: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"ready=1",
		"endpoint",
		"search",
		"inflight=",
		"slow queries",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dashboard missing %q:\n%s", want, out)
		}
	}
}
