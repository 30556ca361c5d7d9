package main

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"scaleshift/internal/core"
	"scaleshift/internal/engine"
	"scaleshift/internal/obs"
)

// Wide events: the serving layer emits exactly one structured event
// per /search request, per POST /search batch, and per /append —
// whatever the outcome (parse error, admission shed, engine error,
// success).  The handler fills an eventDraft
// as it learns things; the instrument middleware turns the draft into
// an obs.Event after the response is written, when the status and the
// committed trace are both known.  Batch slots additionally get one
// thin batch_slot event each, keyed to the batch's trace ID.

// eventDraft accumulates what a handler knows about its request.
type eventDraft struct {
	trace   *obs.Trace
	query   string
	path    string
	matches int
	outcome string // set by a coordinator's partial answer
	plan    []obs.EventPlanRow
	stats   *obs.EventStats
	shards  []obs.EventShard // coordinator mode: per-fault-domain coverage
}

type eventDraftKey struct{}

// eventDraftFrom returns the request's draft, or nil when the route is
// not instrumented (or events are disabled).
func eventDraftFrom(ctx context.Context) *eventDraft {
	d, _ := ctx.Value(eventDraftKey{}).(*eventDraft)
	return d
}

// eventStats flattens the engine's ledger into the obs event form.
// ScanProbes rides along beside the Candidates == FalseAlarms +
// CostRejected + Results identity, checkable from the event alone.
func eventStats(st *core.SearchStats) *obs.EventStats {
	return &obs.EventStats{
		Candidates:     st.Candidates,
		FalseAlarms:    st.FalseAlarms,
		CostRejected:   st.CostRejected,
		Results:        st.Results,
		ExactChecks:    st.ExactChecks,
		NormCertified:  st.NormCertified,
		IndexNodeReads: st.IndexNodeAccesses,
		DataPageReads:  st.DataPageAccesses,
		ScanProbes:     st.PathProbes[engine.PathScan],
		PlanNs:         st.PlanTime.Nanoseconds(),
		ProbeNs:        st.ProbeTime.Nanoseconds(),
		VerifyNs:       st.VerifyTime.Nanoseconds(),
	}
}

// eventPlanRows renders one row per probed segment: its path and the
// candidates it actually emitted.
func eventPlanRows(ex *engine.Explain) []obs.EventPlanRow {
	if ex == nil {
		return nil
	}
	rows := make([]obs.EventPlanRow, 0, len(ex.Segments))
	for _, sp := range ex.Segments {
		rows = append(rows, obs.EventPlanRow{Path: sp.Chosen.String(), Candidates: sp.Candidates})
	}
	return rows
}

// fillSearchDraft records a completed (or failed) search into the
// request's draft.
func fillSearchDraft(ctx context.Context, root *obs.Span, describe string, stats *core.SearchStats, ex *engine.Explain, matches int) {
	d := eventDraftFrom(ctx)
	if d == nil {
		return
	}
	d.trace = root.Trace()
	d.query = describe
	d.stats = eventStats(stats)
	d.matches = matches
	if ex != nil {
		d.path = ex.Chosen.String()
		d.plan = eventPlanRows(ex)
	}
}

// outcomeFromStatus classifies a response when the handler did not
// already decide (a coordinator's partial answer sets the draft outcome
// explicitly).
func outcomeFromStatus(status int) string {
	switch {
	case status < 400:
		return "ok"
	case status == http.StatusTooManyRequests:
		return "shed"
	case status >= 500:
		return "error"
	default:
		return "client_error" // 4xx and the token 499 client-gone
	}
}

// instrument wraps a serving route with wide-event emission.  It sits
// between handle (which owns the statusWriter) and guard (which sheds),
// so the event sees every outcome.  The disabled path is one atomic
// check and allocates nothing.
func (f *frontend) instrument(kind string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !f.events.Active() {
			h(w, r)
			return
		}
		draft := &eventDraft{}
		r = r.WithContext(context.WithValue(r.Context(), eventDraftKey{}, draft))
		start := time.Now()
		h(w, r)
		elapsed := time.Since(start)

		status := http.StatusOK
		if sw, ok := w.(*statusWriter); ok {
			status = sw.status
		}
		k := kind
		if kind == "search" && r.Method == http.MethodPost {
			k = "search_batch"
		}
		e := &obs.Event{
			Kind:       k,
			Status:     status,
			Outcome:    draft.outcome,
			DurationNs: elapsed.Nanoseconds(),
			Query:      draft.query,
			Path:       draft.path,
			Matches:    draft.matches,
			Plan:       draft.plan,
			Stats:      draft.stats,
			Shards:     draft.shards,
		}
		if e.Outcome == "" {
			e.Outcome = outcomeFromStatus(status)
		}
		if draft.trace != nil {
			// The root span ended before the handler returned, so the
			// snapshot carries final stage timings.
			snap := draft.trace.Snapshot()
			e.TraceID = snap.ID
			for _, sp := range snap.Spans {
				if sp.Parent == 0 {
					continue // the root's duration is the event's own
				}
				e.Spans = append(e.Spans, obs.EventSpan{Name: sp.Name, DurationNs: sp.DurationNs})
			}
		} else {
			// The request was rejected before a trace could root (shed
			// at admission, open breaker, parse failure).  Mint an id
			// anyway: every wide event stays correlatable.
			e.TraceID = f.tracer.MintID()
		}
		f.events.Emit(e, time.Now().UnixNano())
	}
}

// emitBatchSlotEvents publishes one thin event per batch slot, keyed
// to the batch's trace so a slow slot can be found from the stream.
func (s *server) emitBatchSlotEvents(traceID string, status int, resp *batchResponseJSON) {
	if !s.events.Active() {
		return
	}
	for i, item := range resp.Results {
		outcome := "ok"
		if item.Status != core.BatchComplete.String() {
			outcome = "error"
		}
		s.events.Emit(&obs.Event{
			Kind:    "batch_slot",
			TraceID: traceID,
			Status:  status,
			Outcome: outcome,
			Slot:    i,
			Matches: item.Total,
		}, time.Now().UnixNano())
	}
}

// handleEvents serves the wide-event ring at /debug/events.  ?since=
// resumes a poller's cursor; ?max= caps the page.  The envelope carries
// the ring's accounting counters so a poller can prove exactly-once
// coverage: drained + missed converges on emitted.
func (f *frontend) handleEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var since uint64
	if v := q.Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			f.writeError(w, http.StatusBadRequest, fmt.Errorf("parameter since: %w", err))
			return
		}
		since = n
	}
	max := 0
	if v := q.Get("max"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			f.writeError(w, http.StatusBadRequest, fmt.Errorf("parameter max: %w", err))
			return
		}
		max = n
	}
	events, missed, next := f.events.Drain(since, max)
	if events == nil {
		events = []*obs.Event{}
	}
	f.writeJSON(w, http.StatusOK, map[string]interface{}{
		"events":       events,
		"missed":       missed,
		"next":         next,
		"emitted":      f.events.Emitted(),
		"overwritten":  f.events.Overwritten(),
		"sink_dropped": f.events.SinkDropped(),
	})
}
