package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"scaleshift/internal/cliutil"
	"scaleshift/internal/cluster"
	"scaleshift/internal/core"
	"scaleshift/internal/engine"
	"scaleshift/internal/obs"
	"scaleshift/internal/resilience"
	"scaleshift/internal/vec"
)

// Request-body and batch-size ceilings for POST /search.  These are
// not tunables: a batch bigger than this belongs in ssbench, and a
// bigger body is either a bug or an attack.
const (
	maxRequestBody  = 1 << 20 // 1 MiB of JSON
	maxBatchQueries = 256
)

// serverConfig assembles a server.  Everything is explicit so tests
// can build small, deterministic instances.
type serverConfig struct {
	snap   *snapshot
	tracer *obs.Tracer
	logger *slog.Logger
	serve  cliutil.ServeFlags
	reload *reloadConfig  // nil disables hot reload
	ingest *ingestState   // nil disables live append
	ckpt   *checkpointer  // nil disables checkpointing (and append-mode reload)
	events *obs.EventRing // nil gets a default ring
}

// server is the shard mode of the frontend: it serves queries from
// its own artifacts.  The artifact snapshot sits behind an RCU cell so
// hot reloads swap it atomically.
type server struct {
	*frontend
	snap   *resilience.Cell[*snapshot]
	rel    *reloader
	ingest *ingestState
	ckpt   *checkpointer

	reloading     atomic.Bool
	lastReloadErr atomic.Pointer[reloadFailure]

	reloadsOK       *obs.Counter
	reloadsRejected *obs.Counter
	generation      *obs.Gauge
	genCount        atomic.Int64
}

// reloadFailure records the most recent rejected reload for /readyz.
type reloadFailure struct {
	Err string    `json:"error"`
	At  time.Time `json:"at"`
}

func newServer(cfg serverConfig) (*server, error) {
	f, err := newFrontend(cfg.serve, cfg.tracer, cfg.logger, cfg.events)
	if err != nil {
		return nil, err
	}
	s := &server{
		frontend: f,
		snap:     resilience.NewCell(cfg.snap),
		ingest:   cfg.ingest,
		ckpt:     cfg.ckpt,
	}
	f.readiness = s.readiness
	if s.ingest != nil {
		// Ingest and checkpoint gauges are point-in-time reads; refresh
		// them before a scrape so it never serves values stale since the
		// last /readyz.
		f.refresh = s.publishIngestGauges
	}
	if cfg.reload != nil {
		s.rel = newReloader(*cfg.reload)
	}

	s.reloadsOK = s.reg.Counter("scaleshift_reloads_total", "Artifact reload attempts, by result.", obs.Label{Key: "result", Value: "ok"})
	s.reloadsRejected = s.reg.Counter("scaleshift_reloads_total", "Artifact reload attempts, by result.", obs.Label{Key: "result", Value: "rejected"})
	s.generation = s.reg.Gauge("scaleshift_snapshot_generation", "Monotone generation number of the serving snapshot; increments on every successful reload.")
	s.generation.Set(0)
	s.publishSnapshotGauges(cfg.snap)

	s.handle("search", "/search", s.instrument("search", s.guard(s.handleSearch)))
	s.handle("append", "/append", s.instrument("append", s.guard(s.handleAppend)))
	s.handle("shardinfo", "/shardinfo", s.handleShardInfo)
	s.handle("window", "/window", s.handleWindow)
	s.handle("healthz", "/healthz", s.handleHealthz)
	s.handle("reload", "/admin/reload", s.handleReload)
	s.handle("checkpoint", "/admin/checkpoint", s.handleCheckpoint)
	return s, nil
}

// publishSnapshotGauges re-announces the static shape of the serving
// snapshot; called at startup and after every successful swap.
func (s *server) publishSnapshotGauges(sn *snapshot) {
	seqs, values, pages := sn.ix.StoreShape()
	s.reg.Gauge("scaleshift_index_windows", "Windows indexed by the loaded index.").Set(float64(sn.ix.WindowCount()))
	s.reg.Gauge("scaleshift_index_pages", "Pages of the loaded R*-tree.").Set(float64(sn.ix.IndexPageCount()))
	s.reg.Gauge("scaleshift_index_bytes", "Arena bytes of the loaded R*-tree.").Set(float64(sn.ix.IndexByteCount()))
	s.reg.Gauge("scaleshift_index_height", "Height of the loaded R*-tree.").Set(float64(sn.ix.TreeHeight()))
	s.reg.Gauge("scaleshift_store_sequences", "Sequences in the loaded store.").Set(float64(seqs))
	s.reg.Gauge("scaleshift_store_values", "Samples in the loaded store.").Set(float64(values))
	s.reg.Gauge("scaleshift_store_pages", "Data pages in the loaded store.").Set(float64(pages))
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// readiness is the shard's /readyz verdict: draining, a reload in
// progress, checkpoint lag past its bound, and a poisoned write-ahead
// log each take the instance out of rotation.
func (s *server) readiness(context.Context) (bool, map[string]interface{}) {
	sn := s.snap.Acquire()
	defer sn.Release()
	draining := s.draining.Load()
	reloading := s.reloading.Load()
	// Checkpoint lag warns (the detail below carries the age) without
	// blocking readiness until the configured MaxLag bound: a slow
	// checkpoint means growing recovery cost, not wrong answers, so the
	// instance keeps taking traffic while operators see the signal.
	lagged := s.ckpt != nil && s.ckpt.lagExceeded()
	// A poisoned log refuses every append until the process reopens it.
	poisoned := s.ingest != nil && s.ingest.walPoisoned() != nil
	ready := !draining && !reloading && !lagged && !poisoned

	detail := map[string]interface{}{
		"ready":     ready,
		"draining":  draining,
		"reloading": reloading,
		"snapshot": map[string]interface{}{
			"how":       sn.Value().how,
			"loaded_at": sn.Value().loadedAt,
		},
	}
	if f := s.lastReloadErr.Load(); f != nil {
		detail["last_reload_rejected"] = f
	}
	if s.ingest != nil {
		detail["ingest"] = s.ingest.detail()
		s.publishIngestGauges()
	}
	if s.ckpt != nil {
		detail["checkpoint"] = s.ckpt.detail()
	}
	return ready, detail
}

// Reload swaps in a fresh snapshot.  In artifact mode it re-reads the
// configured store and index files; in append mode it runs the
// checkpoint barrier (reloadAppend).  On any validation failure the
// current snapshot keeps serving untouched and the rejection is
// reported via /readyz and the
// scaleshift_reloads_total{result="rejected"} counter.
func (s *server) Reload() error {
	if s.rel == nil {
		if s.ingest != nil && s.ckpt != nil {
			return s.reloadAppend()
		}
		return fmt.Errorf("reload unavailable: server was not started from a -store artifact or with -checkpoint")
	}
	s.rel.mu.Lock()
	defer s.rel.mu.Unlock()

	s.reloading.Store(true)
	s.updateReadyGauge()
	defer func() {
		s.reloading.Store(false)
		s.updateReadyGauge()
	}()

	start := time.Now()
	sn, err := s.rel.load()
	if err != nil {
		s.reloadsRejected.Inc()
		s.lastReloadErr.Store(&reloadFailure{Err: err.Error(), At: time.Now()})
		s.logger.Error("reload rejected; old snapshot keeps serving", "err", err)
		return err
	}
	old := s.snap.Swap(sn)
	gen := s.genCount.Add(1)
	s.generation.Set(float64(gen))
	s.reloadsOK.Inc()
	s.lastReloadErr.Store(nil)
	s.publishSnapshotGauges(sn)
	s.logger.Info("snapshot swapped",
		"generation", gen, "how", sn.how,
		"windows", sn.ix.WindowCount(),
		"elapsed", time.Since(start).Round(time.Millisecond))
	// Old queries finish on the superseded generation; log when it
	// quiesces without blocking the reload path.
	go func() {
		<-old.Drained()
		// No reader can touch the superseded index anymore; release its
		// memory mapping (a no-op for heap-built indexes).
		if err := old.Value().ix.Close(); err != nil {
			s.logger.Warn("closing drained snapshot", "err", err)
		}
		s.logger.Info("previous snapshot drained", "generation", gen-1)
	}()
	return nil
}

// handleReload is the operational trigger: POST /admin/reload.  The
// response distinguishes a swap (200) from a rejected artifact (422,
// old snapshot still serving) and from reload being unconfigured
// (409).
func (s *server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("reload requires POST"))
		return
	}
	if s.rel == nil && (s.ingest == nil || s.ckpt == nil) {
		s.writeError(w, http.StatusConflict, fmt.Errorf("reload unavailable: server was not started from a -store artifact or with -checkpoint"))
		return
	}
	if err := s.Reload(); err != nil {
		s.writeJSON(w, http.StatusUnprocessableEntity, map[string]interface{}{
			"error":   err.Error(),
			"serving": "previous snapshot (unchanged)",
		})
		return
	}
	sn := s.snap.Acquire()
	defer sn.Release()
	s.writeJSON(w, http.StatusOK, map[string]interface{}{
		"status":     "reloaded",
		"generation": s.genCount.Load(),
		"how":        sn.Value().how,
	})
}

func (s *server) handleSearch(w http.ResponseWriter, r *http.Request) {
	pin := s.snap.Acquire()
	defer pin.Release()
	sn := pin.Value()

	if r.Method == http.MethodPost {
		s.handleSearchBatch(w, r, sn)
		return
	}

	q, describe, err := s.parseSearchRequest(sn, r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}

	// Root the query's trace: the engine's plan/probe/verify spans (and
	// the per-descent spans below them) become children of this span,
	// so the committed trace is one complete timeline of the request.
	// An inbound W3C traceparent's trace-id is adopted as the trace's
	// identity, and a traceparent is echoed either way so the caller can
	// stitch the cross-process timeline.
	ctx, root := s.tracer.StartTraceWithID(r.Context(), "search",
		obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader)))
	root.SetAttr("query", describe)
	if id := obs.TraceIDFromContext(ctx); id != "" {
		w.Header().Set(obs.TraceparentHeader, obs.FormatTraceparent(id))
	}

	var stats core.SearchStats
	start := time.Now()
	res, err := sn.ix.Exec(ctx, q, &stats)
	elapsed := time.Since(start)
	ex := res.Explain
	if err != nil {
		root.SetAttr("error", err.Error())
		root.End()
		fillSearchDraft(ctx, root, describe, &stats, ex, 0)
		s.writeSearchError(w, r, err)
		return
	}
	root.SetInt("matches", int64(res.Total))
	root.End() // commits the trace, so /debug/traces can serve it immediately
	fillSearchDraft(ctx, root, describe, &stats, ex, res.Total)

	resp := cluster.SearchWire{
		TraceID:   stats.TraceID,
		Query:     describe,
		Eps:       q.Eps,
		ElapsedNs: elapsed.Nanoseconds(),
		Total:     res.Total,
		Matches:   wireMatches(res.Matches, len(q.Vec)),
		Truncated: res.Total > len(res.Matches),
		Stats:     wireStats(&stats),
	}
	if resp.TraceID == "" {
		resp.TraceID = obs.TraceIDFromContext(ctx)
	}
	if ex != nil {
		resp.Plan = &cluster.WirePlan{Path: ex.Chosen.String(), Forced: ex.Forced, Pieces: ex.Pieces}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// wireMatches converts the engine's rows (the query's limit is already
// applied: core.Query.Limit) for a query of qlen values.
func wireMatches(matches []core.Match, qlen int) []cluster.WireMatch {
	out := make([]cluster.WireMatch, len(matches))
	for i, m := range matches {
		out[i] = cluster.WireMatch{
			Name: m.Name, Seq: m.Seq, Start: m.Start, End: m.Start + qlen,
			Dist: m.Dist, Scale: m.Scale, Shift: m.Shift,
		}
	}
	return out
}

func wireStats(st *core.SearchStats) cluster.WireStats {
	return cluster.WireStats{
		Candidates:     st.Candidates,
		FalseAlarms:    st.FalseAlarms,
		CostRejected:   st.CostRejected,
		IndexNodeReads: st.IndexNodeAccesses,
		DataPageReads:  st.DataPageAccesses,
		PlanNs:         st.PlanTime.Nanoseconds(),
		ProbeNs:        st.ProbeTime.Nanoseconds(),
		VerifyNs:       st.VerifyTime.Nanoseconds(),
	}
}

// writeSearchError maps an engine error to a response.  A canceled
// request whose client hung up gets a token 499 (nothing will read
// it); the server-imposed deadline reports 503 with a retry hint;
// anything else is the query's fault (422).
func (s *server) writeSearchError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, context.Canceled):
		s.writeError(w, 499, err) // nginx's "client closed request"
	case errors.Is(err, context.DeadlineExceeded):
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusServiceUnavailable, fmt.Errorf("request timed out after %v: %w", s.requestTimeout, err))
	default:
		s.writeError(w, http.StatusUnprocessableEntity, err)
	}
}

// batchQueryJSON is one query of a POST /search batch.  The fields
// mirror the GET parameters; Values and Seq/Start are alternatives
// exactly as in the query string.
type batchQueryJSON struct {
	Seq      *int      `json:"seq,omitempty"`
	Start    *int      `json:"start,omitempty"`
	Len      *int      `json:"len,omitempty"`
	Scale    *float64  `json:"scale,omitempty"`
	Shift    *float64  `json:"shift,omitempty"`
	Values   []float64 `json:"values,omitempty"`
	Eps      float64   `json:"eps,omitempty"`
	EpsFrac  float64   `json:"eps_frac,omitempty"`
	ScaleMin float64   `json:"scale_min,omitempty"`
	ScaleMax float64   `json:"scale_max,omitempty"`
	ShiftAbs float64   `json:"shift_abs,omitempty"`
}

// batchRequestJSON is the POST /search body.
type batchRequestJSON struct {
	Queries     []batchQueryJSON `json:"queries"`
	Path        string           `json:"path,omitempty"`
	Limit       *int             `json:"limit,omitempty"`
	Parallelism int              `json:"parallelism,omitempty"`
}

// batchItemJSON is one query's slot in the batch response, positionally
// aligned with the request's queries.
type batchItemJSON struct {
	Status    string              `json:"status"` // complete | incomplete
	Eps       float64             `json:"eps,omitempty"`
	Total     int                 `json:"total_matches"`
	Matches   []cluster.WireMatch `json:"matches"`
	Truncated bool                `json:"truncated,omitempty"`
}

// batchResponseJSON is the POST /search payload.
type batchResponseJSON struct {
	TraceID   string            `json:"trace_id,omitempty"`
	ElapsedNs int64             `json:"elapsed_ns"`
	Completed int               `json:"completed"`
	Canceled  bool              `json:"canceled,omitempty"`
	Results   []batchItemJSON   `json:"results"`
	Stats     cluster.WireStats `json:"stats"`
}

// or dereferences an optional JSON field, def when it is absent.
func or[T any](p *T, def T) T {
	if p == nil {
		return def
	}
	return *p
}

// toBatchQuery resolves one JSON query against the snapshot.
func (s *server) toBatchQuery(sn *snapshot, i int, bq batchQueryJSON, force engine.PathKind) (core.Query, error) {
	window := sn.ix.Options().WindowLen
	var q vec.Vector
	switch {
	case len(bq.Values) > 0:
		q = vec.Vector(bq.Values)
	case bq.Seq != nil || bq.Start != nil:
		ref := windowRef{
			seq: or(bq.Seq, 0), start: or(bq.Start, 0), n: or(bq.Len, window),
			scale: or(bq.Scale, 1), shift: or(bq.Shift, 0),
		}
		if err := ref.check(); err != nil {
			return core.Query{}, fmt.Errorf("query %d: %w", i, err)
		}
		w, err := ref.fetch(sn.ix.QueryWindow)
		if err != nil {
			return core.Query{}, fmt.Errorf("query %d: %w", i, err)
		}
		q = vec.Apply(w, ref.scale, ref.shift)
	default:
		return core.Query{}, fmt.Errorf("query %d: provide seq/start or values", i)
	}
	if len(q) > window {
		return core.Query{}, fmt.Errorf("query %d: long queries (len %d > window %d) are not batchable; use GET /search", i, len(q), window)
	}

	eps := bq.Eps
	if eps <= 0 {
		frac := bq.EpsFrac
		if frac <= 0 {
			frac = 0.02
		}
		eps = frac * sn.normScale
	}
	costs := core.UnboundedCosts()
	if bq.ScaleMin != 0 {
		costs.ScaleMin = bq.ScaleMin
	}
	if bq.ScaleMax != 0 {
		costs.ScaleMax = bq.ScaleMax
	}
	if bq.ShiftAbs != 0 {
		costs.ShiftMin, costs.ShiftMax = -bq.ShiftAbs, bq.ShiftAbs
	}
	return core.Query{Vec: q, Eps: eps, Costs: costs, Force: force}, nil
}

// handleSearchBatch answers POST /search: a JSON batch fanned out
// through the engine's batch executor under the request context, so a
// dropped connection cancels every in-flight query of the batch within
// the engine's cancellation grain.
func (s *server) handleSearchBatch(w http.ResponseWriter, r *http.Request, sn *snapshot) {
	var breq batchRequestJSON
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&breq); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		s.writeError(w, status, fmt.Errorf("decoding batch body: %w", err))
		return
	}
	if len(breq.Queries) == 0 {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("batch has no queries"))
		return
	}
	if len(breq.Queries) > maxBatchQueries {
		s.writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("batch of %d queries exceeds the %d-query limit", len(breq.Queries), maxBatchQueries))
		return
	}
	force := engine.PathAuto
	if breq.Path != "" {
		var err error
		if force, err = engine.ParsePathKind(breq.Path); err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	limit := 100
	if breq.Limit != nil {
		limit = *breq.Limit
	}

	queries := make([]core.Query, len(breq.Queries))
	for i, bq := range breq.Queries {
		var err error
		if queries[i], err = s.toBatchQuery(sn, i, bq, force); err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
		queries[i].Limit = limit
	}

	ctx, root := s.tracer.StartTraceWithID(r.Context(), "search_batch",
		obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader)))
	root.SetInt("queries", int64(len(queries)))
	if id := obs.TraceIDFromContext(ctx); id != "" {
		w.Header().Set(obs.TraceparentHeader, obs.FormatTraceparent(id))
	}

	var stats core.SearchStats
	start := time.Now()
	results, statuses, err := sn.ix.ExecBatch(ctx, queries, breq.Parallelism, &stats)
	elapsed := time.Since(start)
	describe := fmt.Sprintf("batch of %d queries", len(queries))
	canceled := err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
	if err != nil && !canceled {
		root.SetAttr("error", err.Error())
		root.End()
		fillSearchDraft(ctx, root, describe, &stats, nil, 0)
		s.writeSearchError(w, r, err)
		return
	}
	if canceled && r.Context().Err() != nil && errors.Is(err, context.Canceled) {
		// The client is gone; there is nobody to render partial
		// results for.
		root.SetAttr("error", "client disconnected")
		root.End()
		fillSearchDraft(ctx, root, describe, &stats, nil, 0)
		s.writeError(w, 499, err)
		return
	}
	root.End()

	resp := batchResponseJSON{
		TraceID:   obs.TraceIDFromContext(ctx),
		ElapsedNs: elapsed.Nanoseconds(),
		Canceled:  canceled,
		Results:   make([]batchItemJSON, len(results)),
		Stats:     wireStats(&stats),
	}
	for i, res := range results {
		item := batchItemJSON{Status: statuses[i].String(), Eps: queries[i].Eps}
		if statuses[i] == core.BatchComplete {
			resp.Completed++
			item.Total = res.Total
			item.Matches = wireMatches(res.Matches, len(queries[i].Vec))
			item.Truncated = res.Total > len(res.Matches)
		} else {
			item.Matches = []cluster.WireMatch{}
		}
		resp.Results[i] = item
	}
	status := http.StatusOK
	if canceled {
		// Partial results from a server-side timeout: accepted, but
		// flagged.  206 tells the client some slots are incomplete.
		status = http.StatusPartialContent
	}
	totalMatches := 0
	for _, item := range resp.Results {
		totalMatches += item.Total
	}
	fillSearchDraft(ctx, root, describe, &stats, nil, totalMatches)
	s.emitBatchSlotEvents(resp.TraceID, status, &resp)
	s.writeJSON(w, status, resp)
}
