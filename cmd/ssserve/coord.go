package main

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"scaleshift/internal/cliutil"
	"scaleshift/internal/cluster"
	"scaleshift/internal/obs"
	"scaleshift/internal/resilience"
)

// Coordinator mode: this process owns no artifacts — it fans every
// query out to the shard fleet through internal/cluster and serves the
// exact merge, with per-shard fault domains surfaced as an explicit
// coverage block.  The response status is the coverage contract:
//
//	200  every shard answered; the result is bit-identical to a
//	     single node over the union store
//	206  at least one fault domain is down; matches from the healthy
//	     shards are exact and complete for their slices, and the
//	     coverage block names what is missing
//	503  no shard answered (or the fleet is draining)
//
// A partial answer is never silently served as a full one.

// coordConfig assembles a coordinator frontend.
type coordConfig struct {
	coord  *cluster.Coordinator
	tracer *obs.Tracer
	logger *slog.Logger
	serve  cliutil.ServeFlags
	events *obs.EventRing // nil gets a default ring
	quorum float64        // readiness fraction, (0, 1]
}

// coordServer is the coordinator's HTTP frontend.  It reuses the shard
// server's middleware shape — per-route metrics, admission control,
// wide events — but its serving path is the scatter-gather engine
// instead of a local index snapshot.
type coordServer struct {
	coord  *cluster.Coordinator
	adm    *resilience.Admission
	tracer *obs.Tracer
	logger *slog.Logger
	reg    *obs.Registry
	mux    *http.ServeMux
	events *obs.EventRing

	requestTimeout time.Duration
	quorum         float64
	draining       atomic.Bool
	readyGauge     *obs.Gauge
}

func newCoordServer(cfg coordConfig) (*coordServer, error) {
	if err := cfg.serve.Validate(); err != nil {
		return nil, err
	}
	if cfg.quorum <= 0 || cfg.quorum > 1 {
		return nil, fmt.Errorf("ready quorum %g must be in (0, 1]", cfg.quorum)
	}
	s := &coordServer{
		coord:          cfg.coord,
		tracer:         cfg.tracer,
		logger:         cfg.logger,
		reg:            obs.Default,
		mux:            http.NewServeMux(),
		events:         cfg.events,
		requestTimeout: cfg.serve.RequestTimeout,
		quorum:         cfg.quorum,
	}
	if s.events == nil {
		s.events = obs.NewEventRing(256)
	}
	s.adm = resilience.NewAdmission(resilience.AdmissionConfig{
		MaxInflight:  cfg.serve.MaxInflight,
		MaxQueue:     cfg.serve.MaxQueue,
		QueueTimeout: cfg.serve.QueueTimeout,
		Registry:     s.reg,
	})
	s.readyGauge = s.reg.Gauge("scaleshift_ready", "1 when /readyz reports ready.")
	s.readyGauge.Set(1)

	s.handle("search", "/search", s.instrument(s.guard(s.handleSearch)))
	s.handle("healthz", "/healthz", s.handleHealthz)
	s.handle("livez", "/livez", s.handleLivez)
	s.handle("readyz", "/readyz", s.handleReadyz)
	s.handle("metrics", "/metrics", s.handleMetrics)
	s.handle("traces", "/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		serveTraces(s.tracer, s.logger, w, r)
	})
	s.handle("events", "/debug/events", func(w http.ResponseWriter, r *http.Request) {
		serveEvents(s.events, s.logger, w, r)
	})
	s.mux.Handle("/debug/vars", expvar.Handler())
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s, nil
}

func (s *coordServer) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *coordServer) writeJSON(w http.ResponseWriter, status int, v interface{}) {
	writeJSONResp(s.logger, w, status, v)
}

func (s *coordServer) writeError(w http.ResponseWriter, status int, err error) {
	writeErrorResp(s.logger, w, status, err)
}

// handle mirrors server.handle: per-route request/error counters,
// latency histogram, request log line, status capture.
func (s *coordServer) handle(name, pattern string, h http.HandlerFunc) {
	l := obs.Label{Key: "handler", Value: name}
	reqs := s.reg.Counter("scaleshift_http_requests_total", "HTTP requests served, by handler.", l)
	errs := s.reg.Counter("scaleshift_http_errors_total", "HTTP responses with status >= 400, by handler.", l)
	dur := s.reg.DurationHistogram("scaleshift_http_request_duration_seconds", "HTTP request latency, by handler.", l)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		elapsed := time.Since(start)
		reqs.Inc()
		dur.ObserveDuration(elapsed)
		if sw.status >= 400 {
			errs.Inc()
		}
		s.logger.Info("request",
			"method", r.Method, "path", r.URL.Path, "status", sw.status,
			"duration", elapsed, "remote", r.RemoteAddr)
	})
}

// guard applies the per-request timeout and the admission controller.
// The per-shard deadlines nest inside the request timeout, so a fully
// stalled fleet still resolves within this budget.
func (s *coordServer) guard(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout)
		defer cancel()
		r = r.WithContext(ctx)
		release, err := s.adm.Acquire(ctx)
		if err != nil {
			s.writeOverloaded(w, r, err)
			return
		}
		defer release()
		h(w, r)
	}
}

func (s *coordServer) writeOverloaded(w http.ResponseWriter, r *http.Request, err error) {
	retryAfter := time.Second
	var oe *resilience.OverloadError
	if errors.As(err, &oe) {
		retryAfter = oe.RetryAfter
	}
	if d := eventDraftFrom(r.Context()); d != nil {
		d.outcome = "shed"
	}
	secs := int64((retryAfter + time.Second - 1) / time.Second)
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	s.writeError(w, http.StatusTooManyRequests, err)
}

// instrument emits the coordinator's wide event: the usual envelope
// plus the per-shard coverage, so one event explains which fault
// domains answered and under how many attempts.
func (s *coordServer) instrument(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.events.Active() {
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
		e := &obs.Event{
			Kind:       "search",
			Status:     status,
			Outcome:    draft.outcome,
			DurationNs: elapsed.Nanoseconds(),
			Query:      draft.query,
			Matches:    draft.matches,
			Stats:      draft.stats,
			Shards:     draft.shards,
		}
		if e.Outcome == "" {
			if status == http.StatusPartialContent {
				e.Outcome = "partial"
			} else {
				e.Outcome = outcomeFromStatus(status)
			}
		}
		if draft.trace != nil {
			snap := draft.trace.Snapshot()
			e.TraceID = snap.ID
			for _, sp := range snap.Spans {
				if sp.Parent == 0 {
					continue
				}
				e.Spans = append(e.Spans, obs.EventSpan{Name: sp.Name, DurationNs: sp.DurationNs})
			}
		} else {
			e.TraceID = s.tracer.MintID()
		}
		s.events.Emit(e, time.Now().UnixNano())
	}
}

func (s *coordServer) handleLivez(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *coordServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]interface{}{
		"status": "ok",
		"mode":   "coordinator",
		"shards": s.coord.NumShards(),
	})
}

// SetDraining flips the drain flag /readyz reports.
func (s *coordServer) SetDraining(v bool) {
	s.draining.Store(v)
	if v {
		s.readyGauge.Set(0)
	}
}

// handleReadyz is quorum readiness: ready iff the coordinator is not
// draining and at least the configured fraction of shards report ready.
// The body carries every shard's state so an operator (or the soak
// harness) can see exactly which fault domain is dragging readiness.
func (s *coordServer) handleReadyz(w http.ResponseWriter, r *http.Request) {
	probes := s.coord.ProbeReady(r.Context())
	readyShards := 0
	for _, p := range probes {
		if p.Ready {
			readyShards++
		}
	}
	frac := float64(readyShards) / float64(len(probes))
	draining := s.draining.Load()
	ready := !draining && frac >= s.quorum
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	if ready {
		s.readyGauge.Set(1)
	} else {
		s.readyGauge.Set(0)
	}
	s.writeJSON(w, status, map[string]interface{}{
		"ready":        ready,
		"draining":     draining,
		"mode":         "coordinator",
		"quorum":       s.quorum,
		"shards_ready": readyShards,
		"shards_total": len(probes),
		"shards":       probes,
	})
}

func (s *coordServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		s.logger.Error("writing metrics", "err", err)
	}
}

// coverageShardJSON is one shard's entry in the response's coverage
// block.
type coverageShardJSON struct {
	ID        int    `json:"id"`
	Addr      string `json:"addr"`
	State     string `json:"state"` // ok | degraded | failed
	TraceID   string `json:"trace_id,omitempty"`
	Attempts  int    `json:"attempts,omitempty"`
	Hedged    bool   `json:"hedged,omitempty"`
	ElapsedNs int64  `json:"elapsed_ns,omitempty"`
	Error     string `json:"error,omitempty"`
}

// coverageJSON states exactly which slice of the data the answer
// covers.
type coverageJSON struct {
	Complete bool                `json:"complete"`
	OK       int                 `json:"ok"`
	Degraded int                 `json:"degraded"`
	Failed   int                 `json:"failed"`
	Shards   []coverageShardJSON `json:"shards"`
}

// coordSearchResponse is the coordinator's /search payload: the shard
// schema plus the coverage block.
type coordSearchResponse struct {
	TraceID   string       `json:"trace_id,omitempty"`
	Query     string       `json:"query"`
	Eps       float64      `json:"eps"`
	ElapsedNs int64        `json:"elapsed_ns"`
	Total     int          `json:"total_matches"`
	Matches   []matchJSON  `json:"matches"`
	Truncated bool         `json:"truncated,omitempty"`
	Stats     statsJSON    `json:"stats"`
	Coverage  coverageJSON `json:"coverage"`
}

// handleSearch is the scatter-gather serving path.
func (s *coordServer) handleSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		s.writeError(w, http.StatusNotImplemented,
			fmt.Errorf("batch search is not available in coordinator mode; send GET queries"))
		return
	}

	// Root the trace before touching any shard so the traceparent we
	// propagate carries this trace's id: a healthy shard then roots its
	// own trace under the same id, which is what lets sstop (or a
	// human) jump from the coordinator's wide event straight into any
	// shard's /debug/traces?id=.
	ctx, root := s.tracer.StartTraceWithID(r.Context(), "search",
		obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader)))
	traceID := obs.TraceIDFromContext(ctx)
	var downstream string
	if traceID != "" {
		downstream = obs.FormatTraceparent(traceID)
		w.Header().Set(obs.TraceparentHeader, downstream)
	}

	params, describe, knn, err := s.resolveQuery(ctx, r.URL.Query())
	if err != nil {
		root.SetAttr("error", err.Error())
		root.End()
		if d := eventDraftFrom(ctx); d != nil {
			d.trace = root.Trace()
			d.query = describe
		}
		status := http.StatusBadRequest
		var un *unavailableError
		if errors.As(err, &un) {
			status = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", "1")
		}
		s.writeError(w, status, err)
		return
	}

	start := time.Now()
	g := s.coord.Scatter(ctx, params, knn, downstream)
	elapsed := time.Since(start)

	root.SetInt("matches", int64(g.Total))
	root.SetInt("shards_failed", int64(g.Failed))
	if g.Failed > 0 {
		root.SetAttr("coverage", "partial")
	}
	root.End()

	cov := coverageJSON{
		Complete: g.Failed == 0,
		OK:       g.OK,
		Degraded: g.Degraded,
		Failed:   g.Failed,
		Shards:   make([]coverageShardJSON, len(g.Coverage)),
	}
	for i, o := range g.Coverage {
		cov.Shards[i] = coverageShardJSON{
			ID: o.ID, Addr: o.Addr, State: o.State, TraceID: o.TraceID,
			Attempts: o.Attempts, Hedged: o.Hedged, ElapsedNs: o.Elapsed.Nanoseconds(),
		}
		if o.Err != nil {
			cov.Shards[i].Error = o.Err.Error()
		}
	}
	s.fillDraft(ctx, root, describe, g, cov.Shards)

	// Status is the coverage contract.  A unanimous shard-side 4xx is
	// the caller's own error; total coverage loss is 503; any missing
	// fault domain makes the (exact, but incomplete) answer a 206.
	switch {
	case g.ClientErr != nil:
		s.writeError(w, g.ClientErr.Status, fmt.Errorf("shards rejected the query: %s", g.ClientErr.Body))
		return
	case g.Failed == s.coord.NumShards():
		w.Header().Set("Retry-After", "1")
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]interface{}{
			"error":    "no shard answered; retry shortly",
			"coverage": cov,
		})
		return
	}
	status := http.StatusOK
	if g.Failed > 0 {
		status = http.StatusPartialContent
	}

	resp := coordSearchResponse{
		TraceID:   traceID,
		Query:     describe,
		Eps:       g.Eps,
		ElapsedNs: elapsed.Nanoseconds(),
		Total:     g.Total,
		Matches:   make([]matchJSON, 0, len(g.Matches)),
		Truncated: g.Total > len(g.Matches),
		Coverage:  cov,
		Stats: statsJSON{
			Candidates:     g.Stats.Candidates,
			FalseAlarms:    g.Stats.FalseAlarms,
			CostRejected:   g.Stats.CostRejected,
			IndexNodeReads: g.Stats.IndexNodeReads,
			DataPageReads:  g.Stats.DataPageReads,
			PlanNs:         g.Stats.PlanNs,
			ProbeNs:        g.Stats.ProbeNs,
			VerifyNs:       g.Stats.VerifyNs,
		},
	}
	for _, m := range g.Matches {
		resp.Matches = append(resp.Matches, matchJSON{
			Name: m.Name, Seq: m.Seq, Start: m.Start, End: m.End,
			Dist: m.Dist, Scale: m.Scale, Shift: m.Shift,
		})
	}
	s.writeJSON(w, status, resp)
}

// fillDraft records the gather into the request's wide-event draft.
func (s *coordServer) fillDraft(ctx context.Context, root *obs.Span, describe string, g *cluster.GatherResult, shards []coverageShardJSON) {
	d := eventDraftFrom(ctx)
	if d == nil {
		return
	}
	d.trace = root.Trace()
	d.query = describe
	d.matches = g.Total
	d.stats = &obs.EventStats{
		Candidates:     g.Stats.Candidates,
		FalseAlarms:    g.Stats.FalseAlarms,
		CostRejected:   g.Stats.CostRejected,
		Results:        g.ShardResults,
		IndexNodeReads: g.Stats.IndexNodeReads,
		DataPageReads:  g.Stats.DataPageReads,
		PlanNs:         g.Stats.PlanNs,
		ProbeNs:        g.Stats.ProbeNs,
		VerifyNs:       g.Stats.VerifyNs,
	}
	d.shards = make([]obs.EventShard, len(shards))
	for i, sh := range shards {
		d.shards[i] = obs.EventShard{
			ID: sh.ID, State: sh.State, TraceID: sh.TraceID,
			Attempts: sh.Attempts, Hedged: sh.Hedged,
			DurationNs: sh.ElapsedNs, Error: sh.Error,
		}
	}
}

// unavailableError marks a query that could not even be resolved
// because its owner shard is down (seq/start addressing).
type unavailableError struct{ err error }

func (e *unavailableError) Error() string { return e.err.Error() }
func (e *unavailableError) Unwrap() error { return e.err }

// resolveQuery turns the caller's parameters into the exact parameter
// set to fan out: an explicit values vector, an absolute eps and the
// row limit (default 100, 0 = all).  The first two resolutions matter
// for exactness — every shard must search the same query at the same
// radius, so per-shard eps_frac resolution (each against its own norm
// scale) or per-shard seq addressing (local ids) would quietly turn
// one query into N different ones.
func (s *coordServer) resolveQuery(ctx context.Context, p url.Values) (params url.Values, describe string, knn int, err error) {
	params = url.Values{}
	for k, vs := range p {
		params[k] = vs
	}
	pr := cluster.ParamReader{Values: p}

	// Query vector: pass an explicit values= through; resolve seq/start
	// against the owner shard and rewrite.
	if p.Get("values") != "" {
		n := strings.Count(p.Get("values"), ",") + 1
		describe = fmt.Sprintf("%d explicit values", n)
	} else if p.Get("seq") != "" || p.Get("start") != "" {
		seq, startAt := pr.Int("seq", 0), pr.Int("start", 0)
		n := pr.Int("len", s.coord.WindowLen())
		scale, shift := pr.Float("scale", 1), pr.Float("shift", 0)
		if pr.Err != nil {
			return nil, "", 0, pr.Err
		}
		if n <= 0 || n > maxAppendValues {
			return nil, "", 0, fmt.Errorf("parameter len must be in (0, %d]", maxAppendValues)
		}
		vals, werr := s.coord.Window(ctx, seq, startAt, n)
		if werr != nil {
			var down *cluster.ShardDownError
			if errors.As(werr, &down) {
				// The bytes live only on the owner shard; with that fault
				// domain gone the query cannot be resolved at all.
				return nil, "", 0, &unavailableError{err: werr}
			}
			return nil, "", 0, werr
		}
		fields := make([]string, len(vals))
		for i, v := range vals {
			// 'g'/-1 is the shortest representation that parses back to
			// the identical float64, so the resolved window reaches every
			// shard bit-exact.
			fields[i] = strconv.FormatFloat(scale*v+shift, 'g', -1, 64)
		}
		params.Set("values", strings.Join(fields, ","))
		params.Del("seq")
		params.Del("start")
		params.Del("scale")
		params.Del("shift")
		describe = fmt.Sprintf("window %d:%d len %d (a=%g b=%g)", seq, startAt, n, scale, shift)
	} else {
		return nil, "", 0, fmt.Errorf("provide seq=&start= or values=")
	}

	// Epsilon: resolve eps_frac here, against the cluster-wide norm
	// scale, and fan out the absolute radius.
	eps := pr.Float("eps", -1)
	if eps < 0 {
		eps = pr.Float("eps_frac", 0.02) * s.coord.NormScale()
	}
	knn = pr.Int("nn", 0)
	limit := pr.Int("limit", 100)
	if pr.Err != nil {
		return nil, describe, 0, pr.Err
	}
	params.Set("eps", strconv.FormatFloat(eps, 'g', -1, 64))
	params.Del("eps_frac")
	params.Set("limit", strconv.Itoa(limit))
	return params, describe, knn, nil
}

// coordRunOpts carries the -coordinator flag set into runCoordinator.
type coordRunOpts struct {
	addr           string
	manifestPath   string
	shardAddrs     []string
	attemptTimeout time.Duration
	retries        int
	backoff        time.Duration
	hedgeAfter     time.Duration
	connectTimeout time.Duration
	quorum         float64
	traceRing      int
	eventRing      int
	eventLog       string
	serve          cliutil.ServeFlags
}

func splitAddrs(s string) []string {
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// runCoordinator is the -coordinator serving loop: load and verify the
// manifest, validate the live fleet against it, then serve until
// SIGINT/SIGTERM and drain.
func runCoordinator(opts coordRunOpts, logger *slog.Logger, finish func() error) error {
	man, err := cluster.LoadManifest(opts.manifestPath)
	if err != nil {
		return err
	}

	// The signal context is armed before fleet validation so an
	// operator can abort a coordinator stuck waiting for shards.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	logger.Info("validating shard fleet",
		"shards", len(opts.shardAddrs), "manifest", opts.manifestPath)
	coord, err := cluster.NewCoordinator(ctx, cluster.CoordinatorConfig{
		Manifest: man,
		Addrs:    opts.shardAddrs,
		Shard: cluster.ShardConfig{
			AttemptTimeout: opts.attemptTimeout,
			Retries:        opts.retries,
			BackoffBase:    opts.backoff,
			HedgeAfter:     opts.hedgeAfter,
		},
		ConnectTimeout: opts.connectTimeout,
		Logger:         logger,
	})
	if err != nil {
		return err
	}

	tracer := obs.NewTracer(opts.traceRing)
	obs.Default.PublishExpvar("scaleshift")
	events := obs.NewEventRing(opts.eventRing)
	if opts.eventLog != "" {
		f, err := os.OpenFile(opts.eventLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("-event-log %s: %w", opts.eventLog, err)
		}
		sink := obs.NewEventLog(f, 1024)
		events.Tee(sink)
		defer func() {
			if err := sink.Close(); err != nil {
				logger.Warn("closing event log", "err", err)
			}
		}()
	}

	srv, err := newCoordServer(coordConfig{
		coord:  coord,
		tracer: tracer,
		logger: logger,
		serve:  opts.serve,
		events: events,
		quorum: opts.quorum,
	})
	if err != nil {
		return err
	}

	httpSrv := &http.Server{
		Addr:              opts.addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() {
		logger.Info("coordinator listening", "addr", opts.addr, "shards", coord.NumShards())
		errc <- httpSrv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	srv.SetDraining(true)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return finish()
}
