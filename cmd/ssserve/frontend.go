package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"scaleshift/internal/cliutil"
	"scaleshift/internal/obs"
	"scaleshift/internal/resilience"
)

// frontend is the HTTP surface both modes of ssserve share — a shard
// serving its own artifacts and a coordinator scattering over a fleet
// are one server with different /search routes.  It owns the mux, the
// middleware (per-route metrics and request log, wide events, deadline
// and admission control), the operational routes (/livez, /readyz,
// /metrics, /debug/*), the ready gauge, the drain flag and the serving
// loop.  A mode embeds it, registers its own routes, and sets
// readiness.
type frontend struct {
	mux    *http.ServeMux
	adm    *resilience.Admission
	tracer *obs.Tracer
	logger *slog.Logger
	reg    *obs.Registry
	events *obs.EventRing

	requestTimeout time.Duration
	draining       atomic.Bool
	readyGauge     *obs.Gauge

	// readiness is the mode's /readyz verdict and body; it must report
	// not-ready while draining.  refresh, when set, updates
	// point-in-time gauges before a /metrics scrape.
	readiness func(ctx context.Context) (bool, map[string]interface{})
	refresh   func()
}

func newFrontend(serve cliutil.ServeFlags, tracer *obs.Tracer, logger *slog.Logger, events *obs.EventRing) (*frontend, error) {
	if err := serve.Validate(); err != nil {
		return nil, err
	}
	if events == nil {
		events = obs.NewEventRing(256)
	}
	f := &frontend{
		mux:            http.NewServeMux(),
		tracer:         tracer,
		logger:         logger,
		reg:            obs.Default,
		events:         events,
		requestTimeout: serve.RequestTimeout,
	}
	f.adm = resilience.NewAdmission(resilience.AdmissionConfig{
		MaxInflight:  serve.MaxInflight,
		MaxQueue:     serve.MaxQueue,
		QueueTimeout: serve.QueueTimeout,
		Registry:     f.reg,
	})
	f.readyGauge = f.reg.Gauge("scaleshift_ready", "1 when /readyz reports ready.")
	f.readyGauge.Set(1)

	f.handle("livez", "/livez", f.handleLivez)
	f.handle("readyz", "/readyz", f.handleReadyz)
	f.handle("metrics", "/metrics", f.handleMetrics)
	f.handle("traces", "/debug/traces", f.handleTraces)
	f.handle("events", "/debug/events", f.handleEvents)
	f.mux.Handle("/debug/vars", expvar.Handler())
	f.mux.HandleFunc("/debug/pprof/", pprof.Index)
	f.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	f.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	f.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	f.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return f, nil
}

func (f *frontend) ServeHTTP(w http.ResponseWriter, r *http.Request) { f.mux.ServeHTTP(w, r) }

// handle wraps a route with the request-logging and per-route metrics
// middleware.  Route label values are constant, so the counters are
// registered once here and recording stays allocation-free.
func (f *frontend) handle(name, pattern string, h http.HandlerFunc) {
	l := obs.Label{Key: "handler", Value: name}
	reqs := f.reg.Counter("scaleshift_http_requests_total", "HTTP requests served, by handler.", l)
	errs := f.reg.Counter("scaleshift_http_errors_total", "HTTP responses with status >= 400, by handler.", l)
	dur := f.reg.DurationHistogram("scaleshift_http_request_duration_seconds", "HTTP request latency, by handler.", l)
	f.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		elapsed := time.Since(start)
		reqs.Inc()
		dur.ObserveDuration(elapsed)
		if sw.status >= 400 {
			errs.Inc()
		}
		f.logger.Info("request",
			"method", r.Method, "path", r.URL.Path, "status", sw.status,
			"duration", elapsed, "remote", r.RemoteAddr)
	})
}

// guard is the serving-path middleware: it applies the per-request
// timeout (feeding the engine's cooperative cancellation, and bounding
// a coordinator's per-shard deadlines, so a stalled fleet still
// resolves within it), bounds the request body, and runs the request
// through the admission controller.  Shed requests get 429 with a
// Retry-After hint and never reach the handler.
func (f *frontend) guard(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), f.requestTimeout)
		defer cancel()
		r = r.WithContext(ctx)
		if r.Body != nil && r.Body != http.NoBody {
			r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
		}
		release, err := f.adm.Acquire(ctx)
		if err != nil {
			f.writeOverloaded(w, err)
			return
		}
		defer release()
		h(w, r)
	}
}

// writeOverloaded renders an admission rejection: 429, with a
// Retry-After header so polite clients back off instead of hammering.
func (f *frontend) writeOverloaded(w http.ResponseWriter, err error) {
	retryAfter := time.Second
	if oe := (*resilience.OverloadError)(nil); errors.As(err, &oe) {
		retryAfter = oe.RetryAfter
	}
	secs := int64((retryAfter + time.Second - 1) / time.Second)
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	f.writeError(w, http.StatusTooManyRequests, err)
}

// statusWriter captures the response status for logging and metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// writeJSON renders v; encoding failures after the header is out can
// only be logged.
func (f *frontend) writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.logger.Error("encoding response", "err", err)
	}
}

func (f *frontend) writeError(w http.ResponseWriter, status int, err error) {
	f.writeJSON(w, status, map[string]string{"error": err.Error()})
}

// handleLivez is pure liveness: the process is up and the mux answers.
// It never consults snapshots, shards, or drain state — a
// draining server is still alive, and restarting it because it is
// draining would be the bug.
func (f *frontend) handleLivez(w http.ResponseWriter, r *http.Request) {
	f.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: 200 only when this instance should
// receive traffic, by the mode's verdict — the process is healthy (see
// /livez), but routing to it right now may not be.
func (f *frontend) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ready, detail := f.readiness(r.Context())
	f.setReady(ready)
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	f.writeJSON(w, status, detail)
}

func (f *frontend) setReady(ready bool) {
	if ready {
		f.readyGauge.Set(1)
	} else {
		f.readyGauge.Set(0)
	}
}

func (f *frontend) updateReadyGauge() {
	ready, _ := f.readiness(context.Background())
	f.setReady(ready)
}

// SetDraining flips the drain flag /readyz reports; serve sets it when
// shutdown begins so load balancers stop routing here while in-flight
// requests finish.  Clearing it restores the gauge to the mode's
// current verdict.
func (f *frontend) SetDraining(v bool) {
	f.draining.Store(v)
	if v {
		f.setReady(false)
		return
	}
	f.updateReadyGauge()
}

func (f *frontend) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if f.refresh != nil {
		f.refresh()
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := f.reg.WritePrometheus(w); err != nil {
		f.logger.Error("writing metrics", "err", err)
	}
}

// handleTraces serves the retained traces.  ?id= fetches one; the
// list accepts ?min_ms= (only traces at least that slow) and ?error=1
// (only errored) filters, which compose conjunctively.
func (f *frontend) handleTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if id := q.Get("id"); id != "" {
		tr, ok := f.tracer.Get(id)
		if !ok {
			f.writeError(w, http.StatusNotFound, fmt.Errorf("trace %q not retained", id))
			return
		}
		f.writeJSON(w, http.StatusOK, tr)
		return
	}
	minMs := 0.0
	if v := q.Get("min_ms"); v != "" {
		m, err := strconv.ParseFloat(v, 64)
		if err != nil {
			f.writeError(w, http.StatusBadRequest, fmt.Errorf("parameter min_ms: %w", err))
			return
		}
		minMs = m
	}
	errOnly := q.Get("error") == "1"
	traces := f.tracer.Recent()
	if minMs > 0 || errOnly {
		filtered := traces[:0]
		for _, tr := range traces {
			if float64(tr.DurationNs)/1e6 < minMs {
				continue
			}
			if errOnly && !tr.Error {
				continue
			}
			filtered = append(filtered, tr)
		}
		traces = filtered
	}
	f.writeJSON(w, http.StatusOK, traces)
}

// serve listens on addr until ctx ends (SIGINT/SIGTERM), then flips
// /readyz to 503 so load balancers stop routing here and lets in-flight
// requests finish.  With eventLog set the wide events are teed to that
// JSONL file, which closes (flushing its queue) after the drain, so no
// served request's event is lost on shutdown.
func (f *frontend) serve(ctx context.Context, addr, eventLog string) error {
	if eventLog != "" {
		file, err := os.OpenFile(eventLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("-event-log %s: %w", eventLog, err)
		}
		sink := obs.NewEventLog(file, 1024)
		f.events.Tee(sink)
		defer func() {
			if err := sink.Close(); err != nil {
				f.logger.Warn("closing event log", "err", err)
			}
			if n := sink.Dropped(); n > 0 {
				f.logger.Warn("event log shed events under backpressure", "dropped", n)
			}
		}()
	}
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           f,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() {
		f.logger.Info("listening", "addr", addr)
		errc <- httpSrv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	f.logger.Info("shutting down")
	f.SetDraining(true)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
