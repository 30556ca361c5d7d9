package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"scaleshift/internal/cliutil"
	"scaleshift/internal/cluster"
	"scaleshift/internal/obs"
	"scaleshift/internal/vec"
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

// coordConfig assembles a coordinator.
type coordConfig struct {
	coord  *cluster.Coordinator
	tracer *obs.Tracer
	logger *slog.Logger
	serve  cliutil.ServeFlags
	events *obs.EventRing // nil gets a default ring
	quorum float64        // readiness fraction, (0, 1]
}

// coordServer is the coordinator mode of the frontend: its /search is
// the scatter-gather engine instead of a local index snapshot, and its
// readiness is a quorum of the fleet's.
type coordServer struct {
	*frontend
	coord  *cluster.Coordinator
	quorum float64
}

func newCoordServer(cfg coordConfig) (*coordServer, error) {
	if cfg.quorum <= 0 || cfg.quorum > 1 {
		return nil, fmt.Errorf("ready quorum %g must be in (0, 1]", cfg.quorum)
	}
	f, err := newFrontend(cfg.serve, cfg.tracer, cfg.logger, cfg.events)
	if err != nil {
		return nil, err
	}
	s := &coordServer{frontend: f, coord: cfg.coord, quorum: cfg.quorum}
	f.readiness = s.readiness
	s.handle("search", "/search", s.instrument("search", s.guard(s.handleSearch)))
	s.handle("healthz", "/healthz", s.handleHealthz)
	return s, nil
}

func (s *coordServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]interface{}{
		"status": "ok",
		"mode":   "coordinator",
		"shards": s.coord.NumShards(),
	})
}

// readiness is quorum readiness: ready iff the coordinator is not
// draining and at least the configured fraction of shards report ready.
// The body carries every shard's state so an operator (or the soak
// harness) can see exactly which fault domain is dragging readiness.
func (s *coordServer) readiness(ctx context.Context) (bool, map[string]interface{}) {
	probes := s.coord.ProbeReady(ctx)
	readyShards := 0
	for _, p := range probes {
		if p.Ready {
			readyShards++
		}
	}
	frac := float64(readyShards) / float64(len(probes))
	draining := s.draining.Load()
	ready := !draining && frac >= s.quorum
	return ready, map[string]interface{}{
		"ready":        ready,
		"draining":     draining,
		"mode":         "coordinator",
		"quorum":       s.quorum,
		"shards_ready": readyShards,
		"shards_total": len(probes),
		"shards":       probes,
	}
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

	root.SetAttr("query", describe)
	start := time.Now()
	g := s.coord.Scatter(ctx, params, knn, downstream)
	elapsed := time.Since(start)

	root.SetInt("matches", int64(g.Total))
	root.SetInt("shards_failed", int64(g.Failed))
	if g.Failed > 0 {
		root.SetAttr("coverage", "partial")
	}
	root.End()
	s.fillDraft(ctx, root, describe, g)

	// Status is the coverage contract.  A unanimous shard-side 4xx is
	// the caller's own error; total coverage loss is 503; any missing
	// fault domain makes the (exact, but incomplete) answer a 206.
	cov := g.CoverageWire()
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
		if d := eventDraftFrom(ctx); d != nil {
			d.outcome = "partial"
		}
	}
	s.writeJSON(w, status, cluster.SearchWire{
		TraceID:   traceID,
		Query:     describe,
		Eps:       g.Eps,
		ElapsedNs: elapsed.Nanoseconds(),
		Total:     g.Total,
		Matches:   g.Matches,
		Truncated: g.Total > len(g.Matches),
		Stats:     g.Stats,
		Coverage:  cov,
	})
}

// fillDraft records the gather into the request's wide-event draft.
func (s *coordServer) fillDraft(ctx context.Context, root *obs.Span, describe string, g *cluster.GatherResult) {
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
	d.shards = make([]obs.EventShard, len(g.Coverage))
	for i, o := range g.Coverage {
		d.shards[i] = obs.EventShard{
			ID: o.ID, State: o.State, TraceID: o.TraceID,
			Attempts: o.Attempts, Hedged: o.Hedged,
			DurationNs: o.Elapsed.Nanoseconds(), Error: o.Error,
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
	q, err := decodeSearchQuery(p, s.coord.NormScale())
	if err != nil {
		return nil, "", 0, err
	}
	params = maps.Clone(p)

	// Query vector: pass an explicit values= through unparsed (every
	// shard parses it, and rejects it alike); resolve seq/start against
	// the owner shard and rewrite.
	if values := p.Get("values"); values != "" {
		describe = fmt.Sprintf("%d explicit values", strings.Count(values, ",")+1)
	} else if p.Get("seq") != "" || p.Get("start") != "" {
		ref, err := parseWindowRef(p, s.coord.WindowLen())
		if err != nil {
			return nil, "", 0, err
		}
		vals, err := ref.fetch(func(seq, start, _ int, dst vec.Vector) error {
			return s.coord.Window(ctx, seq, start, dst)
		})
		if err != nil {
			var down *cluster.ShardDownError
			if errors.As(err, &down) {
				// The bytes live only on the owner shard; with that fault
				// domain gone the query cannot be resolved at all.
				return nil, "", 0, &unavailableError{err: err}
			}
			return nil, "", 0, err
		}
		buf := make([]byte, 0, 24*len(vals))
		for i, v := range vals {
			if i > 0 {
				buf = append(buf, ',')
			}
			// 'g'/-1 is the shortest representation that parses back to
			// the identical float64, so the resolved window reaches every
			// shard bit-exact.
			buf = strconv.AppendFloat(buf, ref.scale*v+ref.shift, 'g', -1, 64)
		}
		params.Set("values", string(buf))
		params.Del("seq")
		params.Del("start")
		params.Del("scale")
		params.Del("shift")
		describe = ref.String()
	} else {
		return nil, "", 0, fmt.Errorf("provide seq=&start= or values=")
	}

	// Epsilon: eps_frac is resolved against the cluster-wide norm scale;
	// the shards search the absolute radius.
	params.Set("eps", strconv.FormatFloat(q.Eps, 'g', -1, 64))
	params.Del("eps_frac")
	params.Set("limit", strconv.Itoa(q.Limit))
	return params, describe, q.K, nil
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
