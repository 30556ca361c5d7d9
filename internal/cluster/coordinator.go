package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"scaleshift/internal/obs"
)

// CoordinatorConfig wires a Coordinator.  Manifest and Addrs are
// required and must agree in length; Shard is the per-shard client
// template (ID and BaseURL are filled per shard).
type CoordinatorConfig struct {
	Manifest *Manifest
	// Addrs is positional: Addrs[i] serves manifest shard i.  A plain
	// host:port is normalized to http://host:port.
	Addrs []string
	// Shard is the client template applied to every shard.
	Shard ShardConfig
	// ConnectTimeout bounds startup validation: how long the
	// coordinator polls the fleet's /shardinfo before giving up.
	// Default 30s.
	ConnectTimeout time.Duration
	// ProbeTimeout bounds one /readyz probe of one shard.  Default 1s.
	ProbeTimeout time.Duration
	Registry     *obs.Registry
	Logger       *slog.Logger
}

// ShardOutcome is one shard's slice of a gather: which fault-domain
// state it ended in and the attempt accounting behind it.  It is also
// the shard's entry in a response's coverage block.
type ShardOutcome struct {
	ID       int           `json:"id"`
	Addr     string        `json:"addr"`
	State    string        `json:"state"` // ok | failed
	TraceID  string        `json:"trace_id,omitempty"`
	Attempts int           `json:"attempts,omitempty"`
	Hedged   bool          `json:"hedged,omitempty"`
	Elapsed  time.Duration `json:"elapsed_ns,omitempty"`
	Error    string        `json:"error,omitempty"`
}

// GatherResult is one scatter-gather answer with its coverage.
type GatherResult struct {
	// Matches is the merged answer's first limit rows (all of them
	// without a limit) and Total the size of the whole merged answer
	// over the covered shards.
	Matches []WireMatch
	Total   int
	Stats   WireStats
	Eps     float64
	// ShardResults is the sum of the covered shards' result counts —
	// the Results term that keeps the summed stats ledger's
	// Candidates == FalseAlarms + CostRejected + Results invariant
	// intact even when a k-NN merge keeps fewer than the sum.
	ShardResults int
	Coverage     []ShardOutcome
	OK           int
	Failed       int
	// ClientErr is set when every shard rejected the request as the
	// caller's own fault (4xx); the coordinator should surface that
	// status instead of reporting a coverage failure.
	ClientErr *ShardStatusError
}

// Partial reports whether any fault domain is missing from the answer.
func (g *GatherResult) Partial() bool { return g.Failed > 0 }

// CoverageWire is the gather's coverage block.
func (g *GatherResult) CoverageWire() *CoverageWire {
	return &CoverageWire{Complete: g.Failed == 0, OK: g.OK, Failed: g.Failed, Shards: g.Coverage}
}

// ShardReady is one shard's slice of the coordinator's quorum /readyz.
type ShardReady struct {
	ID      int    `json:"id"`
	Addr    string `json:"addr"`
	Ready   bool   `json:"ready"`
	Breaker string `json:"breaker"`
	Error   string `json:"error,omitempty"`
}

// Coordinator is the scatter-gather engine: it owns one Shard client
// per fault domain, validates the fleet against the manifest at
// startup, fans queries out, and merges answers exactly.
type Coordinator struct {
	man       *Manifest
	shards    []*Shard
	info      []ShardInfoWire
	windowLen int
	coeffs    int
	normScale float64
	logger    *slog.Logger
	probeTO   time.Duration

	okGauge     *obs.Gauge
	failedGauge *obs.Gauge
	scatterFull *obs.Counter
	scatterPart *obs.Counter
	scatterNone *obs.Counter
}

// NewCoordinator builds the shard clients and validates the live fleet
// against the manifest: it polls every shard's /shardinfo until all
// answer or ConnectTimeout elapses, then checks each shard's
// fingerprint, sequence count, and value count against its manifest
// entry and that all shards agree on window length and coefficient
// count.  A mis-wired -shard-addrs list (one shard named twice,
// addresses swapped, a stale artifact, a foreign process on the port) is
// a startup error here, never a silently-remapped answer later.
func NewCoordinator(ctx context.Context, cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Manifest == nil {
		return nil, fmt.Errorf("cluster: coordinator needs a manifest")
	}
	if err := cfg.Manifest.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: manifest invalid: %w", err)
	}
	if len(cfg.Addrs) != len(cfg.Manifest.Shards) {
		return nil, fmt.Errorf("cluster: manifest has %d shards but %d addresses were given",
			len(cfg.Manifest.Shards), len(cfg.Addrs))
	}
	first := make(map[string]int, len(cfg.Addrs))
	for i, addr := range cfg.Addrs {
		url := normalizeAddr(addr)
		if j, dup := first[url]; dup {
			return nil, fmt.Errorf("cluster: shard addresses %d (%s) and %d (%s) both name %s; each manifest shard needs its own", j, cfg.Addrs[j], i, addr, url)
		}
		first[url] = i
	}
	if cfg.ConnectTimeout <= 0 {
		cfg.ConnectTimeout = 30 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = time.Second
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.Default
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	c := &Coordinator{
		man:     cfg.Manifest,
		shards:  make([]*Shard, len(cfg.Addrs)),
		info:    make([]ShardInfoWire, len(cfg.Addrs)),
		logger:  cfg.Logger,
		probeTO: cfg.ProbeTimeout,
		okGauge: cfg.Registry.Gauge("scaleshift_cluster_shards_ok",
			"Shards that fully answered the most recent gather."),
		failedGauge: cfg.Registry.Gauge("scaleshift_cluster_shards_failed",
			"Shards missing from the most recent gather."),
		scatterFull: cfg.Registry.Counter("scaleshift_cluster_scatter_total",
			"Scatter-gather requests by coverage result.", obs.Label{Key: "result", Value: "full"}),
		scatterPart: cfg.Registry.Counter("scaleshift_cluster_scatter_total",
			"Scatter-gather requests by coverage result.", obs.Label{Key: "result", Value: "partial"}),
		scatterNone: cfg.Registry.Counter("scaleshift_cluster_scatter_total",
			"Scatter-gather requests by coverage result.", obs.Label{Key: "result", Value: "none"}),
	}
	cfg.Registry.Gauge("scaleshift_cluster_shards",
		"Fault domains in the cluster topology.").Set(float64(len(cfg.Addrs)))
	for i, addr := range cfg.Addrs {
		sc := cfg.Shard
		sc.ID = i
		sc.BaseURL = normalizeAddr(addr)
		if sc.Registry == nil {
			sc.Registry = cfg.Registry
		}
		c.shards[i] = NewShard(sc)
	}
	if err := c.connect(ctx, cfg.ConnectTimeout); err != nil {
		return nil, err
	}
	return c, nil
}

func normalizeAddr(addr string) string {
	if strings.Contains(addr, "://") {
		return strings.TrimSuffix(addr, "/")
	}
	return "http://" + addr
}

// connect polls /shardinfo until every shard has been validated or the
// deadline passes.
func (c *Coordinator) connect(ctx context.Context, timeout time.Duration) error {
	cctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	pending := make(map[int]error, len(c.shards))
	for i := range c.shards {
		pending[i] = fmt.Errorf("not yet reached")
	}
	for {
		for i := range c.shards {
			if _, waiting := pending[i]; !waiting {
				continue
			}
			var info ShardInfoWire
			if _, err := c.shards[i].GetJSON(cctx, "/shardinfo", nil, &info); err != nil {
				pending[i] = err
				continue
			}
			if err := c.validateShard(i, info); err != nil {
				return err // identity mismatch: retrying cannot fix a wrong topology
			}
			c.info[i] = info
			delete(pending, i)
		}
		if len(pending) == 0 {
			break
		}
		select {
		case <-cctx.Done():
			for id, err := range pending {
				return fmt.Errorf("cluster: shard %d (%s) not validated within %s: %w",
					id, c.shards[id].Addr(), timeout, err)
			}
		case <-time.After(250 * time.Millisecond):
		}
	}
	// Cross-shard agreement: the fleet must share one window geometry
	// or per-shard answers are not comparable at all.
	c.windowLen = c.info[0].WindowLen
	c.coeffs = c.info[0].Coefficients
	var wsum, nsum float64
	for i, info := range c.info {
		if info.WindowLen != c.windowLen || info.Coefficients != c.coeffs {
			return fmt.Errorf("cluster: shard %d geometry (window=%d fc=%d) disagrees with shard 0 (window=%d fc=%d)",
				i, info.WindowLen, info.Coefficients, c.windowLen, c.coeffs)
		}
		wsum += float64(info.Windows)
		nsum += float64(info.Windows) * info.NormScale
	}
	if wsum > 0 {
		c.normScale = nsum / wsum
	} else {
		c.normScale = 1
	}
	c.logger.Info("cluster validated",
		"shards", len(c.shards), "sequences", c.man.Sequences,
		"window", c.windowLen, "norm_scale", c.normScale)
	return nil
}

// validateShard pins addr ↔ manifest-shard identity.  A fingerprint
// that does not match says whose data answered: another manifest shard's
// (the addresses are swapped), or none (a stale or foreign process on
// the port).
func (c *Coordinator) validateShard(i int, info ShardInfoWire) error {
	want := c.man.Shards[i]
	if info.Fingerprint != want.Fingerprint {
		why := "no manifest shard has it: a stale or foreign process is listening there"
		for j, sh := range c.man.Shards {
			if sh.Fingerprint == info.Fingerprint {
				why = fmt.Sprintf("it is manifest shard %d's: the address serves shard %d, not shard %d", j, j, i)
				break
			}
		}
		return fmt.Errorf("cluster: shard %d (%s) fingerprint %08x does not match manifest %08x — %s",
			i, c.shards[i].Addr(), info.Fingerprint, want.Fingerprint, why)
	}
	if info.Sequences != len(want.Seqs) {
		return fmt.Errorf("cluster: shard %d (%s) holds %d sequences, manifest says %d",
			i, c.shards[i].Addr(), info.Sequences, len(want.Seqs))
	}
	if info.Values != want.Values {
		return fmt.Errorf("cluster: shard %d (%s) holds %d values, manifest says %d",
			i, c.shards[i].Addr(), info.Values, want.Values)
	}
	return nil
}

// NumShards returns the topology size.
func (c *Coordinator) NumShards() int { return len(c.shards) }

// WindowLen returns the fleet's agreed window length.
func (c *Coordinator) WindowLen() int { return c.windowLen }

// NormScale returns the window-weighted mean of the shards' norm
// scales — the denominator the coordinator uses to resolve eps_frac
// into the absolute eps it fans out (shards must all search the same
// absolute radius, or the union stops being exact).
func (c *Coordinator) NormScale() float64 { return c.normScale }

// Manifest returns the validated partition record.
func (c *Coordinator) Manifest() *Manifest { return c.man }

// Sequences returns the cluster-wide sequence count.
func (c *Coordinator) Sequences() int { return c.man.Sequences }

// ProbeReady polls every shard's /readyz concurrently and reports the
// per-shard readiness the coordinator's quorum /readyz is built from.
func (c *Coordinator) ProbeReady(ctx context.Context) []ShardReady {
	out := make([]ShardReady, len(c.shards))
	var wg sync.WaitGroup
	for i, sh := range c.shards {
		out[i] = ShardReady{ID: i, Addr: sh.Addr(), Breaker: sh.BreakerState().String()}
		wg.Add(1)
		go func(i int, sh *Shard) {
			defer wg.Done()
			ready, _, err := sh.Probe(ctx, c.probeTO)
			out[i].Ready = ready
			if err != nil {
				out[i].Error = err.Error()
			}
		}(i, sh)
	}
	wg.Wait()
	return out
}

// Scatter fans one search to every shard and gathers the exact merge.
// params must already carry an absolute eps (or nn for k-NN) and an
// explicit values vector, and may carry the caller's row limit (absent
// or 0: all rows); knn > 0 selects the k-NN merge.  traceparent, when
// non-empty, is forwarded verbatim so each shard roots its trace under
// the coordinator's trace id.
func (c *Coordinator) Scatter(ctx context.Context, params url.Values, knn int, traceparent string) *GatherResult {
	q := url.Values{}
	for k, vs := range params {
		q[k] = vs
	}
	// A range query's limit travels to the shards.  Each answers with
	// its first limit rows in (seq, start) order and the count of all
	// its matches; a shard's sequence list is ascending in the manifest,
	// so its local order is the global order, the global first limit rows
	// are among the shards' first limit rows, and the counts add up.  A
	// k-NN merge needs every shard's whole top-k — a shard-side cut could
	// break a distance tie differently from the merge — so there the
	// limit applies to the merged list alone.  (A malformed limit is
	// forwarded as it is and comes back as every shard's 400.)
	limit, _ := strconv.Atoi(q.Get("limit"))
	if knn > 0 || q.Get("limit") == "" {
		q.Set("limit", "0")
	}
	pathQuery := "/search?" + q.Encode()
	var header http.Header
	if traceparent != "" {
		header = http.Header{obs.TraceparentHeader: []string{traceparent}}
	}

	type reply struct {
		resp SearchWire
		info CallInfo
		err  error
	}
	replies := make([]reply, len(c.shards))
	var wg sync.WaitGroup
	for i, sh := range c.shards {
		wg.Add(1)
		go func(i int, sh *Shard) {
			defer wg.Done()
			replies[i].info, replies[i].err = sh.GetJSON(ctx, pathQuery, header, &replies[i].resp)
		}(i, sh)
	}
	wg.Wait()

	g := &GatherResult{Coverage: make([]ShardOutcome, len(c.shards))}
	lists := make([][]WireMatch, 0, len(c.shards))
	clientFaults := 0
	for i := range replies {
		r := &replies[i]
		out := &g.Coverage[i]
		out.ID = i
		out.Addr = c.shards[i].Addr()
		out.Attempts = r.info.Attempts
		out.Hedged = r.info.Hedged
		out.Elapsed = r.info.Elapsed
		if r.err == nil {
			if err := c.remap(i, r.resp.Matches); err != nil {
				// A shard answering outside its manifest slice is a
				// protocol violation; trusting it would corrupt the
				// merge, so its fault domain counts as failed.
				r.err = err
			}
		}
		if r.err != nil {
			out.State = "failed"
			out.Error = r.err.Error()
			g.Failed++
			if ClientFault(r.err) {
				clientFaults++
				if g.ClientErr == nil {
					var se *ShardStatusError
					if asShardStatus(r.err, &se) {
						g.ClientErr = se
					}
				}
			}
			continue
		}
		out.TraceID = r.resp.TraceID
		out.State = "ok"
		g.OK++
		if g.Eps == 0 {
			g.Eps = r.resp.Eps
		}
		g.ShardResults += r.resp.Total
		g.Stats.Candidates += r.resp.Stats.Candidates
		g.Stats.FalseAlarms += r.resp.Stats.FalseAlarms
		g.Stats.CostRejected += r.resp.Stats.CostRejected
		g.Stats.IndexNodeReads += r.resp.Stats.IndexNodeReads
		g.Stats.DataPageReads += r.resp.Stats.DataPageReads
		g.Stats.PlanNs += r.resp.Stats.PlanNs
		g.Stats.ProbeNs += r.resp.Stats.ProbeNs
		g.Stats.VerifyNs += r.resp.Stats.VerifyNs
		lists = append(lists, r.resp.Matches)
	}
	if g.ClientErr != nil && clientFaults != len(c.shards) {
		// Only a unanimous rejection proves the request itself was
		// bad; a lone 4xx from one shard of a healthy gather is that
		// shard misbehaving, not the caller.
		g.ClientErr = nil
	}
	if knn > 0 {
		g.Matches = MergeKNN(lists, knn)
		g.Total = len(g.Matches)
	} else {
		g.Matches = MergeRange(lists)
		// Every row the merge dropped as a duplicate is one the shards
		// counted twice.
		dropped := -len(g.Matches)
		for _, ms := range lists {
			dropped += len(ms)
		}
		g.Total = g.ShardResults - dropped
	}
	if limit > 0 && len(g.Matches) > limit {
		g.Matches = g.Matches[:limit]
	}
	c.okGauge.Set(float64(g.OK))
	c.failedGauge.Set(float64(g.Failed))
	switch {
	case g.Failed == 0:
		c.scatterFull.Inc()
	case g.Failed < len(c.shards):
		c.scatterPart.Inc()
	default:
		c.scatterNone.Inc()
	}
	return g
}

func asShardStatus(err error, out **ShardStatusError) bool {
	for err != nil {
		if se, ok := err.(*ShardStatusError); ok {
			*out = se
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// remap rewrites shard-local sequence ids to global ones in place,
// rejecting ids outside the shard's manifest slice.
func (c *Coordinator) remap(shard int, ms []WireMatch) error {
	seqs := c.man.Shards[shard].Seqs
	for i := range ms {
		local := ms[i].Seq
		if local < 0 || local >= len(seqs) {
			return fmt.Errorf("shard %d returned local sequence %d outside its %d-sequence slice",
				shard, local, len(seqs))
		}
		ms[i].Seq = seqs[local]
	}
	return nil
}

// Window fills dst with raw values of a global sequence from its owner
// shard — how the coordinator resolves a seq/start-addressed query
// into the explicit value vector it fans out.  If the owner's fault
// domain is down, the query cannot be resolved at all (the bytes live
// nowhere else); callers surface that as unavailable rather than
// guessing.
func (c *Coordinator) Window(ctx context.Context, globalSeq, start int, dst []float64) error {
	shard, local, err := c.man.Owner(globalSeq)
	if err != nil {
		return err
	}
	var ww WindowWire
	if _, err := c.shards[shard].GetJSON(ctx,
		fmt.Sprintf("/window?seq=%d&start=%d&len=%d", local, start, len(dst)), nil, &ww); err != nil {
		return fmt.Errorf("resolving sequence %d on shard %d: %w", globalSeq, shard, err)
	}
	if len(ww.Values) != len(dst) {
		return fmt.Errorf("shard %d returned %d values for a %d-value window", shard, len(ww.Values), len(dst))
	}
	copy(dst, ww.Values)
	return nil
}
