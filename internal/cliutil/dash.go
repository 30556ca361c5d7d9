package cliutil

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"scaleshift/internal/obs"
)

// The sstop dashboard: a Prometheus text-exposition parser, windowed
// rate/quantile estimation over two successive scrapes, and a plain
// terminal frame renderer.  It lives here (not in cmd/sstop) so the
// server's own tests can drive the full poll-render path against a
// live httptest ssserve.

// Sample is one parsed exposition line.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// MetricSet is one scrape of /metrics.
type MetricSet struct {
	At      time.Time
	samples []Sample
}

// ParseMetrics reads the Prometheus text exposition format (the subset
// the obs registry emits: no timestamps, no exemplars).  Comment and
// blank lines are skipped; malformed lines are an error, because a
// scrape that half-parses would silently render wrong numbers.
func ParseMetrics(r io.Reader, at time.Time) (*MetricSet, error) {
	ms := &MetricSet{At: at}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, err
		}
		ms.samples = append(ms.samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return ms, nil
}

func parseSampleLine(line string) (Sample, error) {
	s := Sample{}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("metrics line %q: no value", line)
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if strings.HasPrefix(rest, "{") {
		labels, tail, err := parseLabels(rest)
		if err != nil {
			return s, fmt.Errorf("metrics line %q: %w", line, err)
		}
		s.Labels = labels
		rest = tail
	}
	v, err := parsePromValue(strings.TrimSpace(rest))
	if err != nil {
		return s, fmt.Errorf("metrics line %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

// parseLabels consumes a {k="v",...} block, honoring the \" \\ \n
// escapes of the text format, and returns the remainder of the line.
func parseLabels(in string) (map[string]string, string, error) {
	labels := make(map[string]string)
	i := 1 // past '{'
	for {
		for i < len(in) && (in[i] == ',' || in[i] == ' ') {
			i++
		}
		if i < len(in) && in[i] == '}' {
			return labels, in[i+1:], nil
		}
		eq := strings.IndexByte(in[i:], '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("label block: missing '='")
		}
		key := in[i : i+eq]
		i += eq + 1
		if i >= len(in) || in[i] != '"' {
			return nil, "", fmt.Errorf("label %s: missing opening quote", key)
		}
		i++
		var b strings.Builder
		for {
			if i >= len(in) {
				return nil, "", fmt.Errorf("label %s: unterminated value", key)
			}
			c := in[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' && i+1 < len(in) {
				i++
				switch in[i] {
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(in[i])
				}
				i++
				continue
			}
			b.WriteByte(c)
			i++
		}
		labels[key] = b.String()
	}
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// matches reports whether the sample carries every wanted label pair
// (subset semantics: extra labels on the sample are fine).
func (s *Sample) matches(name string, want map[string]string) bool {
	if s.Name != name {
		return false
	}
	for k, v := range want {
		if s.Labels[k] != v {
			return false
		}
	}
	return true
}

// Lookup returns the first sample matching name and the given label
// subset.
func (m *MetricSet) Lookup(name string, labels map[string]string) (float64, bool) {
	if m == nil {
		return 0, false
	}
	for i := range m.samples {
		if m.samples[i].matches(name, labels) {
			return m.samples[i].Value, true
		}
	}
	return 0, false
}

// Sum adds every sample matching name and the label subset — how a
// counter split by a reason label is totaled.
func (m *MetricSet) Sum(name string, labels map[string]string) float64 {
	if m == nil {
		return 0
	}
	var sum float64
	for i := range m.samples {
		if m.samples[i].matches(name, labels) {
			sum += m.samples[i].Value
		}
	}
	return sum
}

// Rate is the per-second increase of a (possibly label-split) counter
// between two scrapes; 0 when either scrape is missing or the counter
// reset.
func Rate(prev, cur *MetricSet, name string, labels map[string]string) float64 {
	if prev == nil || cur == nil {
		return 0
	}
	dt := cur.At.Sub(prev.At).Seconds()
	if dt <= 0 {
		return 0
	}
	d := cur.Sum(name, labels) - prev.Sum(name, labels)
	if d < 0 {
		return 0
	}
	return d / dt
}

// promBucket is one histogram bucket: Le in the exposition's native
// unit (seconds for duration histograms), cumulative Count.
type promBucket struct {
	le    float64
	count float64
}

// buckets gathers <name>_bucket samples matching the label subset,
// sorted by le.
func (m *MetricSet) buckets(name string, labels map[string]string) []promBucket {
	if m == nil {
		return nil
	}
	var out []promBucket
	bname := name + "_bucket"
	for i := range m.samples {
		s := &m.samples[i]
		if !s.matches(bname, labels) {
			continue
		}
		le, err := parsePromValue(s.Labels["le"])
		if err != nil {
			continue
		}
		out = append(out, promBucket{le: le, count: s.Value})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].le < out[j].le })
	return out
}

// Quantile estimates the q-quantile (0 < q < 1) of a histogram from
// the increase between two scrapes, so it reflects the last polling
// window rather than process lifetime.  With no prev scrape (or no
// observations in the window) it falls back to the lifetime histogram.
// The estimate interpolates linearly inside the winning bucket, which
// for the registry's log2 buckets bounds the error to the bucket width.
func Quantile(prev, cur *MetricSet, name string, labels map[string]string, q float64) (float64, bool) {
	bc := cur.buckets(name, labels)
	if len(bc) == 0 {
		return 0, false
	}
	diff := make([]promBucket, len(bc))
	copy(diff, bc)
	if prev != nil {
		bp := prev.buckets(name, labels)
		prevAt := make(map[float64]float64, len(bp))
		for _, b := range bp {
			prevAt[b.le] = b.count
		}
		for i := range diff {
			diff[i].count -= prevAt[diff[i].le]
		}
	}
	total := diff[len(diff)-1].count
	if total <= 0 {
		diff = bc // idle window: fall back to lifetime
		total = diff[len(diff)-1].count
		if total <= 0 {
			return 0, false
		}
	}
	target := q * total
	var lower, prevCum float64
	for _, b := range diff {
		if b.count >= target {
			if math.IsInf(b.le, 1) {
				return lower, true
			}
			if b.count > prevCum {
				return lower + (target-prevCum)/(b.count-prevCum)*(b.le-lower), true
			}
			return b.le, true
		}
		if !math.IsInf(b.le, 1) {
			lower = b.le
			prevCum = b.count
		}
	}
	return lower, true
}

// eventsEnvelope mirrors the /debug/events response body.
type eventsEnvelope struct {
	Events      []*obs.Event `json:"events"`
	Missed      uint64       `json:"missed"`
	Next        uint64       `json:"next"`
	Emitted     uint64       `json:"emitted"`
	Overwritten uint64       `json:"overwritten"`
}

// Dash accumulates scrapes and events and renders terminal frames.
type Dash struct {
	Base string // server base URL, shown in the header

	prev, cur *MetricSet
	cursor    uint64
	recent    []*obs.Event // bounded window of request-level events
}

// maxDashEvents bounds the retained event window the slow-query panel
// ranks over.
const maxDashEvents = 256

// ObserveMetrics feeds one scrape.
func (d *Dash) ObserveMetrics(ms *MetricSet) {
	d.prev, d.cur = d.cur, ms
}

// ObserveEvents feeds one /debug/events page, keeping request-level
// events (batch slots are per-slot detail, not requests).
func (d *Dash) ObserveEvents(events []*obs.Event) {
	for _, e := range events {
		if e == nil || e.Kind == "batch_slot" {
			continue
		}
		d.recent = append(d.recent, e)
	}
	if n := len(d.recent) - maxDashEvents; n > 0 {
		d.recent = append(d.recent[:0], d.recent[n:]...)
	}
}

// Poll fetches /metrics and the next /debug/events page from the
// server and feeds both panels.
func (d *Dash) Poll(ctx context.Context, client *http.Client, now time.Time) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.Base+"/metrics", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	ms, err := ParseMetrics(resp.Body, now)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("parsing /metrics: %w", err)
	}
	d.ObserveMetrics(ms)

	url := fmt.Sprintf("%s/debug/events?since=%d", d.Base, d.cursor)
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err = client.Do(req)
	if err != nil {
		return err
	}
	var env eventsEnvelope
	err = json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("decoding /debug/events: %w", err)
	}
	d.cursor = env.Next
	d.ObserveEvents(env.Events)
	return nil
}

// Render writes one dashboard frame.
func (d *Dash) Render(w io.Writer) {
	cur := d.cur
	at := "-"
	if cur != nil {
		at = cur.At.Format(time.RFC3339)
	}
	version := "?"
	if cur != nil {
		for _, s := range cur.samples {
			if s.Name == "scaleshift_build_info" {
				version = s.Labels["version"]
				break
			}
		}
	}
	ready, _ := cur.Lookup("scaleshift_ready", nil)
	gen, _ := cur.Lookup("scaleshift_snapshot_generation", nil)
	fmt.Fprintf(w, "ssserve %s  version=%s  %s\n", d.Base, version, at)
	indexBytes, _ := cur.Lookup("scaleshift_index_bytes", nil)
	indexPages, _ := cur.Lookup("scaleshift_index_pages", nil)
	fmt.Fprintf(w, "ready=%.0f  snapshot_gen=%.0f  index=%s in %.0f pages\n\n",
		ready, gen, fmtBytes(indexBytes), indexPages)

	fmt.Fprintf(w, "%-10s %9s %11s %11s %9s\n", "endpoint", "qps", "p50", "p99", "err/s")
	for _, h := range []string{"search", "append", "metrics", "events", "traces"} {
		l := map[string]string{"handler": h}
		if _, ok := cur.Lookup("scaleshift_http_requests_total", l); !ok {
			continue
		}
		qps := Rate(d.prev, cur, "scaleshift_http_requests_total", l)
		p50, _ := Quantile(d.prev, cur, "scaleshift_http_request_duration_seconds", l, 0.50)
		p99, _ := Quantile(d.prev, cur, "scaleshift_http_request_duration_seconds", l, 0.99)
		errs := Rate(d.prev, cur, "scaleshift_http_errors_total", l)
		fmt.Fprintf(w, "%-10s %9.1f %11s %11s %9.1f\n", h, qps, fmtSeconds(p50), fmtSeconds(p99), errs)
	}
	fmt.Fprintln(w)

	shed := Rate(d.prev, cur, "scaleshift_admission_shed_total", nil)
	shedTotal := cur.Sum("scaleshift_admission_shed_total", nil)
	inflight, _ := cur.Lookup("scaleshift_admission_inflight", nil)
	depth, _ := cur.Lookup("scaleshift_admission_queue_depth", nil)
	fmt.Fprintf(w, "overload: shed/s=%.1f (total %.0f)  inflight=%.0f queued=%.0f\n",
		shed, shedTotal, inflight, depth)

	if _, ok := cur.Lookup("scaleshift_ingest_generation", nil); ok {
		deltaW, _ := cur.Lookup("scaleshift_ingest_delta_windows", nil)
		frozen, _ := cur.Lookup("scaleshift_ingest_frozen_segments", nil)
		igen, _ := cur.Lookup("scaleshift_ingest_generation", nil)
		walB, _ := cur.Lookup("scaleshift_wal_bytes", nil)
		age, _ := cur.Lookup("scaleshift_checkpoint_age_seconds", nil)
		ckpts := cur.Sum("scaleshift_checkpoints_total", nil)
		// Bytes per checkpoint: new segment files plus the manifest, on
		// average over the process's checkpoints.
		perCkpt := 0.0
		if ckpts > 0 {
			perCkpt = cur.Sum("scaleshift_checkpoint_bytes_total", nil) / ckpts
		}
		fmt.Fprintf(w, "ingest: delta_windows=%.0f frozen=%.0f gen=%.0f wal=%s ckpt_age=%s checkpoints=%.0f ckpt_bytes=%s/ckpt\n",
			deltaW, frozen, igen, fmtBytes(walB), fmtSeconds(age), ckpts, fmtBytes(perCkpt))
	}

	if total, ok := cur.Lookup("scaleshift_cluster_shards", nil); ok {
		okN, _ := cur.Lookup("scaleshift_cluster_shards_ok", nil)
		failN, _ := cur.Lookup("scaleshift_cluster_shards_failed", nil)
		full := Rate(d.prev, cur, "scaleshift_cluster_scatter_total", map[string]string{"result": "full"})
		part := Rate(d.prev, cur, "scaleshift_cluster_scatter_total", map[string]string{"result": "partial"})
		none := Rate(d.prev, cur, "scaleshift_cluster_scatter_total", map[string]string{"result": "none"})
		retries := cur.Sum("scaleshift_cluster_shard_retries_total", nil)
		hedges := cur.Sum("scaleshift_cluster_shard_hedges_total", nil)
		fmt.Fprintf(w, "cluster: shards=%.0f ok=%.0f failed=%.0f  gather/s full=%.1f partial=%.1f none=%.1f  retries=%.0f hedges=%.0f\n",
			total, okN, failN, full, part, none, retries, hedges)
	}

	if slow := d.slowest(5); len(slow) > 0 {
		fmt.Fprintf(w, "\nslow queries (last %d events):\n", len(d.recent))
		for _, e := range slow {
			fmt.Fprintf(w, "  %9s  %-12s %-12s %-16s %s\n",
				fmtSeconds(float64(e.DurationNs)/1e9), e.Kind, e.Outcome, e.TraceID, truncate(e.Query, 48))
		}
	}
}

// slowest ranks the retained request-level events by duration.
func (d *Dash) slowest(n int) []*obs.Event {
	sorted := make([]*obs.Event, len(d.recent))
	copy(sorted, d.recent)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].DurationNs > sorted[j].DurationNs })
	if len(sorted) > n {
		sorted = sorted[:n]
	}
	return sorted
}

func fmtSeconds(s float64) string {
	switch {
	case s <= 0:
		return "0"
	case s < 1e-3:
		return fmt.Sprintf("%.0fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.1fms", s*1e3)
	case s < 120:
		return fmt.Sprintf("%.1fs", s)
	}
	return time.Duration(s * float64(time.Second)).Round(time.Second).String()
}

func fmtBytes(b float64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", b/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", b/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", b/(1<<10))
	}
	return fmt.Sprintf("%.0fB", b)
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

// RunDash is the sstop main loop: poll, render, sleep.  frames > 0
// stops after that many frames (the -once flag is frames=1); clear
// prefixes each frame with an ANSI home+clear so a terminal shows a
// refreshing dashboard.
func RunDash(ctx context.Context, client *http.Client, base string, w io.Writer, interval time.Duration, frames int, clear bool) error {
	d := &Dash{Base: strings.TrimRight(base, "/")}
	for n := 0; ; n++ {
		if err := d.Poll(ctx, client, time.Now()); err != nil {
			return err
		}
		if clear {
			fmt.Fprint(w, "\x1b[H\x1b[2J")
		}
		d.Render(w)
		if frames > 0 && n+1 >= frames {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(interval):
		}
	}
}
