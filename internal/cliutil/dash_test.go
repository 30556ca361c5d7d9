package cliutil

import (
	"math"
	"strings"
	"testing"
	"time"

	"scaleshift/internal/obs"
)

const sampleExposition = `# HELP scaleshift_http_requests_total HTTP requests served, by handler.
# TYPE scaleshift_http_requests_total counter
scaleshift_http_requests_total{handler="search"} 100
scaleshift_http_requests_total{handler="append"} 40
scaleshift_http_errors_total{handler="search"} 4
# TYPE scaleshift_http_request_duration_seconds histogram
scaleshift_http_request_duration_seconds_bucket{handler="search",le="0.001"} 50
scaleshift_http_request_duration_seconds_bucket{handler="search",le="0.002"} 90
scaleshift_http_request_duration_seconds_bucket{handler="search",le="+Inf"} 100
scaleshift_http_request_duration_seconds_sum{handler="search"} 0.5
scaleshift_http_request_duration_seconds_count{handler="search"} 100
scaleshift_admission_shed_total{reason="queue_full"} 3
scaleshift_admission_shed_total{reason="deadline"} 2
scaleshift_ready 1
scaleshift_index_pages 32690
scaleshift_index_bytes 19363672
scaleshift_build_info{version="abc123",go_version="go1.22"} 1
weird_label{msg="a \"quoted\" value,with=punct\nand newline"} 7
`

func parseSample(t *testing.T, at time.Time) *MetricSet {
	t.Helper()
	ms, err := ParseMetrics(strings.NewReader(sampleExposition), at)
	if err != nil {
		t.Fatalf("ParseMetrics: %v", err)
	}
	return ms
}

func TestParseMetrics(t *testing.T) {
	ms := parseSample(t, time.Unix(100, 0))
	if got, ok := ms.Lookup("scaleshift_http_requests_total", map[string]string{"handler": "search"}); !ok || got != 100 {
		t.Fatalf("search requests = %v, %v; want 100, true", got, ok)
	}
	if got, ok := ms.Lookup("scaleshift_ready", nil); !ok || got != 1 {
		t.Fatalf("ready = %v, %v", got, ok)
	}
	// Subset matching: no labels matches the first sample of the name.
	if got := ms.Sum("scaleshift_admission_shed_total", nil); got != 5 {
		t.Fatalf("shed sum = %v, want 5", got)
	}
	if got, ok := ms.Lookup("weird_label", map[string]string{"msg": "a \"quoted\" value,with=punct\nand newline"}); !ok || got != 7 {
		t.Fatalf("escaped label lookup = %v, %v", got, ok)
	}
	if _, ok := ms.Lookup("scaleshift_http_requests_total", map[string]string{"handler": "nope"}); ok {
		t.Fatal("lookup with unmatched label subset should miss")
	}
}

func TestParseMetricsRejectsGarbage(t *testing.T) {
	for _, line := range []string{
		"no_value_here",
		`bad_label{x=1} 2`,
		`unterminated{x="y 2`,
		"name not_a_number",
	} {
		if _, err := ParseMetrics(strings.NewReader(line+"\n"), time.Now()); err == nil {
			t.Errorf("ParseMetrics(%q) = nil error, want failure", line)
		}
	}
}

func TestRate(t *testing.T) {
	prev := parseSample(t, time.Unix(100, 0))
	cur := parseSample(t, time.Unix(102, 0))
	// Same values in both scrapes: zero rate.
	if got := Rate(prev, cur, "scaleshift_http_requests_total", map[string]string{"handler": "search"}); got != 0 {
		t.Fatalf("flat rate = %v, want 0", got)
	}
	cur.samples[0].Value = 150 // +50 over 2s
	if got := Rate(prev, cur, "scaleshift_http_requests_total", map[string]string{"handler": "search"}); got != 25 {
		t.Fatalf("rate = %v, want 25", got)
	}
	cur.samples[0].Value = 10 // counter reset
	if got := Rate(prev, cur, "scaleshift_http_requests_total", map[string]string{"handler": "search"}); got != 0 {
		t.Fatalf("reset rate = %v, want 0", got)
	}
	if got := Rate(nil, cur, "scaleshift_http_requests_total", nil); got != 0 {
		t.Fatalf("rate without prev = %v, want 0", got)
	}
}

func TestQuantileLifetime(t *testing.T) {
	cur := parseSample(t, time.Unix(100, 0))
	l := map[string]string{"handler": "search"}
	p50, ok := Quantile(nil, cur, "scaleshift_http_request_duration_seconds", l, 0.50)
	if !ok || math.Abs(p50-0.001) > 1e-9 {
		t.Fatalf("p50 = %v, %v; want 0.001", p50, ok)
	}
	// p99 target (99) falls past the last finite bucket (cum 90), so the
	// estimate clamps to that bucket's bound.
	p99, ok := Quantile(nil, cur, "scaleshift_http_request_duration_seconds", l, 0.99)
	if !ok || math.Abs(p99-0.002) > 1e-9 {
		t.Fatalf("p99 = %v, %v; want 0.002", p99, ok)
	}
	if _, ok := Quantile(nil, cur, "no_such_histogram", nil, 0.5); ok {
		t.Fatal("quantile of a missing histogram should report !ok")
	}
}

func TestQuantileWindowed(t *testing.T) {
	prev := parseSample(t, time.Unix(100, 0))
	cur := parseSample(t, time.Unix(102, 0))
	l := map[string]string{"handler": "search"}
	// The window added 10 observations, all in the (0.001, 0.002] bucket.
	set := func(ms *MetricSet, le string, v float64) {
		for i := range ms.samples {
			if ms.samples[i].Name == "scaleshift_http_request_duration_seconds_bucket" && ms.samples[i].Labels["le"] == le {
				ms.samples[i].Value = v
			}
		}
	}
	set(cur, "0.002", 100)
	set(cur, "+Inf", 110)
	p50, ok := Quantile(prev, cur, "scaleshift_http_request_duration_seconds", l, 0.50)
	if !ok || p50 <= 0.001 || p50 > 0.002 {
		t.Fatalf("windowed p50 = %v, %v; want within (0.001, 0.002]", p50, ok)
	}
	// An idle window falls back to the lifetime histogram.
	idle := parseSample(t, time.Unix(104, 0))
	p50, ok = Quantile(parseSample(t, time.Unix(102, 0)), idle, "scaleshift_http_request_duration_seconds", l, 0.50)
	if !ok || math.Abs(p50-0.001) > 1e-9 {
		t.Fatalf("idle-window p50 = %v, %v; want lifetime 0.001", p50, ok)
	}
}

func TestDashRender(t *testing.T) {
	d := &Dash{Base: "http://test:8080"}
	d.ObserveMetrics(parseSample(t, time.Unix(100, 0)))
	cur := parseSample(t, time.Unix(102, 0))
	cur.samples[0].Value = 150
	d.ObserveMetrics(cur)
	d.ObserveEvents([]*obs.Event{
		{Kind: "search", TraceID: "q1", Outcome: "ok", DurationNs: 5e6, Query: "seq=3 start=25"},
		{Kind: "batch_slot", TraceID: "q2", Outcome: "ok", DurationNs: 9e9},
		{Kind: "search", TraceID: "q3", Outcome: "error", DurationNs: 80e6, Query: strings.Repeat("x", 200)},
	})
	var b strings.Builder
	d.Render(&b)
	out := b.String()
	for _, want := range []string{
		"version=abc123",
		"ready=1",
		"index=18.5MiB in 32690 pages",
		"search", "25.0", // qps from the +50/2s delta
		"append",
		"shed/s", "inflight=",
		"slow queries",
		"q3", "80.0ms",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
	for _, gone := range []string{"degraded=", "breaker="} {
		if strings.Contains(out, gone) {
			t.Errorf("frame still shows %q:\n%s", gone, out)
		}
	}
	if strings.Contains(out, "q2") {
		t.Errorf("batch_slot events must not appear in the slow-query panel:\n%s", out)
	}
}

// TestDashIngestLine renders the ingest line, and the cluster line beside
// it, from their gauges.
func TestDashIngestLine(t *testing.T) {
	exp := sampleExposition + `scaleshift_ingest_generation 7
scaleshift_ingest_frozen_segments 3
scaleshift_wal_bytes 4096
scaleshift_checkpoints_total 2
scaleshift_checkpoint_bytes_total 3145728
scaleshift_cluster_shards 3
scaleshift_cluster_shards_ok 2
scaleshift_cluster_shards_failed 1
`
	ms, err := ParseMetrics(strings.NewReader(exp), time.Unix(100, 0))
	if err != nil {
		t.Fatal(err)
	}
	d := &Dash{Base: "http://test:8080"}
	d.ObserveMetrics(ms)
	var b strings.Builder
	d.Render(&b)
	for _, want := range []string{"checkpoints=2 ckpt_bytes=1.5MiB/ckpt", "cluster: shards=3 ok=2 failed=1  gather/s"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("frame missing %q:\n%s", want, b.String())
		}
	}
}
