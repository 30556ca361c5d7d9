//go:build unix

package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestTailPercentileLeavesEnoughSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{100000, 0.999}, {10000, 0.999}, {2000, 0.99}, {1000, 0.99}, {999, 0.95}, {200, 0.95}, {199, 0.9}, {100, 0.9}, {80, 0.75}, {48, 0.75}, {40, 0.75}, {39, 0.5}, {32, 0.5}, {5, 0.5},
	} {
		got := tailPercentile(tc.n)
		if got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		// The rule is "at least 10 beyond", falling back to the median
		// only below 2*tailBeyond samples.
		if beyond := tc.n - (rankIndex(tc.n, got) + 1); tailBeyond < 10 || (beyond < tailBeyond && tc.n >= 2*tailBeyond) {
			t.Errorf("tailPercentile(%d) = %v leaves only %d samples beyond", tc.n, got, beyond)
		}
	}
	values := make([]float64, 1000)
	for i := range values {
		values[i] = float64(i + 1)
	}
	if got := percentile(values, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
}

func TestMedianOfRepetitions(t *testing.T) {
	if got := median([]float64{3, 100, 1}); got != 3 {
		t.Errorf("median of three = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	reps := []*repResult{
		{Metrics: map[string]float64{"setup_s": 2}, Samples: map[string]int{}},
		{Metrics: map[string]float64{"setup_s": 9}, Samples: map[string]int{}},
		{Metrics: map[string]float64{"setup_s": 3}, Samples: map[string]int{}},
	}
	mv := combine(endToEnd[:1], reps)["setup_s"]
	if mv.Value != 3 || mv.Min != 2 || mv.Max != 9 || !reflect.DeepEqual(mv.Raw, []float64{2, 9, 3}) {
		t.Errorf("combine = %+v", mv)
	}
	// The open-loop latency readings take the best repetition instead.
	for i, v := range []float64{1.2, 1.1, 1.4} {
		reps[i].Metrics["query_p50_ms"] = v
	}
	if mv := combine(endToEnd[1:2], reps)["query_p50_ms"]; mv.Value != 1.1 || mv.Max != 1.4 {
		t.Errorf("combine of a latency = %+v, want the best repetition", mv)
	}
}

// A slow spell that covers whole windows must not move the lowest
// window's readings, and scales out of the ratio; a remainder shorter
// than a window joins the last one.
func TestWindowLatencies(t *testing.T) {
	var lat []float64
	for i := 0; i < 500; i++ {
		v := 1 + float64(i%100)/100 // every pass of 100 runs 1.00 .. 1.99
		if i >= 200 {
			v *= 3 // the neighbour wakes up after two quiet passes
		}
		lat = append(lat, v)
	}
	// Two windows, 200 + 300; both have p95 / p50 = 1.94 / 1.49.
	lat[250], lat[260] = 900, 900 // a stall in the slow window moves nothing either
	p50, tail, ratio := windowLatencies(lat, 200, 0.95)
	if p50 != 1.49 || tail != 1.94 || math.Abs(ratio-1.94/1.49) > 1e-12 {
		t.Errorf("windowLatencies = p50 %v, tail %v, ratio %v, want 1.49, 1.94, %v", p50, tail, ratio, 1.94/1.49)
	}
	p50, tail, ratio = windowLatencies(lat[:48], 200, 0.75)
	if p50 != percentile(lat[:48], 0.5) || tail != percentile(lat[:48], 0.75) || ratio != tail/p50 {
		t.Errorf("a phase shorter than a window: p50 %v, tail %v, ratio %v", p50, tail, ratio)
	}
	if p50, tail, ratio := windowLatencies(nil, 200, 0.95); p50 != 0 || tail != 0 || ratio != 0 {
		t.Errorf("no samples gave %v, %v, %v", p50, tail, ratio)
	}
}

// One stalled response must be charged to every request that was due
// while the connection was blocked behind it.
func TestOpenLoopChargesQueueWait(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 5 {
			time.Sleep(200 * time.Millisecond)
		}
	}))
	defer srv.Close()
	st := openLoop(1, 100, 40, func(_, _ int) opResult {
		resp, err := http.Get(srv.URL)
		if err == nil {
			resp.Body.Close()
		}
		return opResult{done: time.Now(), ok: err == nil}
	})
	if len(st.latMS) != 40 || st.failed != 0 {
		t.Fatalf("got %d latencies, %d failed", len(st.latMS), st.failed)
	}
	slow := 0
	for _, l := range st.latMS {
		if l > 50 {
			slow++
		}
	}
	// 200 ms at 100 req/s: the stalled request and the ~15 due behind
	// it within 150 ms all waited more than 50 ms.
	if slow < 10 {
		t.Errorf("%d of 40 requests show the stall; latency is not counted from the due time", slow)
	}
	if lag := percentile(st.lagMS, 0.99); lag < 50 {
		t.Errorf("generator lag p99 = %.1f ms, want the 200 ms stall to show", lag)
	}
	if p50 := percentile(st.latMS, 0.5); p50 > 50 {
		t.Errorf("p50 = %.1f ms: the backlog never drained", p50)
	}
}

func TestClosedLoopCountsOnlyCorrectResponses(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	st := closedLoop(2, 100*time.Millisecond, func(_, i int) opResult {
		time.Sleep(time.Millisecond)
		return opResult{done: time.Now(), ok: i%4 != 0, shed: i%8 == 0}
	})
	if st.attempted == 0 || st.failed == 0 || len(st.latMS)+st.failed != st.attempted {
		t.Fatalf("attempted %d, failed %d, correct %d", st.attempted, st.failed, len(st.latMS))
	}
	if st.shed == 0 || st.shed >= st.failed {
		t.Errorf("shed %d of %d failed", st.shed, st.failed)
	}
	want := float64(len(st.latMS)) / st.elapsed.Seconds()
	if got := st.perSecond(); got != want {
		t.Errorf("perSecond = %v, want %v (correct responses only)", got, want)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	rec := &recorder{epoch: time.Now(), on: true}
	root := rec.add("client.request", rec.epoch, 10*time.Microsecond, -1, 0)
	search := rec.add("core.search", rec.epoch, 6*time.Microsecond, root, 0)
	rec.add("rtree.probe", rec.epoch, 4*time.Microsecond, search, 0)
	rec.add("vec.verify", rec.epoch, 5*time.Microsecond, search, 0) // overshoots: floored at 0
	self := selfTimes(rec.spans)
	if got := self["client.request"][0]; got != 4 {
		t.Errorf("client.request self = %v us, want 4", got)
	}
	if got := self["core.search"][0]; got != 0 {
		t.Errorf("core.search self = %v us, want 0", got)
	}
	rec.on = false
	if rec.add("x", rec.epoch, time.Microsecond, -1, 0) != -1 || len(rec.spans) != 4 {
		t.Errorf("a recorder that is off recorded a span")
	}
}

func TestJudge(t *testing.T) {
	def := metricDef{Name: "query_p50_ms", Unit: "ms", Better: lower, Bound: 0.1}
	mv := func(lo, mid, hi float64) *metricValue { return &metricValue{Value: mid, Min: lo, Max: hi} }
	for _, tc := range []struct {
		name string
		a, b *metricValue
		want string
	}{
		{"same", mv(0.98, 1, 1.02), mv(0.99, 1.01, 1.03), verdictOK},
		{"every run better", mv(0.9, 1, 1.5), mv(0.5, 0.6, 0.8), verdictOK},
		{"clearly worse", mv(0.98, 1, 1.02), mv(1.2, 1.3, 1.4), verdictWorse},
		{"worse median, overlapping runs", mv(0.9, 1, 1.25), mv(1.1, 1.2, 1.3), verdictUnresolved},
		{"same median, wide runs", mv(0.8, 1, 1.3), mv(0.8, 1.02, 1.3), verdictUnresolved},
	} {
		if got, _, _ := judge(def, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
	up := metricDef{Name: "query_qps", Unit: "1/s", Better: higher, Bound: 0.1}
	if got, delta, _ := judge(up, mv(990, 1000, 1010), mv(690, 700, 710)); got != verdictWorse || delta < 0.29 {
		t.Errorf("qps 1000 -> 700: %s (%.2f), want worse", got, delta)
	}
}

func TestResultRoundTripAndCompare(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	mk := func(p50 float64) *resultFile {
		return &resultFile{
			Schema: 1, Correct: true, Attempted: 10,
			Environment: environment{Seed: 1, Seconds: 12, GoVersion: "go"},
			Workloads: map[string]*workloadResult{"range_tight": {
				Why: "w", QueryRate: 400, TailPercentile: 0.95,
				EndToEnd: map[string]*metricValue{"query_p50_ms": {
					Value: p50, Unit: "ms", Min: p50 * 0.99, Max: p50 * 1.01, Raw: []float64{p50, p50 * 0.99, p50 * 1.01}, Samples: []int{880, 880, 880}}},
				PerLayer: map[string]*metricValue{"rtree.nodes_per_query": {Value: 695, Unit: "count", Min: 695, Max: 695, Raw: []float64{695}}},
				Validity: map[string]float64{"trace_coverage": 0.97},
			}},
		}
	}
	dir := t.TempDir()
	pa, pb, pc := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json"), filepath.Join(dir, "c.json")
	for path, rf := range map[string]*resultFile{pa: mk(1), pb: mk(1.02), pc: mk(2)} {
		if err := writeJSONFile(path, rf); err != nil {
			t.Fatal(err)
		}
	}
	back, err := readResultFile(pa)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, mk(1)) {
		t.Errorf("result file did not survive a round trip:\n%+v", back)
	}
	var out, errb bytes.Buffer
	if code := compareFiles(root, pa, pb, &out, &errb); code != 0 {
		t.Errorf("A/A compare exited %d:\n%s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "same") {
		t.Errorf("an equal count is not reported as same:\n%s", out.String())
	}
	out.Reset()
	if code := compareFiles(root, pa, pc, &out, &errb); code != 1 || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("a doubled p50 exited %d:\n%s", code, out.String())
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]*metricValue) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// BENCHMARK.json, the tables in spec.go and what a run emits must name
// the same workloads and metrics.
func TestNamesLint(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from spec.go:\n%+v\n%+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from spec.go")
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, spec.go %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go %d", len(bf.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %q, spec.go %q", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		seen[w.Name] = true
	}
	sawSetup := false
	for _, d := range append(append([]metricDef(nil), bf.EndToEnd...), bf.PerLayer...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or used twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != lower && d.Better != higher {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		sawSetup = sawSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !sawSetup {
		t.Errorf("end_to_end lacks setup_s in s, lower")
	}

	if testing.Short() {
		t.Skip("the -quick run starts server processes")
	}
	out := filepath.Join(t.TempDir(), "quick.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("-quick run exited %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	rf, err := readResultFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !rf.Correct || rf.Attempted == 0 || rf.Failed != 0 {
		t.Errorf("quick run: correct %v, attempted %d, failed %d", rf.Correct, rf.Attempted, rf.Failed)
	}
	if len(rf.Workloads) != len(workloads) {
		t.Errorf("quick run reported %d workloads", len(rf.Workloads))
	}
	for _, wl := range workloads {
		wr := rf.Workloads[wl.Name]
		if wr == nil {
			t.Errorf("quick run did not report %s", wl.Name)
			continue
		}
		if got, want := keys(wr.EndToEnd), names(endToEnd); !reflect.DeepEqual(got, want) {
			t.Errorf("%s end-to-end metrics %v, want %v", wl.Name, got, want)
		}
		if got, want := keys(wr.PerLayer), names(perLayer); !reflect.DeepEqual(got, want) {
			t.Errorf("%s per-layer metrics %v, want %v", wl.Name, got, want)
		}
		for _, d := range endToEnd {
			if mv := wr.EndToEnd[d.Name]; mv != nil && (mv.Value <= 0 || mv.Unit != d.Unit || len(mv.Raw) != repetitions) {
				t.Errorf("%s %s = %+v", wl.Name, d.Name, mv)
			}
		}
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last driverLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Errorf("last stdout line is not the driver's JSON object: %v", err)
	}
}
