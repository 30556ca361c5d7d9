package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"scaleshift/internal/atomicfile"
	"scaleshift/internal/cluster"
	"scaleshift/internal/core"
	"scaleshift/internal/faulty"
	"scaleshift/internal/obs"
	"scaleshift/internal/query"
	"scaleshift/internal/resilience"
	"scaleshift/internal/stock"
	"scaleshift/internal/store"
)

// TestMain lets this test binary double as the ssserve executable: the
// cluster soak re-executes itself with SSSERVE_SUBPROCESS_ARGS set to
// spawn real shard processes (same build flags, including -race)
// without needing a separate compiled binary on disk.
func TestMain(m *testing.M) {
	if v := os.Getenv("SSSERVE_SUBPROCESS_ARGS"); v != "" {
		var args []string
		if err := json.Unmarshal([]byte(v), &args); err != nil {
			fmt.Fprintln(os.Stderr, "ssserve subprocess: bad args:", err)
			os.Exit(2)
		}
		if err := run(args); err != nil {
			fmt.Fprintln(os.Stderr, "ssserve:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// shardProc is one spawned shard process.
type shardProc struct {
	cmd    *exec.Cmd
	addr   string // direct listen address, bypassing any proxy
	args   []string
	stderr *bytes.Buffer
}

func spawnShard(t *testing.T, args []string) *shardProc {
	t.Helper()
	enc, err := json.Marshal(args)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "SSSERVE_SUBPROCESS_ARGS="+string(enc))
	var stderr bytes.Buffer
	cmd.Stdout = io.Discard
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addr := ""
	for i, a := range args {
		if a == "-addr" && i+1 < len(args) {
			addr = args[i+1]
		}
	}
	return &shardProc{cmd: cmd, addr: addr, args: args, stderr: &stderr}
}

func (p *shardProc) awaitReady(t *testing.T, timeout time.Duration) {
	t.Helper()
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Get("http://" + p.addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard %s not ready within %s; stderr:\n%s", p.addr, timeout, p.stderr.String())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func (p *shardProc) kill(t *testing.T) {
	t.Helper()
	p.cmd.Process.Kill()
	p.cmd.Wait()
}

func (p *shardProc) stop(t *testing.T) {
	t.Helper()
	if p.cmd.ProcessState != nil {
		return // already reaped
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { p.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-done
	}
}

func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// clusterCanon is the cross-representation canonical match key: names
// instead of sequence ids, so oracle indexes built over different
// stores (union, union-minus-a-shard) compare directly, and float bits
// so "equal" means bit-identical.
type clusterCanon struct {
	name              string
	start             int
	dist, scale, shft uint64
}

func canonFromCore(ms []core.Match) []clusterCanon {
	out := make([]clusterCanon, len(ms))
	for i, m := range ms {
		out[i] = clusterCanon{m.Name, m.Start, math.Float64bits(m.Dist), math.Float64bits(m.Scale), math.Float64bits(m.Shift)}
	}
	sortClusterCanon(out)
	return out
}

func canonFromJSON(ms []cluster.WireMatch) []clusterCanon {
	out := make([]clusterCanon, len(ms))
	for i, m := range ms {
		out[i] = clusterCanon{m.Name, m.Start, math.Float64bits(m.Dist), math.Float64bits(m.Scale), math.Float64bits(m.Shift)}
	}
	sortClusterCanon(out)
	return out
}

func sortClusterCanon(ms []clusterCanon) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].name != ms[j].name {
			return ms[i].name < ms[j].name
		}
		return ms[i].start < ms[j].start
	})
}

func canonEqual(a, b []clusterCanon) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// clusterSpec is one soak query with both ground truths precomputed:
// the full-coverage answer and the answer with the faulted shard's
// slice removed.
type clusterSpec struct {
	path  string // query string, absolute eps, limit=0
	knn   int
	full  []clusterCanon // oracle over the union
	minus []clusterCanon // oracle over union minus the faulted shard
}

// TestSoakCluster is the distributed chaos harness: three real shard
// processes (this test binary re-executed, so -race covers them too),
// one behind a mode-switchable TCP chaos proxy, an in-process
// coordinator over the fleet, and concurrent clients checking every
// answer against precomputed oracles while the proxy stalls, resets,
// and the shard process is SIGKILLed and restarted mid-query.
//
// Invariants asserted on every single response, regardless of phase:
//
//   - 200 => coverage complete and matches bit-identical to the
//     single-node oracle over the union store;
//   - 206 => every failed coverage entry names the faulted shard, and
//     matches are bit-identical to the oracle over the surviving data
//     (exact for the covered slice — never silently wrong);
//   - nothing else: no 5xx, ever (the faulted fault domain degrades
//     coverage, it does not break serving);
//   - both 200s and 206s are actually observed (the chaos bit);
//   - wide events attribute partial coverage to the faulted shard only;
//   - the coordinator process leaks no goroutines.
//
// Duration comes from SOAK_SECONDS (default 2); a metrics snapshot is
// written to SOAK_CLUSTER_METRICS_OUT when set.
func TestSoakCluster(t *testing.T) {
	duration := 2 * time.Second
	if v := os.Getenv("SOAK_SECONDS"); v != "" {
		secs, err := strconv.Atoi(v)
		if err != nil || secs < 1 {
			t.Fatalf("SOAK_SECONDS = %q", v)
		}
		duration = time.Duration(secs) * time.Second
	}
	baseline := runtime.NumGoroutine()

	// --- Artifacts: one union store, hash-partitioned across 3 shards.
	const shards = 3
	const faulted = 1
	dir := t.TempDir()
	st := store.New()
	cfg := stock.DefaultConfig()
	cfg.Companies = 12
	cfg.Days = 160
	cfg.Seed = 7
	if _, err := stock.Populate(st, cfg); err != nil {
		t.Fatal(err)
	}
	man, err := cluster.WriteShardArtifacts(st, dir, shards, 7)
	if err != nil {
		t.Fatal(err)
	}

	// --- Oracles: single-node indexes over the union and over the
	// union minus the faulted shard's slice.
	opts := core.DefaultOptions()
	opts.WindowLen = 32
	buildOracle := func(s *store.Store) *core.Index {
		ix, err := core.NewIndex(s, opts)
		if err == nil {
			err = ix.Build()
		}
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	unionIx := buildOracle(st)
	faultedSeqs := make(map[int]bool)
	for _, g := range man.Shards[faulted].Seqs {
		faultedSeqs[g] = true
	}
	minusSt := store.New()
	for seq := 0; seq < st.NumSequences(); seq++ {
		if faultedSeqs[seq] {
			continue
		}
		n := st.SequenceLen(seq)
		vals := make([]float64, n)
		if err := st.Window(seq, 0, n, vals, nil); err != nil {
			t.Fatal(err)
		}
		minusSt.AppendSequence(st.SequenceName(seq), vals)
	}
	minusIx := buildOracle(minusSt)
	norm, err := query.SENormScale(st, opts.WindowLen, 200, 3)
	if err != nil {
		t.Fatal(err)
	}

	specs := buildClusterSpecs(t, st, unionIx, minusIx, norm)

	// --- Fleet: three shard processes; the faulted one sits behind the
	// chaos proxy, so its fault domain can stall, reset, or die without
	// touching its siblings.
	procs := make([]*shardProc, shards)
	addrs := make([]string, shards)
	for i := 0; i < shards; i++ {
		addr := freePort(t)
		args := []string{
			"-store", filepath.Join(dir, man.Shards[i].Dir, "store.bin"),
			"-addr", addr, "-window", "32", "-fc", "3",
		}
		procs[i] = spawnShard(t, args)
		addrs[i] = addr
	}
	defer func() {
		for _, p := range procs {
			p.stop(t)
		}
	}()
	for _, p := range procs {
		p.awaitReady(t, 30*time.Second)
	}
	proxy, err := faulty.NewProxy(addrs[faulted])
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	coordAddrs := append([]string(nil), addrs...)
	coordAddrs[faulted] = proxy.Addr()

	// --- Coordinator: in-process (so the leak check sees it), talking
	// real TCP to the fleet.  Fast breaker so coverage recovers within a
	// phase; a modest hedge so the stall phase exercises hedging.
	obs.Enable()
	t.Cleanup(obs.Disable)
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	coord, err := cluster.NewCoordinator(t.Context(), cluster.CoordinatorConfig{
		Manifest: man,
		Addrs:    coordAddrs,
		Shard: cluster.ShardConfig{
			AttemptTimeout: 500 * time.Millisecond,
			Retries:        1,
			BackoffBase:    10 * time.Millisecond,
			BackoffMax:     50 * time.Millisecond,
			HedgeAfter:     250 * time.Millisecond,
			Breaker: resilience.BreakerConfig{
				FailureThreshold:  3,
				OpenTimeout:       400 * time.Millisecond,
				HalfOpenSuccesses: 1,
			},
		},
		ConnectTimeout: 30 * time.Second,
		Logger:         logger,
	})
	if err != nil {
		t.Fatal(err)
	}
	front, err := newCoordServer(coordConfig{
		coord:  coord,
		tracer: obs.NewTracer(64),
		logger: logger,
		serve:  testServeFlags(),
		quorum: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(front)
	defer ts.Close()
	client := &http.Client{Timeout: 10 * time.Second}

	// --- Concurrent checkers.
	var (
		fullOKs, partials, badStatus, mismatches atomic.Int64
		failMu                                   sync.Mutex
		failures                                 []string
	)
	fail := func(format string, args ...interface{}) {
		mismatches.Add(1)
		failMu.Lock()
		defer failMu.Unlock()
		if len(failures) < 10 {
			failures = append(failures, fmt.Sprintf(format, args...))
		}
	}
	checkResponse := func(spec *clusterSpec, status int, body []byte) {
		var resp cluster.SearchWire
		switch status {
		case http.StatusOK:
			if err := json.Unmarshal(body, &resp); err != nil {
				fail("200 undecodable: %v", err)
				return
			}
			if !resp.Coverage.Complete {
				fail("200 with incomplete coverage: %+v", resp.Coverage)
				return
			}
			if !canonEqual(canonFromJSON(resp.Matches), spec.full) {
				fail("200 for %s: %d matches differ from the %d-match oracle",
					spec.path, len(resp.Matches), len(spec.full))
				return
			}
			fullOKs.Add(1)
		case http.StatusPartialContent:
			if err := json.Unmarshal(body, &resp); err != nil {
				fail("206 undecodable: %v", err)
				return
			}
			if resp.Coverage.Failed == 0 {
				fail("206 with zero failed shards")
				return
			}
			for _, sh := range resp.Coverage.Shards {
				if sh.State == "failed" && sh.ID != faulted {
					fail("206 attributes failure to healthy shard %d: %s", sh.ID, sh.Error)
					return
				}
			}
			if !canonEqual(canonFromJSON(resp.Matches), spec.minus) {
				fail("206 for %s: %d matches differ from the %d-match survivors oracle",
					spec.path, len(resp.Matches), len(spec.minus))
				return
			}
			partials.Add(1)
		default:
			badStatus.Add(1)
			fail("status %d for %s: %.200s", status, spec.path, body)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				spec := &specs[rng.Intn(len(specs))]
				resp, err := client.Get(ts.URL + spec.path)
				if err != nil {
					fail("coordinator request failed outright: %v", err)
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				checkResponse(spec, resp.StatusCode, body)
			}
		}(int64(w) + 99)
	}

	// --- Phase driver: pass → stall → pass → reset → pass →
	// kill+restart, repeating until time is up.  The pass phases between
	// faults give the breaker room to half-open and heal, so both full
	// and partial coverage are exercised every cycle.
	killRounds := 0
	end := time.Now().Add(duration)
	phaseSleep := func(d time.Duration) bool {
		time.Sleep(d)
		return time.Now().Before(end)
	}
	for {
		proxy.SetMode(faulty.ProxyPass)
		if !phaseSleep(600 * time.Millisecond) {
			break
		}
		proxy.SetMode(faulty.ProxyStall)
		if !phaseSleep(400 * time.Millisecond) {
			break
		}
		proxy.SetMode(faulty.ProxyPass)
		if !phaseSleep(600 * time.Millisecond) {
			break
		}
		proxy.SetMode(faulty.ProxyReset)
		if !phaseSleep(400 * time.Millisecond) {
			break
		}
		proxy.SetMode(faulty.ProxyPass)
		if !phaseSleep(600 * time.Millisecond) {
			break
		}
		// Kill the shard process mid-traffic and bring a fresh one up on
		// the same port and artifact.
		procs[faulted].kill(t)
		killRounds++
		if !phaseSleep(400 * time.Millisecond) {
			break
		}
		procs[faulted] = spawnShard(t, procs[faulted].args)
		procs[faulted].awaitReady(t, 30*time.Second)
		if time.Now().After(end) {
			break
		}
	}
	// Heal the world before stopping so the final state is a full fleet.
	proxy.SetMode(faulty.ProxyPass)
	if procs[faulted].cmd.ProcessState != nil {
		procs[faulted] = spawnShard(t, procs[faulted].args)
		procs[faulted].awaitReady(t, 30*time.Second)
	}
	close(stop)
	wg.Wait()

	// --- Verdict.
	failMu.Lock()
	for _, f := range failures {
		t.Error(f)
	}
	failMu.Unlock()
	t.Logf("cluster soak: %d full, %d partial, %d bad-status, %d mismatches, %d kill+restart rounds",
		fullOKs.Load(), partials.Load(), badStatus.Load(), mismatches.Load(), killRounds)
	if fullOKs.Load() == 0 {
		t.Error("no full-coverage answer observed; the healthy phases never ran")
	}
	if partials.Load() == 0 {
		t.Error("no partial-coverage answer observed; the chaos never bit")
	}
	if badStatus.Load() != 0 {
		t.Errorf("%d responses outside the 200/206 coverage contract", badStatus.Load())
	}

	// Wide events: every partial search event attributes its failures to
	// the faulted shard and nothing else.
	events, _, _ := front.events.Drain(0, 0)
	partialEvents := 0
	for _, e := range events {
		if e.Kind != "search" || e.Status != http.StatusPartialContent {
			continue
		}
		partialEvents++
		if len(e.Shards) != shards {
			t.Errorf("partial event has %d shard entries, want %d", len(e.Shards), shards)
		}
		for _, sh := range e.Shards {
			if sh.State == "failed" && sh.ID != faulted {
				t.Errorf("partial event attributes failure to healthy shard %d", sh.ID)
			}
		}
	}
	if partialEvents == 0 {
		t.Error("no partial wide event recorded")
	}

	// Goroutine-leak assertion: the coordinator, its shard clients, the
	// proxy, and the checkers must all wind down.  Stopping the fleet
	// first also severs the shard clients' keep-alive connections and the
	// exec stdout/stderr pumps, which otherwise live as long as the
	// subprocesses.
	ts.Close()
	proxy.Close()
	for _, p := range procs {
		p.stop(t)
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			var buf bytes.Buffer
			pprof.Lookup("goroutine").WriteTo(&buf, 1)
			t.Fatalf("goroutine leak: %d now vs %d baseline\n%s",
				runtime.NumGoroutine(), baseline, buf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	if out := os.Getenv("SOAK_CLUSTER_METRICS_OUT"); out != "" {
		if err := atomicfile.WriteFile(out, obs.Default.WriteJSON); err != nil {
			t.Fatalf("writing cluster soak metrics snapshot: %v", err)
		}
		t.Logf("metrics snapshot written to %s", out)
	}
}

// buildClusterSpecs precomputes the soak's query mix with both oracles:
// range queries at several radii plus k-NN, all with explicit value
// vectors (so no query depends on the faulted shard's /window) and
// absolute eps (so every shard searches the same radius).
func buildClusterSpecs(t *testing.T, st *store.Store, unionIx, minusIx *core.Index, norm float64) []clusterSpec {
	t.Helper()
	fracs := []float64{0.05, 0.1, 0.2}
	var specs []clusterSpec
	mkValues := func(seq, start, n int, scale, shift float64) (core.Match, string) {
		raw := make([]float64, n)
		if err := st.Window(seq, start, n, raw, nil); err != nil {
			t.Fatal(err)
		}
		fields := make([]string, n)
		for i, v := range raw {
			fields[i] = strconv.FormatFloat(v*scale+shift, 'g', -1, 64)
		}
		return core.Match{}, joinComma(fields)
	}
	parseBack := func(vals string) []float64 {
		var out []float64
		for _, f := range splitComma(vals) {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, v)
		}
		return out
	}
	for i := 0; i < 10; i++ {
		seq := (i * 5) % st.NumSequences()
		start := (7 + i*13) % (st.SequenceLen(seq) - 32)
		scale := 1 + 0.2*float64(i%3)
		shift := float64(i%4) - 1.5
		_, vals := mkValues(seq, start, 32, scale, shift)
		q := parseBack(vals)
		eps := fracs[i%len(fracs)] * norm
		var stats core.SearchStats
		full, err := unionIx.Exec(t.Context(), core.Query{Vec: q, Eps: eps}, &stats)
		if err != nil {
			t.Fatal(err)
		}
		minus, err := minusIx.Exec(t.Context(), core.Query{Vec: q, Eps: eps}, &stats)
		if err != nil {
			t.Fatal(err)
		}
		p := url.Values{}
		p.Set("values", vals)
		p.Set("eps", strconv.FormatFloat(eps, 'g', -1, 64))
		p.Set("limit", "0")
		specs = append(specs, clusterSpec{
			path: "/search?" + p.Encode(),
			full: canonFromCore(full.Matches), minus: canonFromCore(minus.Matches),
		})
	}
	for i := 0; i < 4; i++ {
		const k = 5
		seq := (3 + i*7) % st.NumSequences()
		start := (11 + i*29) % (st.SequenceLen(seq) - 32)
		_, vals := mkValues(seq, start, 32, 1, 0)
		q := parseBack(vals)
		var stats core.SearchStats
		full, err := unionIx.Exec(t.Context(), core.Query{Vec: q, K: k}, &stats)
		if err != nil {
			t.Fatal(err)
		}
		minus, err := minusIx.Exec(t.Context(), core.Query{Vec: q, K: k}, &stats)
		if err != nil {
			t.Fatal(err)
		}
		p := url.Values{}
		p.Set("values", vals)
		p.Set("eps", "1")
		p.Set("nn", strconv.Itoa(k))
		p.Set("limit", "0")
		specs = append(specs, clusterSpec{
			path: "/search?" + p.Encode(), knn: k,
			full: canonFromCore(full.Matches), minus: canonFromCore(minus.Matches),
		})
	}
	return specs
}

func joinComma(fields []string) string {
	out := fields[0]
	for _, f := range fields[1:] {
		out += "," + f
	}
	return out
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == ',' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return append(out, s[start:])
}
