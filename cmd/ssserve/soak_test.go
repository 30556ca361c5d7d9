package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scaleshift/internal/atomicfile"
	"scaleshift/internal/cluster"
	"scaleshift/internal/core"
	"scaleshift/internal/faulty"
	"scaleshift/internal/obs"
	"scaleshift/internal/wal"
)

// TestSoak is the chaos harness: a live ssserve over real TCP,
// hammered concurrently with queries, batch queries, hot reloads
// (clean and fault-injected), client disconnects, and overload bursts.
// A second ingest-enabled server runs alongside it, hammered with
// concurrent POST /append writers while its compactor churns under
// fault injection.
//
// Invariants asserted:
//
//   - every admitted, well-formed query returns bit-identical results
//     to the unfaulted sequential oracle captured before the chaos —
//     across reloads, rejected reloads, and overload;
//   - overload sheds with 429 + Retry-After, never 5xx;
//   - corrupted artifacts never replace the serving snapshot;
//   - concurrent appends and queries against the ingest server never
//     5xx, even when compactions are made to fail;
//   - compaction swap stalls stay under 1ms at the median, and within
//     200× the median (or 1ms) at p99;
//   - the run leaks no goroutines.
//
// Duration comes from SOAK_SECONDS (default 2, CI smoke runs 20); a
// metrics snapshot is written to SOAK_METRICS_OUT when set.
func TestSoak(t *testing.T) {
	duration := 2 * time.Second
	if v := os.Getenv("SOAK_SECONDS"); v != "" {
		secs, err := strconv.Atoi(v)
		if err != nil || secs < 1 {
			t.Fatalf("SOAK_SECONDS = %q", v)
		}
		duration = time.Duration(secs) * time.Second
	}

	baseline := runtime.NumGoroutine()

	var in faulty.Injector
	rcfg := writeArtifacts(t, 10, 200)
	s := newArtifactServerInjected(t, rcfg, &in)
	ts := httptest.NewServer(s)
	client := ts.Client()

	ingestSrv, iseg, hookFaults := newIngestSoakServer(t)
	tsIngest := httptest.NewServer(ingestSrv)
	ingestClient := tsIngest.Client()

	// The unfaulted oracle: sequential answers captured before any
	// chaos starts.  Reloads re-read the same artifacts, so these stay
	// the ground truth for the whole run.
	specs := soakSpecs()
	oracle := make([]cluster.SearchWire, len(specs))
	for i, spec := range specs {
		resp, err := client.Get(ts.URL + spec)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("oracle query %s: %d: %s", spec, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &oracle[i]); err != nil {
			t.Fatal(err)
		}
	}

	var (
		oks, sheds, mismatches        atomic.Int64
		server5xx                     atomic.Int64
		cleanReloads, rejectedReloads atomic.Int64
		disconnects                   atomic.Int64
		appendOks, ingestQueryOks     atomic.Int64
		failMu                        sync.Mutex
		failures                      []string
	)
	fail := func(format string, args ...interface{}) {
		failMu.Lock()
		defer failMu.Unlock()
		if len(failures) < 10 {
			failures = append(failures, fmt.Sprintf(format, args...))
		}
	}
	// checkResponse applies the serving invariants to one query
	// response; spec < 0 means "any spec" (overload bursts don't track
	// which).
	checkResponse := func(spec int, status int, header http.Header, body []byte) {
		switch {
		case status == http.StatusOK:
			oks.Add(1)
			if spec < 0 {
				return
			}
			var sr cluster.SearchWire
			if err := json.Unmarshal(body, &sr); err != nil {
				fail("spec %d: bad 200 body: %v", spec, err)
				return
			}
			want := oracle[spec]
			if sr.Total != want.Total || len(sr.Matches) != len(want.Matches) {
				mismatches.Add(1)
				fail("spec %d: %d/%d matches, oracle %d/%d", spec, sr.Total, len(sr.Matches), want.Total, len(want.Matches))
				return
			}
			for j := range sr.Matches {
				if sr.Matches[j] != want.Matches[j] {
					mismatches.Add(1)
					fail("spec %d match %d diverged from oracle", spec, j)
					return
				}
			}
		case status == http.StatusTooManyRequests:
			sheds.Add(1)
			if header.Get("Retry-After") == "" {
				fail("429 without Retry-After")
			}
		case status >= 500:
			server5xx.Add(1)
			fail("admitted well-formed query got %d: %s", status, body)
		default:
			fail("unexpected status %d: %s", status, body)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Query workers: sequential GETs checked against the oracle.
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
				i := rng.Intn(len(specs))
				resp, err := client.Get(ts.URL + specs[i])
				if err != nil {
					fail("query worker: %v", err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				checkResponse(i, resp.StatusCode, resp.Header, body)
				if resp.StatusCode == http.StatusTooManyRequests {
					time.Sleep(2 * time.Millisecond)
				}
			}
		}(int64(100 + w))
	}

	// Batch worker: POST batches, each slot checked against the oracle.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-stop:
				return
			default:
			}
			picks := make([]int, 4)
			breq := batchRequestJSON{}
			for j := range picks {
				picks[j] = rng.Intn(len(specs))
				seq, start, epsFrac := soakSpecParams(picks[j])
				breq.Queries = append(breq.Queries, batchQueryJSON{Seq: &seq, Start: &start, EpsFrac: &epsFrac})
			}
			raw, _ := json.Marshal(breq)
			resp, err := client.Post(ts.URL+"/search", "application/json", bytes.NewReader(raw))
			if err != nil {
				fail("batch worker: %v", err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				var br batchResponseJSON
				if err := json.Unmarshal(body, &br); err != nil {
					fail("batch: bad 200 body: %v", err)
					continue
				}
				for j, item := range br.Results {
					want := oracle[picks[j]]
					if item.Status != "complete" || item.Total != want.Total {
						mismatches.Add(1)
						fail("batch slot %d: status %q total %d, oracle %d", j, item.Status, item.Total, want.Total)
						break
					}
					for m := range item.Matches {
						if item.Matches[m] != want.Matches[m] {
							mismatches.Add(1)
							fail("batch slot %d match %d diverged", j, m)
							break
						}
					}
				}
				oks.Add(1)
			case http.StatusTooManyRequests:
				sheds.Add(1)
				time.Sleep(2 * time.Millisecond)
			default:
				if resp.StatusCode >= 500 {
					server5xx.Add(1)
				}
				fail("batch got %d: %s", resp.StatusCode, body)
			}
		}
	}()

	// Reload worker: alternate clean reloads (must swap) and
	// fault-injected ones (must be rejected, old snapshot serving).
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(11))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(30 * time.Millisecond):
			}
			faultThis := i%3 == 2
			if faultThis {
				p := faulty.NonePlan()
				p.FlipOffset, p.FlipMask = int64(rng.Intn(512)), 0xFF
				in.Set(p)
			}
			resp, err := client.Post(ts.URL+"/admin/reload", "application/json", nil)
			if faultThis {
				in.Clear()
			}
			if err != nil {
				fail("reload worker: %v", err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			switch {
			case faultThis && resp.StatusCode == http.StatusUnprocessableEntity:
				rejectedReloads.Add(1)
			case !faultThis && resp.StatusCode == http.StatusOK:
				cleanReloads.Add(1)
			default:
				fail("reload (fault=%v) got %d: %s", faultThis, resp.StatusCode, body)
			}
		}
	}()

	// Disconnect worker: batches whose client hangs up mid-flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(13))
		for {
			select {
			case <-stop:
				return
			default:
			}
			breq := batchRequestJSON{Parallelism: 1}
			for j := 0; j < 64; j++ {
				seq, start := j%10, 3+j%150
				breq.Queries = append(breq.Queries, batchQueryJSON{Seq: &seq, Start: &start, EpsFrac: ptr(0.2)})
			}
			raw, _ := json.Marshal(breq)
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(1+rng.Intn(10))*time.Millisecond)
			req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/search", bytes.NewReader(raw))
			resp, err := client.Do(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			cancel()
			disconnects.Add(1)
		}
	}()

	// Ingest writer actors: concurrent POST /append against the live
	// segmented index — growing existing sequences and creating new
	// uniquely-named ones — while the background compactor churns with
	// injected faults.  Admitted appends must ack (200), shed with 429,
	// and never 5xx: a failed compaction keeps the delta serving.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(500 + w)))
			created := 0
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var breq appendRequestJSON
				switch {
				case i%20 == 19:
					// A brand-new sequence, unique across writers.
					breq.Name = fmt.Sprintf("w%d-s%d", w, created)
					created++
				case created > 0 && i%5 == 4:
					// Grow one of this writer's own sequences by name.
					breq.Name = fmt.Sprintf("w%d-s%d", w, rng.Intn(created))
				default:
					// Grow one of the base sequences by id.
					seq := rng.Intn(10)
					breq.Seq = &seq
				}
				nvals := 8 + rng.Intn(25)
				for j := 0; j < nvals; j++ {
					breq.Values = append(breq.Values, 100+rng.Float64()*10)
				}
				raw, _ := json.Marshal(breq)
				resp, err := ingestClient.Post(tsIngest.URL+"/append", "application/json", bytes.NewReader(raw))
				if err != nil {
					fail("writer %d: %v", w, err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusOK:
					appendOks.Add(1)
				case resp.StatusCode == http.StatusTooManyRequests:
					sheds.Add(1)
					time.Sleep(2 * time.Millisecond)
				case resp.StatusCode >= 500:
					server5xx.Add(1)
					fail("append got %d: %s", resp.StatusCode, body)
				default:
					fail("append got %d: %s", resp.StatusCode, body)
				}
			}
		}(w)
	}

	// Ingest query worker: searches racing the appends above.  Results
	// change as data lands, so only the serving invariants are checked:
	// 200 or shed, never 5xx.  /readyz (which renders the compaction
	// backlog) is polled on the same cadence.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(17))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			url := tsIngest.URL + fmt.Sprintf("/search?seq=%d&start=%d&eps_frac=0.1", rng.Intn(10), 5+rng.Intn(80))
			if i%8 == 7 {
				url = tsIngest.URL + "/readyz"
			}
			resp, err := ingestClient.Get(url)
			if err != nil {
				fail("ingest query worker: %v", err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			switch {
			case resp.StatusCode == http.StatusOK:
				ingestQueryOks.Add(1)
			case resp.StatusCode == http.StatusTooManyRequests:
				sheds.Add(1)
				time.Sleep(2 * time.Millisecond)
			case resp.StatusCode >= 500:
				server5xx.Add(1)
				fail("ingest query got %d: %s", resp.StatusCode, body)
			default:
				fail("ingest query got %d: %s", resp.StatusCode, body)
			}
		}
	}()

	// Overload worker: bursts of slow sequential scan batches, well
	// past max-inflight + max-queue, arriving together.  The admitted
	// ones occupy slots for many milliseconds, so the extras must shed
	// with 429 — and never 5xx.
	wg.Add(1)
	go func() {
		defer wg.Done()
		slow := batchRequestJSON{Path: "scan", Parallelism: 1}
		for j := 0; j < 32; j++ {
			seq, start := j%10, 5+j%150
			slow.Queries = append(slow.Queries, batchQueryJSON{Seq: &seq, Start: &start, EpsFrac: ptr(0.3)})
		}
		raw, _ := json.Marshal(slow)
		for {
			select {
			case <-stop:
				return
			case <-time.After(150 * time.Millisecond):
			}
			var burst sync.WaitGroup
			for b := 0; b < 16; b++ {
				burst.Add(1)
				go func() {
					defer burst.Done()
					resp, err := client.Post(ts.URL+"/search", "application/json", bytes.NewReader(raw))
					if err != nil {
						fail("burst: %v", err)
						return
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					checkResponse(-1, resp.StatusCode, resp.Header, body)
				}()
			}
			burst.Wait()
		}
	}()

	// Wide-event integrity poller: drain /debug/events from both
	// servers throughout the run, validating every event, then
	// reconcile the drain/miss accounting against the ring's emit
	// counter once traffic stops.  Cursor-based draining means each
	// poll's missed count covers a disjoint seq range, so the totals
	// must tie out exactly: drained + missed == emitted.
	pollEvents := func(base string, c *http.Client, cursor, drained, missed *uint64) (emitted uint64, ok bool) {
		resp, err := c.Get(fmt.Sprintf("%s/debug/events?since=%d&max=512", base, *cursor))
		if err != nil {
			fail("event poll: %v", err)
			return 0, false
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			fail("event poll status %d: %s", resp.StatusCode, body)
			return 0, false
		}
		var page eventsPage
		if err := json.Unmarshal(body, &page); err != nil {
			fail("event poll body: %v", err)
			return 0, false
		}
		for _, e := range page.Events {
			if e.Kind == "" || e.TraceID == "" {
				fail("wide event missing identity: kind=%q trace=%q", e.Kind, e.TraceID)
			}
			switch e.Outcome {
			case "ok", "shed", "client_error", "error":
			default:
				fail("wide event with unknown outcome %q", e.Outcome)
			}
			if (e.Kind == "search" || e.Kind == "search_batch") && e.Outcome == "ok" {
				if e.Stats == nil {
					fail("ok %s event without a stats ledger", e.Kind)
				} else if err := statsFromEvent(e).CheckInvariants(); err != nil {
					fail("wide event stats violate invariants: %v", err)
				}
			}
		}
		*drained += uint64(len(page.Events))
		*missed += page.Missed
		*cursor = page.Next
		return page.Emitted, true
	}
	var (
		evCursor, evDrained, evMissed uint64
		ivCursor, ivDrained, ivMissed uint64
	)
	evStop := make(chan struct{})
	var evWG sync.WaitGroup
	evWG.Add(1)
	go func() {
		defer evWG.Done()
		for {
			select {
			case <-evStop:
				return
			case <-time.After(15 * time.Millisecond):
			}
			pollEvents(ts.URL, client, &evCursor, &evDrained, &evMissed)
			pollEvents(tsIngest.URL, ingestClient, &ivCursor, &ivDrained, &ivMissed)
		}
	}()

	time.Sleep(duration)
	close(stop)
	wg.Wait()

	// Traffic is quiesced: drain each ring to its head and tie out the
	// books.
	close(evStop)
	evWG.Wait()
	drainAll := func(name, base string, c *http.Client, cursor, drained, missed *uint64) {
		for i := 0; i < 1000; i++ {
			emitted, ok := pollEvents(base, c, cursor, drained, missed)
			if !ok {
				return
			}
			if *cursor >= emitted {
				if *drained+*missed != emitted {
					t.Errorf("%s wide-event accounting broken: drained %d + missed %d != emitted %d",
						name, *drained, *missed, emitted)
				}
				if *drained == 0 {
					t.Errorf("%s emitted no wide events; the soak exercised nothing", name)
				}
				return
			}
		}
		t.Errorf("%s: event drain did not converge", name)
	}
	drainAll("query server", ts.URL, client, &evCursor, &evDrained, &evMissed)
	drainAll("ingest server", tsIngest.URL, ingestClient, &ivCursor, &ivDrained, &ivMissed)
	t.Logf("wide events: query server drained %d missed %d; ingest server drained %d missed %d",
		evDrained, evMissed, ivDrained, ivMissed)

	ts.Close()
	tsIngest.Close()
	client.CloseIdleConnections()
	ingestClient.CloseIdleConnections()

	// The run must have actually exercised every chaos dimension.
	t.Logf("soak: %v, %d ok, %d shed, %d clean reloads, %d rejected reloads, %d disconnects, %d appends, %d ingest queries",
		duration, oks.Load(), sheds.Load(), cleanReloads.Load(), rejectedReloads.Load(), disconnects.Load(),
		appendOks.Load(), ingestQueryOks.Load())
	for _, f := range failures {
		t.Error(f)
	}
	if mismatches.Load() > 0 {
		t.Errorf("%d responses diverged from the oracle", mismatches.Load())
	}
	if server5xx.Load() > 0 {
		t.Errorf("%d admitted well-formed requests got 5xx", server5xx.Load())
	}
	if oks.Load() == 0 {
		t.Error("no successful queries; the soak exercised nothing")
	}
	if cleanReloads.Load() < 3 {
		t.Errorf("only %d successful hot reloads, want >= 3", cleanReloads.Load())
	}
	if rejectedReloads.Load() < 1 {
		t.Error("no fault-injected reload was exercised")
	}
	if sheds.Load() < 1 {
		t.Error("overload never shed; admission control was not exercised")
	}
	if disconnects.Load() < 1 {
		t.Error("no client disconnects were exercised")
	}
	if appendOks.Load() < 1 {
		t.Error("no appends were acked; the ingest soak exercised nothing")
	}
	if ingestQueryOks.Load() < 1 {
		t.Error("no queries succeeded against the ingest server")
	}

	// Quiesce the ingest side: clear the fault hook, run one final
	// clean compaction, and check the steady-state invariants.
	iseg.SetCompactHook(nil)
	if err := iseg.Compact(); err != nil {
		t.Errorf("final compaction: %v", err)
	}
	b := iseg.Backlog()
	t.Logf("ingest: %d compactions (%d hook faults), %d frozen segs / %d windows, pause p50 %v p99 %v max %v",
		b.Compactions, hookFaults.Load(), b.Frozen, b.FrozenWindows, b.CompactPauseP50, b.CompactPauseP99, b.CompactPauseMax)
	if b.Compactions < 1 {
		t.Error("no compaction completed during the soak")
	}
	if hookFaults.Load() < 1 {
		t.Error("no fault-injected compaction was exercised")
	}
	if b.DeltaWindows != 0 {
		t.Errorf("%d delta windows remain after the final compaction", b.DeltaWindows)
	}
	// A swap is a pointer publish under the lock, never a build, so the
	// typical stall is microseconds; the tail is held to the run's own
	// median, because a stall the box adds (a preemption, the race
	// detector: one p99 read 3.4ms under -race) moves the tail and not
	// the median, and a multiple of the median scales with the box.
	if b.CompactPauseP50 >= time.Millisecond {
		t.Errorf("compaction swap stall p50 %v, want < 1ms", b.CompactPauseP50)
	}
	if limit := max(time.Millisecond, 200*b.CompactPauseP50); b.CompactPauseP99 > limit {
		t.Errorf("compaction swap stall p99 %v, want at most %v (200 × the p50 of %v, or 1ms)", b.CompactPauseP99, limit, b.CompactPauseP50)
	}
	if err := iseg.Close(); err != nil {
		t.Errorf("closing segmented index: %v", err)
	}

	// Goroutine-leak assertion: everything the run spawned (handlers,
	// batch fan-outs, drain watchers) must wind down.
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

	if out := os.Getenv("SOAK_METRICS_OUT"); out != "" {
		if err := atomicfile.WriteFile(out, obs.Default.WriteJSON); err != nil {
			t.Fatalf("writing soak metrics snapshot: %v", err)
		}
		t.Logf("metrics snapshot written to %s", out)
	}
}

// soakSpecs is the fixed query mix; soakSpecParams mirrors it for the
// batch worker.
func soakSpecs() []string {
	var specs []string
	for i := 0; i < 16; i++ {
		seq, start, epsFrac := soakSpecParams(i)
		specs = append(specs, fmt.Sprintf("/search?seq=%d&start=%d&eps_frac=%g", seq, start, epsFrac))
	}
	return specs
}

func soakSpecParams(i int) (seq, start int, epsFrac float64) {
	fracs := []float64{0.02, 0.05, 0.1, 0.2}
	return i % 10, 5 + (i*11)%150, fracs[i%len(fracs)]
}

// newIngestSoakServer builds the live-append server the soak hammers:
// a segmented index with a small compaction threshold (so the
// background compactor churns constantly), a WAL on disk (so every ack
// pays the real fsync), and a compaction hook that fails every fourth
// run to prove a failed compaction never disturbs serving.
func newIngestSoakServer(t *testing.T) (*server, *core.Index, *atomic.Int64) {
	t.Helper()
	seg, normScale := newTestIndex(t)
	seg.CompactThreshold = 64
	seg.MaxFrozen = 3
	hookFaults := &atomic.Int64{}
	var hookCalls atomic.Int64
	seg.SetCompactHook(func() error {
		if hookCalls.Add(1)%4 == 0 {
			hookFaults.Add(1)
			return fmt.Errorf("injected compaction fault")
		}
		return nil
	})
	log, recs, err := wal.Open(filepath.Join(t.TempDir(), "soak.wal"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	ing, err := newIngestState(seg, log, recs, 0)
	if err != nil {
		t.Fatal(err)
	}
	seg.StartCompactor()
	srv := newServerFromConfig(t, serverConfig{
		snap:   &snapshot{ix: seg, normScale: normScale, how: "built for soak", loadedAt: time.Now()},
		tracer: obs.NewTracer(16),
		logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		serve:  testServeFlags(),
		ingest: ing,
	})
	return srv, seg, hookFaults
}

// newArtifactServerInjected is newArtifactServer with soak-grade
// admission limits: small enough that bursts shed, large enough that
// the steady-state workers mostly get through.
func newArtifactServerInjected(t *testing.T, rcfg reloadConfig, in *faulty.Injector) *server {
	t.Helper()
	obs.Enable()
	t.Cleanup(obs.Disable)
	rcfg.Open = func(path string) (io.ReadCloser, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		return struct {
			io.Reader
			io.Closer
		}{in.Reader(f), f}, nil
	}
	snap, err := newReloader(rcfg).load()
	if err != nil {
		t.Fatal(err)
	}
	serve := testServeFlags()
	serve.MaxInflight = 4
	serve.MaxQueue = 4
	serve.QueueTimeout = 250 * time.Millisecond
	return newServerFromConfig(t, serverConfig{
		snap:   snap,
		tracer: obs.NewTracer(16),
		logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		serve:  serve,
		reload: &rcfg,
	})
}

// soakVal is the deterministic value stream for the recovery soak:
// value j of sequence seq, the same across every restart, so recovered
// state is checkable byte for byte.
func soakVal(seq, j int) float64 {
	return float64(100*seq) + 10*math.Sin(float64(j)/5)
}

// verifyRecoveredSoak asserts the recovered ingest state holds exactly
// the acked appends: per-sequence lengths match seed + acked (loss
// undershoots, double-apply overshoots — both fail), and the tail
// values are bit-identical to the deterministic stream.
func verifyRecoveredSoak(t *testing.T, in *ingestState, seedLen, acked map[int]int, round int) {
	t.Helper()
	seg := in.index()
	for seq, n := range acked {
		want := seedLen[seq] + n
		got := seg.Store().SequenceLen(seq)
		if got != want {
			t.Fatalf("round %d: sequence %d has %d values after recovery, want %d (seed %d + acked %d)",
				round, seq, got, want, seedLen[seq], n)
		}
		if n < 8 {
			continue
		}
		tail := make([]float64, 8)
		if err := seg.QueryWindow(seq, want-8, 8, tail); err != nil {
			t.Fatal(err)
		}
		for i, v := range tail {
			if exp := soakVal(seq, n-8+i); v != exp {
				t.Fatalf("round %d: sequence %d acked value %d diverged after recovery: %g, want %g",
					round, seq, n-8+i, v, exp)
			}
		}
	}
}

// TestSoakRecovery is the kill-and-restart loop: rounds of concurrent
// acked appends with checkpoints firing throughout (and one append-mode
// hot reload per round), each round ending in an abrupt abandon and a
// cold recovery from the checkpoint artifact plus the WAL tail.  The
// invariant is absolute: after every recovery, each sequence holds
// exactly the acked values — zero loss, zero double-apply — regardless
// of where the previous round's checkpoint lifecycle was cut off.
// Duration comes from SOAK_SECONDS (default 2).
func TestSoakRecovery(t *testing.T) {
	duration := 2 * time.Second
	if v := os.Getenv("SOAK_SECONDS"); v != "" {
		secs, err := strconv.Atoi(v)
		if err != nil || secs < 1 {
			t.Fatalf("SOAK_SECONDS = %q", v)
		}
		duration = time.Duration(secs) * time.Second
	}
	dir := t.TempDir()
	walPath := filepath.Join(dir, "ingest.wal")
	ckptBase := filepath.Join(dir, "ckpt")

	const workers = 4
	acked := make(map[int]int, workers)   // per-sequence acked value counts across rounds
	seedLen := make(map[int]int, workers) // pre-append lengths, captured in round 1
	deadline := time.Now().Add(duration)
	round, totalAcked := 0, 0
	for round == 0 || time.Now().Before(deadline) {
		round++
		s, in, c := startAppendServer(t, walPath, ckptBase)
		if round == 1 {
			for seq := 0; seq < workers; seq++ {
				seedLen[seq] = in.index().Store().SequenceLen(seq)
			}
		}
		// Recovery check FIRST: this round's server must already hold
		// every append acked in previous rounds.
		verifyRecoveredSoak(t, in, seedLen, acked, round)

		ts := httptest.NewServer(s)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		counts := make([]int, workers)
		var appendFailure atomic.Pointer[string]
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(seq int) {
				defer wg.Done()
				start := acked[seq]
				local := 0
				for {
					select {
					case <-stop:
						counts[seq] = local
						return
					default:
					}
					k := 5 + local%13
					vals := make([]string, k)
					for i := range vals {
						vals[i] = strconv.FormatFloat(soakVal(seq, start+local+i), 'g', -1, 64)
					}
					body := fmt.Sprintf(`{"seq": %d, "values": [%s]}`, seq, strings.Join(vals, ","))
					resp, err := ts.Client().Post(ts.URL+"/append", "application/json", strings.NewReader(body))
					if err != nil {
						msg := fmt.Sprintf("round %d seq %d: append transport error: %v", round, seq, err)
						appendFailure.CompareAndSwap(nil, &msg)
						counts[seq] = local
						return
					}
					raw, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					switch resp.StatusCode {
					case http.StatusOK:
						local += k
					case http.StatusTooManyRequests: // shed, not acked: retry
					default:
						msg := fmt.Sprintf("round %d seq %d: append status %d: %s", round, seq, resp.StatusCode, raw)
						appendFailure.CompareAndSwap(nil, &msg)
						counts[seq] = local
						return
					}
				}
			}(w)
		}
		// Checkpoints race the appends all round long.
		var ckptWG sync.WaitGroup
		ckptWG.Add(1)
		go func() {
			defer ckptWG.Done()
			for {
				select {
				case <-stop:
					return
				case <-time.After(23 * time.Millisecond):
				}
				if _, err := c.run(); err != nil {
					msg := fmt.Sprintf("round %d: checkpoint failed: %v", round, err)
					appendFailure.CompareAndSwap(nil, &msg)
				}
			}
		}()

		roundDur := 350 * time.Millisecond
		time.Sleep(roundDur / 2)
		// One hot reload per round, mid-traffic: the checkpoint barrier
		// must not drop any append acked before it.
		if err := s.Reload(); err != nil {
			t.Fatalf("round %d: append-mode reload: %v", round, err)
		}
		time.Sleep(roundDur / 2)

		close(stop)
		wg.Wait()
		ckptWG.Wait()
		ts.Close()
		if msg := appendFailure.Load(); msg != nil {
			t.Fatal(*msg)
		}
		for seq := 0; seq < workers; seq++ {
			acked[seq] += counts[seq]
			totalAcked += counts[seq]
		}
		// The server is now ABANDONED mid-lifecycle — no flush, no
		// graceful close.  The next round's startAppendServer is the
		// crash recovery under test.
	}

	// One final cold recovery after the last abandon.
	_, inFinal, _ := startAppendServer(t, walPath, ckptBase)
	verifyRecoveredSoak(t, inFinal, seedLen, acked, round+1)
	t.Logf("recovery soak: %d rounds, %d acked appends verified across restarts", round, totalAcked)
}
