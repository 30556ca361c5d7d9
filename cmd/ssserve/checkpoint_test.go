package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"scaleshift/internal/ckpt"
	"scaleshift/internal/core"
	"scaleshift/internal/obs"
	"scaleshift/internal/oracle"
	"scaleshift/internal/query"
	"scaleshift/internal/store"
	"scaleshift/internal/wal"
)

// startAppendServer mirrors ssserve's append-mode startup end to end:
// recover the checkpoint when one loads, otherwise build from the
// deterministic test seed, validate the recovery covers every acked
// append, and replay the WAL tail past the checkpoint's offset.
// Calling it again over the same paths IS the crash-recovery path the
// tests exercise.
func startAppendServer(t *testing.T, walPath, ckptBase string) (*server, *ingestState, *checkpointer) {
	t.Helper()
	obs.Enable()
	t.Cleanup(obs.Disable)

	var seg *core.Index
	var normScale float64
	var recovered *ckpt.Result
	res, _, err := ckpt.Recover(ckptBase)
	switch {
	case err == nil:
		recovered = res
		seg = res.Seg
		if normScale, err = query.SENormScale(res.Store, seg.Options().WindowLen, 200, 3); err != nil {
			t.Fatal(err)
		}
	case errors.Is(err, ckpt.ErrNoCheckpoint):
		seg, normScale = newTestIndex(t)
	default:
		t.Fatal(err)
	}
	t.Cleanup(func() { seg.Close() })

	log, recs, err := wal.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	if err := validateRecovery(recovered, log); err != nil {
		t.Fatal(err)
	}
	var off int64
	if recovered != nil {
		off = recovered.Meta.WALOffset
	}
	in, err := newIngestState(seg, log, recs, off)
	if err != nil {
		t.Fatal(err)
	}
	seg.StartCompactor()
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	c := newCheckpointer(checkpointConfig{Path: ckptBase, Seed: 1}, in, logger, recovered)
	s := newServerFromConfig(t, serverConfig{
		snap:   &snapshot{ix: seg, normScale: normScale, how: "built for test", loadedAt: time.Now()},
		tracer: obs.NewTracer(16),
		logger: logger,
		serve:  testServeFlags(),
		ingest: in,
		ckpt:   c,
	})
	return s, in, c
}

// appendRamp acks nvals deterministic values onto sequence seq.
func appendRamp(t *testing.T, s *server, seq, base, nvals int) {
	t.Helper()
	vals := make([]string, nvals)
	for i := range vals {
		vals[i] = fmt.Sprintf("%g", float64(base)+3*math.Sin(float64(i)/3))
	}
	resp, raw := postAppend(t, s, fmt.Sprintf(`{"seq": %d, "values": [%s]}`, seq, strings.Join(vals, ",")))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append seq %d: %d: %s", seq, resp.StatusCode, raw)
	}
}

// segSearch runs one deterministic query (the last window of sequence
// 0) and returns the matches sorted by position, so results compare
// structurally even when the frozen/delta split differs between the
// live oracle and a recovered index.
func segSearch(t *testing.T, seg *core.Index) []core.Match {
	t.Helper()
	n := seg.Options().WindowLen
	q := make([]float64, n)
	if err := seg.QueryWindow(0, seg.Store().SequenceLen(0)-n, n, q); err != nil {
		t.Fatal(err)
	}
	res, err := seg.Exec(context.Background(), core.Query{Vec: q, Eps: 0.05}, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Matches
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seq != out[j].Seq {
			return out[i].Seq < out[j].Seq
		}
		return out[i].Start < out[j].Start
	})
	return out
}

func requireSameSearch(t *testing.T, want, got []core.Match, context string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d matches, oracle has %d", context, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: match %d diverged: %+v vs oracle %+v", context, i, got[i], want[i])
		}
	}
}

// TestCheckpointBoundedRecovery is the tentpole contract: restart cost
// is the WAL tail past the checkpoint, not the full append history,
// and the recovered search surface is bit-identical to the uncrashed
// server's.
func TestCheckpointBoundedRecovery(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "ingest.wal")
	ckptBase := filepath.Join(dir, "ckpt")
	s, in, c := startAppendServer(t, walPath, ckptBase)

	// Workload 1 is covered by the checkpoint; workload 2 is the tail.
	appendRamp(t, s, 0, 10, 40)
	appendRamp(t, s, 1, 90, 25)
	appendRamp(t, s, 2, 55, 37)
	meta, err := c.run()
	if err != nil {
		t.Fatal(err)
	}
	if meta.Generation != 1 || meta.WALOffset <= 0 {
		t.Fatalf("first checkpoint meta: %+v", meta)
	}
	appendRamp(t, s, 3, 42, 33)
	appendRamp(t, s, 0, 11, 5)
	oracleWindows := in.index().WindowCount()
	acked := oracle.FromStore(in.index().Store())

	// "Crash" (abandon the live server) and restart from disk: only the
	// two tail records may replay.
	log2, recs2, err := wal.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	tail := 0
	for _, rec := range recs2 {
		if rec.End > meta.WALOffset {
			tail++
		}
	}
	log2.Close()
	if tail != 2 {
		t.Fatalf("WAL holds %d records past the checkpoint, want the 2 tail appends", tail)
	}

	_, in2, c2 := startAppendServer(t, walPath, ckptBase)
	if got := in2.index().WindowCount(); got != oracleWindows {
		t.Fatalf("recovered index covers %d windows, oracle %d", got, oracleWindows)
	}
	exactOver(t, acked, in2.index())
	if c2.gen.Load() != 1 {
		t.Fatalf("recovered checkpointer resumes at generation %d, want 1", c2.gen.Load())
	}

	// A second checkpoint truncates the WAL through the first one's
	// offset (lag-one): the log's base advances, and steady-state WAL
	// size is bounded by the window between checkpoints.
	if _, err := c2.run(); err != nil {
		t.Fatal(err)
	}
	log3, _, err := wal.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer log3.Close()
	if log3.Base() != meta.WALOffset {
		t.Fatalf("after the second checkpoint the WAL starts at %d, want the first checkpoint's offset %d", log3.Base(), meta.WALOffset)
	}
}

// TestCheckpointCrashMatrix kills the lifecycle at each phase — before
// the flush; after the segment files are fsynced but before the
// manifest; between the manifest renames; before the segment-file
// collection; after the install but before the WAL truncation; mid
// append-mode reload; and cleanly after truncation — and proves
// recovery reconstructs the acked state bit-identically every time.
// The pre-truncate window is the torn-write case: the checkpoint is
// durable but the WAL still holds records the checkpoint also
// contains, and replay must not double-apply them.
func TestCheckpointCrashMatrix(t *testing.T) {
	for _, phase := range []string{"pre-flush", ckpt.PhaseSegmentsSynced, ckpt.PhaseMidRotate, ckpt.PhasePreGC,
		"pre-truncate", "mid-reload", "post-truncate"} {
		t.Run(phase, func(t *testing.T) {
			dir := t.TempDir()
			walPath := filepath.Join(dir, "ingest.wal")
			ckptBase := filepath.Join(dir, "ckpt")
			s, in, c := startAppendServer(t, walPath, ckptBase)

			appendRamp(t, s, 0, 10, 40)
			appendRamp(t, s, 1, 90, 25)
			if _, err := c.run(); err != nil {
				t.Fatal(err)
			}
			appendRamp(t, s, 2, 55, 37)
			resp, raw := postAppend(t, s, fmt.Sprintf(`{"name": "CRASH", "values": [%s]}`, strings.Repeat("7,", 39)+"7"))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("append new sequence: %d: %s", resp.StatusCode, raw)
			}
			oracleWindows := in.index().WindowCount()
			acked := oracle.FromStore(in.index().Store())

			boom := errors.New("injected crash")
			c.testHook = func(p string) error {
				if p == phase {
					return boom
				}
				return nil
			}
			switch phase {
			case "mid-reload":
				if err := s.Reload(); !errors.Is(err, boom) {
					t.Fatalf("reload with %s crash armed: %v", phase, err)
				}
			case "post-truncate":
				// No hook fires: the full cycle completes, then the
				// process dies. Recovery replays an empty tail.
				if _, err := c.run(); err != nil {
					t.Fatal(err)
				}
			default:
				if _, err := c.run(); !errors.Is(err, boom) {
					t.Fatalf("checkpoint with %s crash armed: %v", phase, err)
				}
			}

			_, in2, _ := startAppendServer(t, walPath, ckptBase)
			if got := in2.index().WindowCount(); got != oracleWindows {
				t.Fatalf("recovered index covers %d windows, oracle %d", got, oracleWindows)
			}
			exactOver(t, acked, in2.index())
			if seq, ok := in2.names["CRASH"]; !ok || in2.index().Store().SequenceLen(seq) != 40 {
				t.Fatalf("acked named sequence lost across %s crash (names=%v)", phase, in2.names)
			}
		})
	}
}

// TestCheckpointCorruptionSweep flips every byte of a checkpoint's
// manifest and of every segment file it names, one at a time, and
// deletes each segment file in turn.  A damaged manifest must be
// DETECTED and rejected with a loud typed warning, recovery falling
// back to .prev and its WAL tail; a damaged or missing segment file is
// derived state, rebuilt from the manifest's store with a loud warning.
// Either way the recovered answers equal the uncrashed server's —
// never a panic, never silently serving damaged data.  Before the
// second checkpoint, with no .prev yet and the WAL's full history on
// disk, a torn manifest falls back to a full replay; once the WAL is
// truncated, a rejected chain refuses instead.
func TestCheckpointCorruptionSweep(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "ingest.wal")
	ckptBase := filepath.Join(dir, "ckpt")

	// A deliberately tiny dataset keeps the files small enough to sweep
	// exhaustively.
	opts := core.DefaultOptions()
	opts.WindowLen = 8
	opts.Coefficients = 2
	seg, err := core.NewIndex(st2Clone(t), opts)
	if err == nil {
		err = seg.Build()
	}
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	// No tiering: each checkpoint's compaction adds a segment, so the
	// second manifest names the first one's files as well as its own.
	seg.MergeRatio = 0

	log, recs, err := wal.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if len(recs) != 0 {
		t.Fatalf("fresh wal replayed %d records", len(recs))
	}
	in, err := newIngestState(seg, log, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	c := newCheckpointer(checkpointConfig{Path: ckptBase, Seed: 1}, in, logger, nil)

	// Ack appends through the WAL path, then checkpoint. The WAL is NOT
	// truncated after the first checkpoint (lag-one bound is zero), so
	// full replay stays possible.
	ack := func(seq int, vals []float64) {
		in.mu.Lock()
		defer in.mu.Unlock()
		if err := in.log.AppendValues(seq, vals); err != nil {
			t.Fatal(err)
		}
		if err := in.seg.AppendValues(seq, vals); err != nil {
			t.Fatal(err)
		}
	}
	ack(0, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	if _, err := c.run(); err != nil {
		t.Fatal(err)
	}
	oracleWindows := seg.WindowCount()
	p := ckpt.PathsFor(ckptBase)
	raw, err := os.ReadFile(p.Cur)
	if err != nil {
		t.Fatal(err)
	}

	// Full-replay fallback: with the only manifest torn but the WAL
	// complete from offset zero, a fresh server reconstructs the acked
	// state exactly — corruption cost is a slower restart, never loss.
	if err := os.WriteFile(p.Cur, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, warns, err := ckpt.Recover(ckptBase); !errors.Is(err, ckpt.ErrNoCheckpoint) || len(warns) != 1 || warns[0].Path != p.Cur {
		t.Fatalf("torn only manifest: want ErrNoCheckpoint with one warning, got %v (warnings %v)", err, warns)
	}
	_, recs, err = wal.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := validateRecovery(nil, log); err != nil {
		t.Fatalf("full replay should be valid with an untruncated WAL: %v", err)
	}
	seg2, err := core.NewIndex(st2Clone(t), opts)
	if err == nil {
		err = seg2.Build()
	}
	if err != nil {
		t.Fatal(err)
	}
	defer seg2.Close()
	in2, err := newIngestState(seg2, nil, recs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := in2.index().WindowCount(); got != oracleWindows {
		t.Fatalf("full replay covers %d windows, oracle %d", got, oracleWindows)
	}
	if err := os.WriteFile(p.Cur, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// A second checkpoint: .prev exists, and the WAL keeps the tail past
	// the first checkpoint's offset.
	ack(1, []float64{4, 8, 15, 16, 23, 42, 4, 8, 15, 16, 23, 42})
	if _, err := c.run(); err != nil {
		t.Fatal(err)
	}
	ack(0, []float64{3, 1, 4, 1, 5})
	oracle := segSearch(t, seg)
	oracleWindows = seg.WindowCount()
	_, recs, err = wal.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}

	// recoverSame recovers from disk, replays the WAL tail past the
	// recovered checkpoint, and requires the oracle's answers; it
	// returns the recovery's source and warnings.
	recoverSame := func(what string) (string, []ckpt.Warning) {
		t.Helper()
		res, warns, err := ckpt.Recover(ckptBase)
		if err != nil {
			t.Fatalf("%s: %v (warnings %v)", what, err, warns)
		}
		defer res.Seg.Close()
		rin, err := newIngestState(res.Seg, nil, recs, res.Meta.WALOffset)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := rin.index().WindowCount(); got != oracleWindows {
			t.Fatalf("%s: recovered %d windows, oracle %d", what, got, oracleWindows)
		}
		requireSameSearch(t, oracle, segSearch(t, rin.index()), what)
		return res.Source, warns
	}

	raw, err = os.ReadFile(p.Cur)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sweeping %d bytes of the manifest", len(raw))
	for i := range raw {
		damaged := append([]byte(nil), raw...)
		damaged[i] ^= 0xFF
		if err := os.WriteFile(p.Cur, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("manifest byte %d", i)
		src, warns := recoverSame(what)
		if src != p.Prev || len(warns) != 1 || warns[0].Path != p.Cur || warns[0].Err == nil || warns[0].Rebuilt {
			t.Fatalf("%s: recovered from %s with warnings %v; want .prev and one loud rejection of the manifest", what, src, warns)
		}
	}
	if err := os.WriteFile(p.Cur, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	files, err := filepath.Glob(filepath.Join(ckpt.SegmentDir(ckptBase), "*.sseg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 3 {
		t.Fatalf("segment files %v, want the three the current manifest names", files)
	}
	wantRebuilt := func(what, path string, warns []ckpt.Warning) {
		t.Helper()
		if len(warns) != 1 || warns[0].Path != path || !warns[0].Rebuilt || warns[0].Err == nil {
			t.Fatalf("%s: warnings %v; want one loud rebuild of %s", what, warns, path)
		}
	}
	for _, path := range files {
		good, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("sweeping %d bytes of %s", len(good), filepath.Base(path))
		for i := range good {
			damaged := append([]byte(nil), good...)
			damaged[i] ^= 0xFF
			if err := os.WriteFile(path, damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("%s byte %d", filepath.Base(path), i)
			src, warns := recoverSame(what)
			if src != p.Cur {
				t.Fatalf("%s: a damaged segment file cost the manifest (recovered from %s)", what, src)
			}
			wantRebuilt(what, path, warns)
		}
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		what := "deleted " + filepath.Base(path)
		src, warns := recoverSame(what)
		if src != p.Cur {
			t.Fatalf("%s: a missing segment file cost the manifest (recovered from %s)", what, src)
		}
		wantRebuilt(what, path, warns)
		if err := os.WriteFile(path, good, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// With the WAL truncated past offset zero, a chain whose manifests
	// are both rejected must REFUSE loudly instead of silently dropping
	// the checkpointed prefix.
	if err := os.WriteFile(p.Cur, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p.Prev, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ckpt.Recover(ckptBase); !errors.Is(err, ckpt.ErrNoCheckpoint) {
		t.Fatalf("both manifests damaged: want ErrNoCheckpoint, got %v", err)
	}
	if err := validateRecovery(nil, log); !errors.Is(err, errUnrecoverable) {
		t.Fatalf("truncated WAL without a checkpoint: want errUnrecoverable, got %v", err)
	}
}

// st2Clone rebuilds the sweep's tiny seed store (pre-append state), as
// a cold start from seed data would.
func st2Clone(t *testing.T) *store.Store {
	t.Helper()
	st := store.New()
	for s := 0; s < 2; s++ {
		vals := make([]float64, 24)
		for i := range vals {
			vals[i] = 50 + 10*math.Sin(float64(i+9*s)/4)
		}
		st.AppendSequence([]string{"a", "b"}[s], vals)
	}
	return st
}

// TestAppendModeReload proves hot reload works again under -append:
// the checkpoint barrier flushes every acked append, the swapped-in
// snapshot serves the identical search surface, and ingest continues
// (by id and by name) on the fresh index.
func TestAppendModeReload(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "ingest.wal")
	ckptBase := filepath.Join(dir, "ckpt")
	s, in, _ := startAppendServer(t, walPath, ckptBase)

	appendRamp(t, s, 0, 10, 40)
	resp, raw := postAppend(t, s, `{"name": "HOT", "values": [`+strings.Repeat("3,", 39)+`3]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append: %d: %s", resp.StatusCode, raw)
	}
	acked := oracle.FromStore(in.index().Store())
	oracleWindows := in.index().WindowCount()

	rr := httptest.NewRequest(http.MethodPost, "/admin/reload", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, rr)
	if rec.Code != http.StatusOK {
		t.Fatalf("append-mode reload: %d: %s", rec.Code, rec.Body)
	}

	if got := in.index().WindowCount(); got != oracleWindows {
		t.Fatalf("reloaded index covers %d windows, want %d", got, oracleWindows)
	}
	exactOver(t, acked, in.index())

	// The serving snapshot swapped to the recovered generation…
	gr, gbody := get(t, s, "/readyz")
	if gr.StatusCode != http.StatusOK {
		t.Fatalf("readyz after reload: %d: %s", gr.StatusCode, gbody)
	}
	var detail map[string]interface{}
	if err := json.Unmarshal(gbody, &detail); err != nil {
		t.Fatal(err)
	}
	snapDetail := detail["snapshot"].(map[string]interface{})
	if how := snapDetail["how"].(string); !strings.Contains(how, "reloaded from checkpoint") {
		t.Fatalf("snapshot did not swap: how=%q", how)
	}
	ckptDetail, ok := detail["checkpoint"].(map[string]interface{})
	if !ok || ckptDetail["generation"].(float64) < 1 {
		t.Fatalf("readyz missing checkpoint detail: %s", gbody)
	}

	// …and ingest keeps working on it, including by-name resolution
	// through the rebuilt directory.
	appendRamp(t, s, 0, 12, 6)
	resp, raw = postAppend(t, s, `{"name": "HOT", "values": [4, 5]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append after reload: %d: %s", resp.StatusCode, raw)
	}
	var ack appendResponseJSON
	if err := json.Unmarshal(raw, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Created || ack.SeqLen != 42 {
		t.Fatalf("by-name append after reload: %+v", ack)
	}

	// No acked append may be lost across reload + crash + recovery.
	acked = oracle.FromStore(in.index().Store())
	oracleWindows2 := in.index().WindowCount()
	_, in2, _ := startAppendServer(t, walPath, ckptBase)
	if got := in2.index().WindowCount(); got != oracleWindows2 {
		t.Fatalf("post-reload recovery covers %d windows, oracle %d", got, oracleWindows2)
	}
	exactOver(t, acked, in2.index())
}

// TestAdminCheckpointEndpoint covers the operational trigger and its
// unavailability on servers without checkpointing.
func TestAdminCheckpointEndpoint(t *testing.T) {
	dir := t.TempDir()
	s, _, _ := startAppendServer(t, filepath.Join(dir, "ingest.wal"), filepath.Join(dir, "ckpt"))
	appendRamp(t, s, 0, 10, 12)

	req := httptest.NewRequest(http.MethodPost, "/admin/checkpoint", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /admin/checkpoint: %d: %s", rec.Code, rec.Body)
	}
	var body map[string]interface{}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["generation"].(float64) != 1 || body["wal_offset"].(float64) <= 0 {
		t.Fatalf("checkpoint response: %v", body)
	}

	req = httptest.NewRequest(http.MethodGet, "/admin/checkpoint", nil)
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /admin/checkpoint: %d", rec.Code)
	}

	plain := newTestServer(t)
	req = httptest.NewRequest(http.MethodPost, "/admin/checkpoint", nil)
	rec = httptest.NewRecorder()
	plain.ServeHTTP(rec, req)
	if rec.Code != http.StatusConflict {
		t.Fatalf("checkpoint without -checkpoint: %d, want 409", rec.Code)
	}

	// /readyz reports what the checkpoint wrote and the segment files
	// on disk, and the metrics surface carries the WAL/checkpoint gauges
	// after a readiness probe refreshes them.
	_, rbody := get(t, s, "/readyz")
	var ready struct {
		Checkpoint struct {
			Generation   int64 `json:"generation"`
			BytesWritten int64 `json:"bytes_written"`
			SegmentFiles int64 `json:"segment_files"`
		} `json:"checkpoint"`
	}
	if err := json.Unmarshal(rbody, &ready); err != nil {
		t.Fatal(err)
	}
	if c := ready.Checkpoint; c.Generation != 1 || c.SegmentFiles < 1 || c.BytesWritten <= 0 {
		t.Fatalf("readyz checkpoint block: %+v", c)
	}
	mr, mbody := get(t, s, "/metrics")
	if mr.StatusCode != http.StatusOK {
		t.Fatal("metrics unavailable")
	}
	for _, name := range []string{"scaleshift_wal_bytes", "scaleshift_checkpoint_age_seconds", "scaleshift_checkpoint_bytes_total"} {
		if !strings.Contains(string(mbody), name) {
			t.Errorf("metrics missing %s", name)
		}
	}
}

// TestCheckpointMaxLagBlocksReadiness: with -checkpoint-max-lag set, a
// checkpoint older than the bound takes the instance out of rotation
// (/readyz 503, lag_exceeded), and a checkpoint brings it back.
func TestCheckpointMaxLagBlocksReadiness(t *testing.T) {
	dir := t.TempDir()
	s, _, c := startAppendServer(t, filepath.Join(dir, "ingest.wal"), filepath.Join(dir, "ckpt"))
	appendRamp(t, s, 0, 10, 12)
	c.cfg.MaxLag = time.Minute
	c.lastAt.Store(time.Now().Add(-2 * time.Minute).UnixNano()) // no checkpoint for two minutes
	readyz := func() (int, bool) {
		t.Helper()
		resp, body := get(t, s, "/readyz")
		var ready struct {
			Checkpoint struct {
				LagExceeded bool `json:"lag_exceeded"`
			} `json:"checkpoint"`
		}
		if err := json.Unmarshal(body, &ready); err != nil {
			t.Fatalf("/readyz: %v: %s", err, body)
		}
		return resp.StatusCode, ready.Checkpoint.LagExceeded
	}
	if code, lagged := readyz(); code != http.StatusServiceUnavailable || !lagged {
		t.Fatalf("checkpoint two minutes old under a one-minute bound: /readyz %d, lag_exceeded %v", code, lagged)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admin/checkpoint", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /admin/checkpoint: %d: %s", rec.Code, rec.Body)
	}
	if code, lagged := readyz(); code != http.StatusOK || lagged {
		t.Fatalf("after a checkpoint: /readyz %d, lag_exceeded %v", code, lagged)
	}
}
