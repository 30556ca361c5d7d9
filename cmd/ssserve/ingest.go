package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"scaleshift/internal/core"
	"scaleshift/internal/obs"
	"scaleshift/internal/store"
	"scaleshift/internal/wal"
)

// maxAppendValues bounds one append request; larger loads belong in
// ssgen.  (The 1 MiB body cap binds first for JSON floats anyway.)
const maxAppendValues = 65536

// ingestState wires live ingest into the server: the segmented index
// absorbing appends, the write-ahead log making them durable before
// the ack, and the name→sequence directory for by-name appends.
// ingest.mu serializes the WAL-then-apply pair so the log order always
// matches the store order.
type ingestState struct {
	mu    sync.Mutex
	seg   *core.Index
	log   *wal.Log // nil: durability delegated to the caller (tests)
	names map[string]int
}

// newIngestState builds the directory from the store the segmented
// index currently covers, then replays outstanding WAL records into it.
// ckptOffset is the recovered checkpoint's WAL offset: records ending
// at or below it are already contained in the checkpoint and are
// skipped, which is what keeps recovery cost proportional to the WAL
// tail instead of the full ingest history (pass 0 to replay all).
func newIngestState(seg *core.Index, log *wal.Log, recs []wal.Record, ckptOffset int64) (*ingestState, error) {
	st := seg.Store()
	in := &ingestState{seg: seg, log: log, names: make(map[string]int, st.NumSequences())}
	for seq := 0; seq < st.NumSequences(); seq++ {
		in.names[st.SequenceName(seq)] = seq
	}
	for i, rec := range recs {
		if rec.End <= ckptOffset {
			continue
		}
		if rec.Name != "" && rec.Seq < 0 {
			if seq, ok := in.names[rec.Name]; ok {
				// The checkpoint already contains this sequence; the log
				// record predates it only in part — append the values.
				if err := in.seg.AppendValues(seq, rec.Values); err != nil {
					return nil, fmt.Errorf("wal replay, record %d: %w", i, err)
				}
				continue
			}
			seq, err := in.seg.AppendAndIndex(rec.Name, rec.Values)
			if err != nil {
				return nil, fmt.Errorf("wal replay, record %d: %w", i, err)
			}
			in.names[rec.Name] = seq
			continue
		}
		if rec.Seq < 0 || rec.Seq >= st.NumSequences() {
			return nil, fmt.Errorf("wal replay, record %d: sequence %d out of range", i, rec.Seq)
		}
		if err := in.seg.AppendValues(rec.Seq, rec.Values); err != nil {
			return nil, fmt.Errorf("wal replay, record %d: %w", i, err)
		}
	}
	return in, nil
}

// appendRequestJSON is the POST /append body: values for an existing
// sequence (by id or name), or a brand-new named sequence.
type appendRequestJSON struct {
	Seq    *int      `json:"seq,omitempty"`
	Name   string    `json:"name,omitempty"`
	Values []float64 `json:"values"`
}

// appendResponseJSON acknowledges a durable append.
type appendResponseJSON struct {
	Seq        int   `json:"seq"`
	SeqLen     int   `json:"seq_len"`
	Windows    int   `json:"windows"`
	Generation int64 `json:"generation"`
	Created    bool  `json:"created,omitempty"`
}

// handleAppend is the live-ingest endpoint.  The ordering contract is
// WAL-before-ack: the values are fsync'd to the log, then applied to
// the segmented index (which publishes a new manifest generation), and
// only then acknowledged — so an acked append survives a crash, and a
// search issued after the ack sees the appended windows.
func (s *server) handleAppend(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("append requires POST"))
		return
	}
	in := s.ingest
	if in == nil {
		s.writeError(w, http.StatusConflict, fmt.Errorf("append unavailable: server was not started with -append"))
		return
	}
	var req appendRequestJSON
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		s.writeError(w, status, fmt.Errorf("decoding append body: %w", err))
		return
	}
	if len(req.Values) == 0 {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("append has no values"))
		return
	}
	if len(req.Values) > maxAppendValues {
		s.writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("append of %d values exceeds the %d-value limit", len(req.Values), maxAppendValues))
		return
	}
	if err := store.CheckDomain(-1, 0, req.Values); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if (req.Seq == nil) == (req.Name == "") {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("provide exactly one of seq or name"))
		return
	}

	// Trace the durable path: the wal span covers the fsync'd log write,
	// the apply span the in-memory delta application.  An inbound
	// traceparent is adopted and echoed exactly as on /search.
	describe := req.Name
	if req.Seq != nil {
		describe = fmt.Sprintf("seq %d", *req.Seq)
	}
	describe = fmt.Sprintf("append %d values to %s", len(req.Values), describe)
	ctx, root := s.tracer.StartTraceWithID(r.Context(), "append",
		obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader)))
	root.SetAttr("query", describe)
	if id := obs.TraceIDFromContext(ctx); id != "" {
		w.Header().Set(obs.TraceparentHeader, obs.FormatTraceparent(id))
	}
	fail := func(status int, err error) {
		root.SetAttr("error", err.Error())
		root.End()
		s.fillAppendDraft(ctx, root, describe, 0)
		s.writeError(w, status, err)
	}

	in.mu.Lock()
	defer in.mu.Unlock()
	seq, created := -1, false
	if req.Seq != nil {
		seq = *req.Seq
		if seq < 0 || seq >= in.seg.Store().NumSequences() {
			fail(http.StatusNotFound, fmt.Errorf("sequence %d does not exist", seq))
			return
		}
	} else if known, ok := in.names[req.Name]; ok {
		seq = known
	} else {
		created = true
	}

	// Durability first: nothing is applied, let alone acked, before the
	// log write is on disk.
	if in.log != nil {
		_, walSpan := obs.StartSpan(ctx, "wal")
		var err error
		if created {
			err = in.log.AppendSequence(req.Name, req.Values)
		} else {
			err = in.log.AppendValues(seq, req.Values)
		}
		walSpan.End()
		if err != nil {
			fail(http.StatusInternalServerError, err)
			return
		}
	}
	_, applySpan := obs.StartSpan(ctx, "apply")
	if created {
		newSeq, err := in.seg.AppendAndIndex(req.Name, req.Values)
		if err != nil {
			applySpan.End()
			fail(http.StatusInternalServerError, err)
			return
		}
		in.names[req.Name] = newSeq
		seq = newSeq
	} else if err := in.seg.AppendValues(seq, req.Values); err != nil {
		applySpan.End()
		fail(http.StatusInternalServerError, err)
		return
	}
	applySpan.End()
	root.End()
	s.fillAppendDraft(ctx, root, describe, len(req.Values))

	s.writeJSON(w, http.StatusOK, appendResponseJSON{
		Seq:        seq,
		SeqLen:     in.seg.Store().SequenceLen(seq),
		Windows:    in.seg.WindowCount(),
		Generation: in.seg.Generation(),
		Created:    created,
	})
}

// fillAppendDraft records the append into the request's wide-event
// draft (Matches doubles as the applied value count).
func (s *server) fillAppendDraft(ctx context.Context, root *obs.Span, describe string, values int) {
	d := eventDraftFrom(ctx)
	if d == nil {
		return
	}
	d.trace = root.Trace()
	d.query = describe
	d.matches = values
}

// index reads the live segmented index under the ingest lock: the
// append-mode reload barrier swaps in.seg, so unlocked reads of the
// pointer would race with it.
func (in *ingestState) index() *core.Index {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.seg
}

// ingestDetail summarizes the compaction backlog for /readyz.  The
// ingest lock covers both the seg pointer read (racing reloads) and the
// WAL size read (racing appends).
func (in *ingestState) detail() map[string]interface{} {
	in.mu.Lock()
	b := in.seg.Backlog()
	var walBytes int64
	if in.log != nil {
		walBytes = in.log.Size()
	}
	in.mu.Unlock()
	d := map[string]interface{}{
		"generation":        b.Generation,
		"frozen_segments":   b.Frozen,
		"frozen_windows":    b.FrozenWindows,
		"delta_windows":     b.DeltaWindows,
		"compactions":       b.Compactions,
		"compact_pause_p99": b.CompactPauseP99.String(),
		"compact_pause_max": b.CompactPauseMax.String(),
		"wal_bytes":         walBytes,
	}
	if b.LastCompactErr != "" {
		d["last_compact_error"] = b.LastCompactErr
	}
	if err := in.walPoisoned(); err != nil {
		d["wal_poisoned"] = err.Error()
	}
	return d
}

// walPoisoned is the cause that poisoned the write-ahead log, or nil
// while it accepts appends (and without one).
func (in *ingestState) walPoisoned() error {
	if in.log == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.log.Poisoned()
}

// publishIngestGauges refreshes the ingest gauges; cheap enough to run
// per scrape via the registry callback would be nicer, but the metrics
// layer is pull-printed, so the readiness path refreshes them instead.
func (s *server) publishIngestGauges() {
	if s.ingest == nil {
		return
	}
	b := s.ingest.index().Backlog()
	s.reg.Gauge("scaleshift_ingest_delta_windows", "Windows awaiting compaction in the mutable delta.").Set(float64(b.DeltaWindows))
	s.reg.Gauge("scaleshift_ingest_frozen_segments", "Frozen segments in the manifest.").Set(float64(b.Frozen))
	s.reg.Gauge("scaleshift_ingest_generation", "Published manifest generation.").Set(float64(b.Generation))
	if s.ckpt != nil {
		s.reg.Gauge("scaleshift_wal_bytes", "Bytes of WAL retained past the last truncation (bounds recovery replay).").Set(float64(s.ckpt.walBytes()))
		s.reg.Gauge("scaleshift_checkpoint_age_seconds", "Seconds since the last durable checkpoint.").Set(s.ckpt.age().Seconds())
	}
}
