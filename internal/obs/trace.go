package obs

import (
	"context"
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The tracer gives every query a structured timeline: a Trace is one
// request, a Span is one stage (plan, probe, rtree descent, verify,
// ...), and completed traces land in bounded in-memory reservoir
// buckets that /debug/traces dumps.  Propagation is by context:
// StartTrace roots a trace in a context, StartSpan opens a child of
// whatever span the context carries.  A context without an active span
// yields a nil *Span whose methods are no-ops and allocates nothing —
// the disabled path costs one context lookup.
//
// Retention is tail-biased, not keep-recent: alongside the ring of
// most recent traces, separate buckets hold the slowest and the
// errored traces seen so far.  A burst of ten thousand fast
// queries can therefore never evict the one slow or failing trace an
// operator needs — which is exactly the trace worth keeping.

// Attr is one key-value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Tracer owns the retention buckets and issues trace IDs.
type Tracer struct {
	mu      sync.Mutex
	recent  []*Trace // fixed capacity ring, next points at the oldest slot
	next    int
	slowest []*Trace // top-K by root duration, unordered
	errored []*Trace // ring of traces with an error attr
	errNext int
	auxCap  int
	base    uint32
	seq     atomic.Uint32
}

// NewTracer returns a tracer keeping the most recent capacity traces
// (minimum 1) plus tail-retention buckets of max(4, capacity/8)
// slowest and errored traces each.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	auxCap := capacity / 8
	if auxCap < 4 {
		auxCap = 4
	}
	return &Tracer{
		recent: make([]*Trace, 0, capacity),
		auxCap: auxCap,
		base:   uint32(time.Now().UnixNano() >> 10),
	}
}

// Trace is one request's span collection.  Spans append under mu; the
// bucket snapshot readers take the same mutex, so a trace can be
// dumped while its query is still running.  The classification fields
// (dur, err) are stamped once at commit, under mu.
type Trace struct {
	tracer *Tracer
	id     string
	name   string
	start  time.Time
	mu     sync.Mutex
	spans  []*Span
	nextID int
	dur    time.Duration
	err    bool
}

// ID returns the trace's identifier (16 hex characters, unique within
// the process).
func (tr *Trace) ID() string { return tr.id }

// Span is one timed stage of a trace.  All methods are safe on a nil
// receiver, which is how the disabled path stays free: StartSpan
// returns nil when the context carries no trace.
type Span struct {
	trace  *Trace
	id     int
	parent int
	name   string
	start  time.Time
	end    time.Time // zero while in flight; guarded by trace.mu
	attrs  []Attr    // guarded by trace.mu
}

type spanCtxKey struct{}

// StartTrace begins a new trace rooted at a span with the given name
// and returns a context carrying it.  When the observability layer is
// disabled (or t is nil) the context is returned unchanged with a nil
// span.
func (t *Tracer) StartTrace(ctx context.Context, name string) (context.Context, *Span) {
	return t.StartTraceWithID(ctx, name, "")
}

// StartTraceWithID is StartTrace adopting an externally assigned trace
// ID (a W3C traceparent's trace-id from an upstream coordinator), so
// the distributed trace keeps one identity across processes.  An empty
// id falls back to a locally issued one.
func (t *Tracer) StartTraceWithID(ctx context.Context, name, id string) (context.Context, *Span) {
	if t == nil || !Enabled() {
		return ctx, nil
	}
	seq := t.seq.Add(1)
	if id == "" {
		id = formatTraceID(t.base, seq)
	}
	tr := &Trace{
		tracer: t,
		id:     id,
		name:   name,
		start:  time.Now(),
	}
	root := tr.newSpan(name, 0)
	return context.WithValue(ctx, spanCtxKey{}, root), root
}

// formatTraceID renders a 16-hex-character id from the tracer's
// per-process base and the trace sequence number.
func formatTraceID(base, seq uint32) string {
	const hexdigits = "0123456789abcdef"
	var b [16]byte
	v := uint64(base)<<32 | uint64(seq)
	for i := 15; i >= 0; i-- {
		b[i] = hexdigits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// MintID issues a locally unique trace id from the tracer's sequence
// without starting a trace.  The serving layer uses it to stamp wide
// events for requests rejected before a trace can root (admission
// sheds, parse failures), so every event stays
// correlatable with client-side logs.
func (t *Tracer) MintID() string {
	if t == nil {
		return ""
	}
	return formatTraceID(t.base, t.seq.Add(1))
}

// StartSpan opens a child span of the context's active span, returning
// a context carrying the child.  Without an active span the original
// context and a nil span come back, and nothing is allocated.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent, _ := ctx.Value(spanCtxKey{}).(*Span)
	if parent == nil {
		return ctx, nil
	}
	s := parent.trace.newSpan(name, parent.id)
	return context.WithValue(ctx, spanCtxKey{}, s), s
}

// SpanFromContext returns the context's active span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// TraceIDFromContext returns the trace ID the context carries, or "".
func TraceIDFromContext(ctx context.Context) string {
	if s, _ := ctx.Value(spanCtxKey{}).(*Span); s != nil {
		return s.trace.id
	}
	return ""
}

func (tr *Trace) newSpan(name string, parent int) *Span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.nextID++
	s := &Span{trace: tr, id: tr.nextID, parent: parent, name: name, start: time.Now()}
	tr.spans = append(tr.spans, s)
	return s
}

// SetAttr annotates the span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.trace.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.trace.mu.Unlock()
}

// SetInt annotates the span with an integer value.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.FormatInt(v, 10))
}

// SetBool annotates the span with a boolean value.
func (s *Span) SetBool(key string, v bool) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.FormatBool(v))
}

// Trace returns the span's owning trace (nil on the disabled path).
func (s *Span) Trace() *Trace {
	if s == nil {
		return nil
	}
	return s.trace
}

// End stamps the span's end time.  Ending the root span classifies the
// trace and commits it to the tracer's retention buckets; ending twice
// keeps the first stamp.
func (s *Span) End() {
	if s == nil {
		return
	}
	tr := s.trace
	tr.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	root := s.parent == 0
	if root {
		tr.classifyLocked(s)
	}
	tr.mu.Unlock()
	if root {
		tr.tracer.commit(tr)
	}
}

// classifyLocked stamps the root duration and the error flag from the
// span attrs; tr.mu is held.
func (tr *Trace) classifyLocked(root *Span) {
	tr.dur = root.end.Sub(root.start)
	for _, s := range tr.spans {
		for _, a := range s.attrs {
			if a.Key == "error" {
				tr.err = true
			}
		}
	}
}

// commit files a finished trace into every bucket it belongs to.
func (t *Tracer) commit(tr *Trace) {
	tr.mu.Lock()
	dur, errored := tr.dur, tr.err
	tr.mu.Unlock()

	t.mu.Lock()
	defer t.mu.Unlock()
	pushRing(&t.recent, &t.next, cap(t.recent), tr)
	if errored {
		pushRing(&t.errored, &t.errNext, t.auxCap, tr)
	}
	// Slowest bucket: fill to capacity, then replace the current
	// minimum when this trace outlasts it (O(K) with K = auxCap).
	if len(t.slowest) < t.auxCap {
		t.slowest = append(t.slowest, tr)
		return
	}
	minIdx, minDur := -1, dur
	for i, old := range t.slowest {
		if d := old.duration(); d < minDur {
			minIdx, minDur = i, d
		}
	}
	if minIdx >= 0 {
		t.slowest[minIdx] = tr
	}
}

// pushRing appends into a capacity-bounded ring, overwriting the
// oldest entry when full.
func pushRing(ring *[]*Trace, next *int, capacity int, tr *Trace) {
	if len(*ring) < capacity {
		*ring = append(*ring, tr)
		return
	}
	(*ring)[*next] = tr
	*next = (*next + 1) % capacity
}

// duration reads the committed root duration.
func (tr *Trace) duration() time.Duration {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.dur
}

// SpanSnapshot is the JSON form of one span.
type SpanSnapshot struct {
	ID         int    `json:"id"`
	Parent     int    `json:"parent,omitempty"`
	Name       string `json:"name"`
	StartNs    int64  `json:"start_unix_nano"`
	DurationNs int64  `json:"duration_ns"`
	InFlight   bool   `json:"in_flight,omitempty"`
	Attrs      []Attr `json:"attrs,omitempty"`
}

// TraceSnapshot is the JSON form of one trace.
type TraceSnapshot struct {
	ID         string         `json:"id"`
	Name       string         `json:"name"`
	StartNs    int64          `json:"start_unix_nano"`
	DurationNs int64          `json:"duration_ns"`
	Error      bool           `json:"error,omitempty"`
	Spans      []SpanSnapshot `json:"spans"`
}

// Snapshot copies the trace under its mutex; safe while the request is
// still running (in-flight spans are flagged).
func (tr *Trace) Snapshot() TraceSnapshot {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := TraceSnapshot{ID: tr.id, Name: tr.name, StartNs: tr.start.UnixNano(), Error: tr.err}
	for _, s := range tr.spans {
		ss := SpanSnapshot{
			ID:      s.id,
			Parent:  s.parent,
			Name:    s.name,
			StartNs: s.start.UnixNano(),
		}
		if s.end.IsZero() {
			ss.InFlight = true
		} else {
			ss.DurationNs = s.end.Sub(s.start).Nanoseconds()
		}
		if len(s.attrs) > 0 {
			ss.Attrs = append([]Attr(nil), s.attrs...)
		}
		if s.parent == 0 {
			out.DurationNs = ss.DurationNs
		}
		out.Spans = append(out.Spans, ss)
	}
	return out
}

// retained unions every bucket, deduplicating by trace identity (a
// slow errored trace sits in three buckets at once).
func (t *Tracer) retained() []*Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	seen := make(map[*Trace]bool, len(t.recent)+2*t.auxCap)
	var traces []*Trace
	add := func(tr *Trace) {
		if tr != nil && !seen[tr] {
			seen[tr] = true
			traces = append(traces, tr)
		}
	}
	// Recent ring newest-first, then the tail buckets.
	for i := 0; i < len(t.recent); i++ {
		add(t.recent[(t.next-1-i+len(t.recent))%len(t.recent)])
	}
	for _, tr := range t.slowest {
		add(tr)
	}
	for _, tr := range t.errored {
		add(tr)
	}
	return traces
}

// Recent returns snapshots of every retained trace — the recent ring
// plus the slowest and errored reservoirs — newest first.
func (t *Tracer) Recent() []TraceSnapshot {
	traces := t.retained()
	out := make([]TraceSnapshot, 0, len(traces))
	for _, tr := range traces {
		out = append(out, tr.Snapshot())
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].StartNs > out[j].StartNs })
	return out
}

// Get returns the snapshot of the retained trace with the given ID,
// searching every bucket.
func (t *Tracer) Get(id string) (TraceSnapshot, bool) {
	for _, tr := range t.retained() {
		if tr.id == id {
			return tr.Snapshot(), true
		}
	}
	return TraceSnapshot{}, false
}

// WriteJSON dumps the recent traces (newest first) as indented JSON —
// the /debug/traces payload.
func (t *Tracer) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.Recent())
}
