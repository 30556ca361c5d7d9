package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
)

// Wide events: exactly one structured, bounded-size record per served
// request, carrying everything needed to explain that request after
// the fact — trace ID, chosen plan, the full stats ledger, per-stage
// span timings, admission outcome, and HTTP status.  Events flow
// through a lock-free overwrite-oldest ring (EventRing) that
// /debug/events drains with cursor semantics, and can be tee'd to a
// JSONL sink (EventLog) that sheds instead of blocking the serving
// path.  The emitting layer checks EventRing.Active() before building
// an Event at all, which is what keeps the disabled path 0 allocs/op.

// Bounded-size caps applied by Event.Bound: one event must stay a few
// KB no matter how pathological the request was.
const (
	maxEventQueryLen = 256
	maxEventPlanRows = 16
	maxEventSpans    = 32
	maxEventShards   = 64
)

// EventPlanRow is one segment's slice of the query plan.
type EventPlanRow struct {
	Path       string `json:"path"`
	Candidates int    `json:"candidates,omitempty"`
}

// EventStats mirrors the engine's SearchStats ledger in plain ints so
// the obs layer needs no dependency on core.  The identity Candidates
// == FalseAlarms + CostRejected + Results must hold on every event
// (the serving layer's soak asserts it).
type EventStats struct {
	Candidates     int   `json:"candidates"`
	FalseAlarms    int   `json:"false_alarms"`
	CostRejected   int   `json:"cost_rejected"`
	Results        int   `json:"results"`
	ExactChecks    int   `json:"exact_checks,omitempty"`
	NormCertified  int   `json:"norm_certified,omitempty"`
	IndexNodeReads int   `json:"index_node_reads"`
	DataPageReads  int   `json:"data_page_reads"`
	ScanProbes     int   `json:"scan_probes,omitempty"`
	PlanNs         int64 `json:"plan_ns"`
	ProbeNs        int64 `json:"probe_ns"`
	VerifyNs       int64 `json:"verify_ns"`
}

// EventSpan is one stage timing lifted from the request's trace.
type EventSpan struct {
	Name       string `json:"name"`
	DurationNs int64  `json:"duration_ns"`
}

// EventShard is one shard's slice of a scatter-gather request: the
// fault-domain state it ended in, the shard-local trace id (the
// coordinator propagates its traceparent, so a healthy shard reports
// the same id — which is exactly what makes cross-process slow-query
// drill-down work), and the attempt accounting.
type EventShard struct {
	ID         int    `json:"id"`
	State      string `json:"state"` // ok | failed
	TraceID    string `json:"trace_id,omitempty"`
	Attempts   int    `json:"attempts,omitempty"`
	Hedged     bool   `json:"hedged,omitempty"`
	DurationNs int64  `json:"duration_ns,omitempty"`
	Error      string `json:"error,omitempty"`
}

// Event is one wide event.  Seq and TimeNs are stamped by Emit.
type Event struct {
	Seq        uint64         `json:"seq"`
	TimeNs     int64          `json:"time_unix_nano"`
	Kind       string         `json:"kind"` // search | search_batch | batch_slot | append
	TraceID    string         `json:"trace_id,omitempty"`
	Status     int            `json:"status"`
	Outcome    string         `json:"outcome"` // ok | shed | client_error | error
	DurationNs int64          `json:"duration_ns"`
	Query      string         `json:"query,omitempty"`
	Path       string         `json:"path,omitempty"`
	Matches    int            `json:"matches,omitempty"`
	Slot       int            `json:"slot,omitempty"` // batch_slot: index within the batch
	Plan       []EventPlanRow `json:"plan,omitempty"`
	Stats      *EventStats    `json:"stats,omitempty"`
	Spans      []EventSpan    `json:"spans,omitempty"`
	// Shards carries the per-fault-domain coverage of a coordinator
	// (scatter-gather) request; empty on single-node events.
	Shards []EventShard `json:"shards,omitempty"`
}

// Bound truncates the variable-size fields to the package caps so one
// event can never bloat the ring, the sink, or a /debug/events page.
func (e *Event) Bound() {
	if len(e.Query) > maxEventQueryLen {
		e.Query = e.Query[:maxEventQueryLen]
	}
	if len(e.Plan) > maxEventPlanRows {
		e.Plan = e.Plan[:maxEventPlanRows]
	}
	if len(e.Spans) > maxEventSpans {
		e.Spans = e.Spans[:maxEventSpans]
	}
	if len(e.Shards) > maxEventShards {
		e.Shards = e.Shards[:maxEventShards]
	}
}

// EventRing is a lock-free bounded MPMC event buffer.  Writers claim a
// monotone sequence number with one atomic add and publish into the
// slot it maps to; an event whose slot is reclaimed before any reader
// drained it is counted as overwritten (the drop counter).  Readers
// poll with a cursor (Drain) and account every emitted event exactly
// once as either returned or missed.
type EventRing struct {
	slots []atomic.Pointer[Event]
	head  atomic.Uint64 // last claimed sequence number; seq 1 is the first event
	over  atomic.Uint64 // events overwritten before the slot was reused
	sink  atomic.Pointer[EventLog]
}

// NewEventRing returns a ring retaining the most recent capacity
// events (minimum 16, so short bursts survive until the next poll).
func NewEventRing(capacity int) *EventRing {
	if capacity < 16 {
		capacity = 16
	}
	return &EventRing{slots: make([]atomic.Pointer[Event], capacity)}
}

// Active reports whether emitting is worthwhile: the ring exists and
// the observability layer is on.  Callers must gate event construction
// on this so the disabled path allocates nothing.
func (r *EventRing) Active() bool { return r != nil && Enabled() }

// Tee attaches (or, with nil, detaches) a JSONL sink.  Every event
// emitted after the call is offered to the sink without blocking.
func (r *EventRing) Tee(l *EventLog) {
	if r != nil {
		r.sink.Store(l)
	}
}

// Emit stamps and publishes one event.  Safe for concurrent use; a nil
// ring or a disabled obs layer drops the event (but callers should
// have checked Active before building it).
func (r *EventRing) Emit(e *Event, nowNs int64) {
	if !r.Active() || e == nil {
		return
	}
	e.Bound()
	e.TimeNs = nowNs
	seq := r.head.Add(1)
	e.Seq = seq
	if old := r.slots[(seq-1)%uint64(len(r.slots))].Swap(e); old != nil {
		r.over.Add(1)
	}
	if l := r.sink.Load(); l != nil {
		l.offer(e)
	}
}

// Emitted returns the total number of events ever emitted.
func (r *EventRing) Emitted() uint64 {
	if r == nil {
		return 0
	}
	return r.head.Load()
}

// Overwritten returns the ring's drop counter: events whose slot was
// reclaimed by a newer event.
func (r *EventRing) Overwritten() uint64 {
	if r == nil {
		return 0
	}
	return r.over.Load()
}

// SinkDropped returns the attached JSONL sink's drop counter (0 when
// no sink is attached).
func (r *EventRing) SinkDropped() uint64 {
	if r == nil {
		return 0
	}
	return r.sink.Load().Dropped()
}

// Drain returns up to max retained events with sequence numbers past
// the reader's cursor, oldest first.  missed counts events the reader
// can no longer get (overwritten before this poll); next is the cursor
// for the following poll.  Every emitted event is accounted exactly
// once across a reader's polls: as a returned event or in missed.
//
// The returned run is contiguous in sequence numbers.  A slot whose
// stored event does not carry the expected sequence is either an
// in-flight write (claimed but not yet published) or a concurrent
// overwrite; the drain stops there and the next poll re-accounts the
// remainder, so racing writers can delay but never corrupt the count.
func (r *EventRing) Drain(since uint64, max int) (events []*Event, missed uint64, next uint64) {
	next = since
	if r == nil {
		return nil, 0, next
	}
	if max <= 0 {
		max = len(r.slots)
	}
	head := r.head.Load()
	if head <= since {
		return nil, 0, next
	}
	oldest := uint64(1)
	if head > uint64(len(r.slots)) {
		oldest = head - uint64(len(r.slots)) + 1
	}
	start := since + 1
	if start < oldest {
		missed = oldest - start
		start = oldest
		next = oldest - 1
	}
	for seq := start; seq <= head && len(events) < max; seq++ {
		e := r.slots[(seq-1)%uint64(len(r.slots))].Load()
		if e == nil || e.Seq != seq {
			break
		}
		events = append(events, e)
		next = seq
	}
	return events, missed, next
}

// EventLog is the optional JSONL tee: a bounded channel drained by one
// writer goroutine.  When the channel is full the event is dropped and
// counted — the serving path never blocks on sink I/O.
type EventLog struct {
	ch      chan *Event
	dropped atomic.Uint64
	done    chan struct{}
	wc      io.WriteCloser
	once    sync.Once
	err     atomic.Pointer[error]
}

// NewEventLog starts a sink writing one JSON event per line to wc.
// buffer bounds the in-flight queue (minimum 16).
func NewEventLog(wc io.WriteCloser, buffer int) *EventLog {
	if buffer < 16 {
		buffer = 16
	}
	l := &EventLog{ch: make(chan *Event, buffer), done: make(chan struct{}), wc: wc}
	go l.drain()
	return l
}

func (l *EventLog) drain() {
	defer close(l.done)
	enc := json.NewEncoder(l.wc)
	for e := range l.ch {
		if err := enc.Encode(e); err != nil {
			l.err.CompareAndSwap(nil, &err)
		}
	}
}

// offer enqueues without blocking, counting the drop when full.
func (l *EventLog) offer(e *Event) {
	select {
	case l.ch <- e:
	default:
		l.dropped.Add(1)
	}
}

// Dropped returns how many events the sink shed.
func (l *EventLog) Dropped() uint64 {
	if l == nil {
		return 0
	}
	return l.dropped.Load()
}

// Close stops accepting events, flushes the queue, and closes the
// underlying writer.  Safe to call more than once.
func (l *EventLog) Close() error {
	var err error
	l.once.Do(func() {
		close(l.ch)
		<-l.done
		err = l.wc.Close()
		if err == nil {
			if p := l.err.Load(); p != nil {
				err = *p
			}
		}
	})
	return err
}
