package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStartTraceDisabled(t *testing.T) {
	Disable()
	tr := NewTracer(4)
	ctx, span := tr.StartTrace(context.Background(), "q")
	if span != nil {
		t.Fatal("disabled tracer must return a nil span")
	}
	if ctx != context.Background() {
		t.Fatal("disabled tracer must return the context unchanged")
	}
	// All span methods must be nil-safe.
	span.SetAttr("k", "v")
	span.SetInt("n", 1)
	span.SetBool("b", true)
	span.End()
}

func TestNilTracer(t *testing.T) {
	Enable()
	defer Disable()
	var tr *Tracer
	_, span := tr.StartTrace(context.Background(), "q")
	if span != nil {
		t.Fatal("nil tracer must return a nil span")
	}
}

func TestStartSpanWithoutTrace(t *testing.T) {
	Enable()
	defer Disable()
	ctx := context.Background()
	got, span := StartSpan(ctx, "stage")
	if span != nil {
		t.Fatal("StartSpan without an active trace must return nil")
	}
	if got != ctx {
		t.Fatal("StartSpan without an active trace must return ctx unchanged")
	}
	if id := TraceIDFromContext(ctx); id != "" {
		t.Fatalf("TraceIDFromContext = %q, want empty", id)
	}
}

func TestTraceSpansAndAttrs(t *testing.T) {
	Enable()
	defer Disable()
	tr := NewTracer(4)
	ctx, root := tr.StartTrace(context.Background(), "query")
	if root == nil {
		t.Fatal("enabled tracer returned nil root span")
	}
	id := TraceIDFromContext(ctx)
	if len(id) != 16 {
		t.Fatalf("trace id %q, want 16 hex chars", id)
	}

	childCtx, child := StartSpan(ctx, "probe")
	child.SetInt("candidates", 42)
	_, grand := StartSpan(childCtx, "descent")
	grand.End()
	child.End()
	root.SetAttr("status", "ok")
	root.End()

	snap, ok := tr.Get(id)
	if !ok {
		t.Fatalf("trace %s not retained after root End", id)
	}
	if len(snap.Spans) != 3 {
		t.Fatalf("trace has %d spans, want 3", len(snap.Spans))
	}
	byName := map[string]SpanSnapshot{}
	for _, s := range snap.Spans {
		byName[s.Name] = s
	}
	if byName["probe"].Parent != byName["query"].ID {
		t.Fatal("probe span must be a child of the root")
	}
	if byName["descent"].Parent != byName["probe"].ID {
		t.Fatal("descent span must be a child of probe")
	}
	found := false
	for _, a := range byName["probe"].Attrs {
		if a.Key == "candidates" && a.Value == "42" {
			found = true
		}
	}
	if !found {
		t.Fatalf("probe attrs missing candidates=42: %+v", byName["probe"].Attrs)
	}
	if snap.DurationNs < byName["probe"].DurationNs {
		t.Fatalf("root duration %d < child duration %d", snap.DurationNs, byName["probe"].DurationNs)
	}
}

func TestRingEviction(t *testing.T) {
	Enable()
	defer Disable()
	tr := NewTracer(3) // recent cap 3, aux buckets cap 4 each
	var ids []string
	for i := 0; i < 32; i++ {
		ctx, root := tr.StartTrace(context.Background(), fmt.Sprintf("q%d", i))
		ids = append(ids, TraceIDFromContext(ctx))
		root.End()
	}
	recent := tr.Recent()
	// Retention is bounded: the recent ring (3) plus at most one
	// slowest reservoir (4) of these error-free traces.
	if len(recent) < 3 || len(recent) > 7 {
		t.Fatalf("retained %d traces, want between 3 and 7", len(recent))
	}
	// Newest first, and the newest three must be the last three commits.
	for i, want := range []string{"q31", "q30", "q29"} {
		if recent[i].Name != want {
			t.Errorf("recent[%d] = %s, want %s", i, recent[i].Name, want)
		}
	}
	if _, ok := tr.Get(ids[31]); !ok {
		t.Fatal("newest trace must be retained")
	}
	// Old unremarkable traces do get evicted eventually: of the 32
	// commits at most 7 survive.
	evicted := 0
	for _, id := range ids {
		if _, ok := tr.Get(id); !ok {
			evicted++
		}
	}
	if evicted < 25 {
		t.Fatalf("only %d of 32 unremarkable traces evicted", evicted)
	}
}

// TestTailRetention is the policy the buckets exist for: a flood of
// fast queries must not evict the slow or the errored trace.
func TestTailRetention(t *testing.T) {
	Enable()
	defer Disable()
	tr := NewTracer(8)

	mkTrace := func(name string, decorate func(root *Span)) string {
		ctx, root := tr.StartTrace(context.Background(), name)
		if decorate != nil {
			decorate(root)
		}
		root.End()
		return TraceIDFromContext(ctx)
	}

	slowID := mkTrace("slow", func(root *Span) {
		// Stamp a long duration directly rather than sleeping: End keeps
		// the first stamp, so pre-setting end makes the trace "slow".
		root.trace.mu.Lock()
		root.end = root.start.Add(10 * time.Second)
		root.trace.mu.Unlock()
	})
	errID := mkTrace("boom", func(root *Span) { root.SetAttr("error", "synthetic failure") })

	for i := 0; i < 10000; i++ {
		mkTrace("fast", nil)
	}

	for _, tc := range []struct {
		id, name string
		check    func(TraceSnapshot) bool
	}{
		{slowID, "slow", func(s TraceSnapshot) bool { return s.DurationNs >= int64(10*time.Second) }},
		{errID, "errored", func(s TraceSnapshot) bool { return s.Error }},
	} {
		snap, ok := tr.Get(tc.id)
		if !ok {
			t.Fatalf("%s trace evicted by 10k fast queries", tc.name)
		}
		if !tc.check(snap) {
			t.Errorf("%s trace snapshot misclassified: %+v", tc.name, snap)
		}
	}
}

func TestStartTraceWithID(t *testing.T) {
	Enable()
	defer Disable()
	tr := NewTracer(4)
	want := "4bf92f3577b34da6a3ce929d0e0e4736"
	ctx, root := tr.StartTraceWithID(context.Background(), "q", want)
	if got := TraceIDFromContext(ctx); got != want {
		t.Fatalf("adopted trace id %q, want %q", got, want)
	}
	root.End()
	if _, ok := tr.Get(want); !ok {
		t.Fatal("trace not retrievable under the adopted id")
	}
}

func TestRecentPartialRing(t *testing.T) {
	Enable()
	defer Disable()
	tr := NewTracer(8)
	for i := 0; i < 2; i++ {
		_, root := tr.StartTrace(context.Background(), fmt.Sprintf("q%d", i))
		root.End()
	}
	recent := tr.Recent()
	if len(recent) != 2 {
		t.Fatalf("ring retains %d traces, want 2", len(recent))
	}
	if recent[0].Name != "q1" || recent[1].Name != "q0" {
		t.Fatalf("recent order = %s, %s; want q1, q0", recent[0].Name, recent[1].Name)
	}
}

func TestEndTwiceKeepsFirstStamp(t *testing.T) {
	Enable()
	defer Disable()
	tr := NewTracer(2)
	ctx, root := tr.StartTrace(context.Background(), "q")
	_, child := StartSpan(ctx, "stage")
	child.End()
	root.End()
	id := TraceIDFromContext(ctx)
	first, _ := tr.Get(id)
	child.End() // must not move the stamp
	root.End()
	second, _ := tr.Get(id)
	if first.Spans[1].DurationNs != second.Spans[1].DurationNs {
		t.Fatal("second End changed the span duration")
	}
}

func TestInFlightSpanSnapshot(t *testing.T) {
	Enable()
	defer Disable()
	tr := NewTracer(2)
	ctx, root := tr.StartTrace(context.Background(), "q")
	_, child := StartSpan(ctx, "stage")
	_ = child // never ended
	root.End()
	id := TraceIDFromContext(ctx)
	snap, ok := tr.Get(id)
	if !ok {
		t.Fatal("trace not committed")
	}
	if !snap.Spans[1].InFlight {
		t.Fatal("unended span must be marked in_flight")
	}
}

func TestTracerConcurrent(t *testing.T) {
	Enable()
	defer Disable()
	tr := NewTracer(16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ctx, root := tr.StartTrace(context.Background(), "q")
				sctx, s := StartSpan(ctx, "stage")
				s.SetInt("i", int64(i))
				_, g := StartSpan(sctx, "inner")
				g.End()
				s.End()
				root.End()
				// Concurrent readers against concurrent commits.
				if i%50 == 0 {
					tr.Recent()
				}
			}
		}()
	}
	wg.Wait()
	// Retention stays bounded under concurrency: the 16-slot recent ring
	// plus at most three aux buckets of 4 each, minus dedup overlap.
	if got := len(tr.Recent()); got < 16 || got > 16+3*4 {
		t.Fatalf("retained %d traces, want between 16 and 28", got)
	}
}

func TestTraceIDsUnique(t *testing.T) {
	Enable()
	defer Disable()
	tr := NewTracer(1)
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		ctx, root := tr.StartTrace(context.Background(), "q")
		id := TraceIDFromContext(ctx)
		if seen[id] {
			t.Fatalf("duplicate trace id %s", id)
		}
		seen[id] = true
		root.End()
	}
}

func TestWriteTracesJSON(t *testing.T) {
	Enable()
	defer Disable()
	tr := NewTracer(4)
	ctx, root := tr.StartTrace(context.Background(), "jsonq")
	_, s := StartSpan(ctx, "stage")
	s.End()
	root.End()
	var b strings.Builder
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `"name": "jsonq"`) || !strings.Contains(out, `"name": "stage"`) {
		t.Fatalf("trace JSON missing spans: %s", out)
	}
}

func TestSpanFromContext(t *testing.T) {
	Enable()
	defer Disable()
	tr := NewTracer(1)
	ctx, root := tr.StartTrace(context.Background(), "q")
	if SpanFromContext(ctx) != root {
		t.Fatal("SpanFromContext must return the active span")
	}
	if SpanFromContext(context.Background()) != nil {
		t.Fatal("SpanFromContext without a trace must return nil")
	}
	root.End()
}
