package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"scaleshift/internal/engine"
	"scaleshift/internal/query"
	"scaleshift/internal/store"
	"scaleshift/internal/vec"
)

// testQueryEps returns a disguised window of ix's store and an epsilon
// wide enough to match a handful of windows.
func testQueryEps(t *testing.T, ix *Index) (vec.Vector, float64) {
	t.Helper()
	n := ix.Options().WindowLen
	w := make(vec.Vector, n)
	if err := ix.Store().Window(1, 7, n, w, nil); err != nil {
		t.Fatal(err)
	}
	scale, err := query.SENormScale(ix.Store(), n, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	return vec.Apply(w, 1.4, -3), 0.08 * scale
}

func TestQueryValidationTyped(t *testing.T) {
	ix := buildTestIndex(t, testOptions(), 4, 80)
	q, eps := testQueryEps(t, ix)
	n := ix.Options().WindowLen

	nanQ := q.Clone()
	nanQ[3] = math.NaN()
	infQ := q.Clone()
	infQ[0] = math.Inf(1)

	// A segmented index whose manifest holds no frozen segment yet
	// (delta only).
	deltaOnly, err := NewSegmentedIndex(store.New(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer deltaOnly.Close()
	if _, err := deltaOnly.AppendSequence("fresh", append(q.Clone(), q...)); err != nil {
		t.Fatal(err)
	}
	if b := deltaOnly.Backlog(); b.Frozen != 0 || b.DeltaWindows == 0 {
		t.Fatalf("fixture is not delta-only: %+v", b)
	}
	try := func(ix execer, q Query) func() error {
		return func() error { _, err := ix.Exec(context.Background(), q, nil); return err }
	}

	cases := []struct {
		name string
		run  func() error
		want error
	}{
		{"NaN sample", try(ix, Query{Vec: nanQ, Eps: eps}), ErrInvalidQuery},
		{"Inf sample", try(ix, Query{Vec: infQ, Eps: eps}), ErrInvalidQuery},
		{"negative eps", try(ix, Query{Vec: q, Eps: -0.5}), ErrInvalidQuery},
		{"NaN eps", try(ix, Query{Vec: q, Eps: math.NaN()}), ErrInvalidQuery},
		{"short query", try(ix, Query{Vec: q[:n-1], Eps: eps}), ErrInvalidQuery},
		{"long-query NaN", try(ix, Query{Vec: append(nanQ.Clone(), nanQ...), Eps: eps}), ErrInvalidQuery},
		{"NN NaN sample", try(ix, Query{Vec: nanQ, K: 3}), ErrInvalidQuery},
		{"NN bad k", try(ix, Query{Vec: q, K: -1}), ErrInvalidQuery},
		{"NN wrong length", try(ix, Query{Vec: q[:n-2], K: 3}), ErrInvalidQuery},
		{"NN forced path", try(ix, Query{Vec: q, K: 3, Force: engine.PathRTree}), ErrInvalidQuery},
		{"NN forced path, segmented", try(deltaOnly, Query{Vec: q, K: 3, Force: engine.PathScan}), ErrInvalidQuery},
		{"batch NaN", func() error {
			_, _, err := ix.ExecBatch(context.Background(), rangeQueries([]vec.Vector{q, nanQ}, eps), 2, nil)
			return err
		}, ErrInvalidQuery},
	}
	for _, tc := range cases {
		err := tc.run()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: error %v is not %v", tc.name, err, tc.want)
		}
	}
	// "trail" named the retired sub-trail probe: an unknown path name now,
	// refused where the name is parsed, so no query can carry it.
	if _, err := engine.ParsePathKind("trail"); err == nil {
		t.Error("path=trail still parses")
	}
}

func TestSearchContextCancelled(t *testing.T) {
	ix := buildTestIndex(t, testOptions(), 6, 120)
	q, eps := testQueryEps(t, ix)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ix.Exec(ctx, Query{Vec: q, Eps: eps}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := ix.Exec(ctx, Query{Vec: append(q.Clone(), q...), Eps: eps}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("long err = %v, want context.Canceled", err)
	}

	// An expired deadline surfaces as DeadlineExceeded.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := ix.Exec(dctx, Query{Vec: q, Eps: eps}, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}

	// A live cancellable context changes nothing.
	want, err := search(ix, q, eps, nil)
	if err != nil {
		t.Fatal(err)
	}
	live, stop := context.WithCancel(context.Background())
	defer stop()
	got, _, err := run(live, ix, Query{Vec: q, Eps: eps}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("context search: %d matches, plain %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("match %d differs under context", i)
		}
	}
}

func TestBuildBulkParallelContextCancelled(t *testing.T) {
	st := buildTestIndex(t, testOptions(), 8, 160).Store()
	ix, err := NewIndex(st, testOptions())
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	baseline := runtime.NumGoroutine()
	if err := ix.BuildBulkParallelContext(ctx, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// All workers must be gone (they are joined before return).
	for i := 0; i < 100 && runtime.NumGoroutine() > baseline; i++ {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline {
		t.Errorf("goroutines leaked: %d > %d", g, baseline)
	}

	// The index stays empty and reusable: a fresh build succeeds and
	// matches the sequential tree exactly.
	if got := ix.WindowCount(); got != 0 {
		t.Fatalf("cancelled build left %d windows", got)
	}
	if err := ix.BuildBulkParallelContext(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	seq, err := NewIndex(st, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := seq.BuildBulk(); err != nil {
		t.Fatal(err)
	}
	if ix.WindowCount() != seq.WindowCount() || ix.EntryCount() != seq.EntryCount() {
		t.Fatalf("rebuilt tree differs: %d/%d vs %d/%d",
			ix.WindowCount(), ix.EntryCount(), seq.WindowCount(), seq.EntryCount())
	}
}

// promptBound is the acceptance bound on returning after a cancel.
// The race detector slows instrumented code 5-20x, so the strict
// 100ms contract is asserted only in uninstrumented runs.
func promptBound() time.Duration {
	if raceDetectorEnabled {
		return time.Second
	}
	return 100 * time.Millisecond
}

func TestBuildBulkParallelCancelsPromptly(t *testing.T) {
	st := buildTestIndex(t, testOptions(), 30, 650).Store()
	ix, err := NewIndex(st, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- ix.BuildBulkParallelContext(ctx, 2) }()
	time.Sleep(2 * time.Millisecond)
	cancelled := time.Now()
	cancel()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v", err)
		}
		// err == nil means the build beat the cancel; that's fine.
		if d := time.Since(cancelled); d > promptBound() {
			t.Errorf("build returned %v after cancel, want <= %v", d, promptBound())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("build did not return after cancel")
	}
}

func TestSearchBatchContextPartialResults(t *testing.T) {
	ix := buildTestIndex(t, testOptions(), 6, 160)
	q, eps := testQueryEps(t, ix)
	queries := make([]vec.Vector, 24)
	for i := range queries {
		queries[i] = q
	}
	want, err := search(ix, q, eps, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Pre-cancelled: everything incomplete, ctx error returned, no
	// goroutines left behind.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	baseline := runtime.NumGoroutine()
	start := time.Now()
	results, statuses, err := ix.ExecBatch(ctx, rangeQueries(queries, eps), 4, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > promptBound() {
		t.Errorf("cancelled batch took %v, want <= %v", d, promptBound())
	}
	if len(statuses) != len(queries) {
		t.Fatalf("%d statuses for %d queries", len(statuses), len(queries))
	}
	for i, s := range statuses {
		if s == BatchComplete && results[i].Matches == nil && len(want) > 0 {
			t.Errorf("query %d: complete but nil result", i)
		}
		if s == BatchIncomplete && results[i].Matches != nil {
			t.Errorf("query %d: incomplete but has a result", i)
		}
	}
	for i := 0; i < 100 && runtime.NumGoroutine() > baseline; i++ {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline {
		t.Errorf("goroutines leaked: %d > %d", g, baseline)
	}

	// Cancelled mid-flight: whatever completed must equal the
	// uncancelled answer, slot for slot.
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() { time.Sleep(time.Millisecond); cancel2() }()
	results, statuses, err = ix.ExecBatch(ctx2, rangeQueries(queries, eps), 2, nil)
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if err == nil {
		// The batch beat the cancel: everything must be complete.
		for i, s := range statuses {
			if s != BatchComplete {
				t.Fatalf("no error but query %d is %v", i, s)
			}
		}
	}
	for i, s := range statuses {
		if s != BatchComplete {
			continue
		}
		got := results[i].Matches
		if len(got) != len(want) {
			t.Fatalf("completed query %d: %d matches, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("completed query %d: match %d differs", i, j)
			}
		}
	}

	// Uncancelled context: statuses all complete, identical to the
	// plain batch API.
	results, statuses, err = ix.ExecBatch(context.Background(), rangeQueries(queries, eps), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range statuses {
		if s != BatchComplete {
			t.Fatalf("query %d: %v, want complete", i, s)
		}
		if got := results[i].Matches; len(got) != len(want) {
			t.Fatalf("query %d: %d matches, want %d", i, len(got), len(want))
		}
	}
}

func TestRecoverWorkerPanic(t *testing.T) {
	seq, start := 3, 41
	var err error
	func() {
		defer recoverWorkerPanic("unit test", &seq, &start, &err)
		panic("boom")
	}()
	var wpe *WorkerPanicError
	if !errors.As(err, &wpe) {
		t.Fatalf("err = %v, want *WorkerPanicError", err)
	}
	if wpe.Seq != 3 || wpe.Start != 41 || wpe.Value != "boom" {
		t.Fatalf("wrong panic metadata: %+v", wpe)
	}
	if !strings.Contains(wpe.Error(), "window (3, 41)") || !strings.Contains(wpe.Error(), "boom") {
		t.Fatalf("unhelpful message: %s", wpe.Error())
	}
	if len(wpe.Stack) == 0 {
		t.Error("no stack captured")
	}

	// A first (real) error is not overwritten by the panic.
	prior := errors.New("prior failure")
	err = prior
	func() {
		defer recoverWorkerPanic("unit test", nil, nil, &err)
		panic("later")
	}()
	if err != prior {
		t.Fatalf("panic overwrote prior error: %v", err)
	}

	// Nil position pointers degrade to (-1, -1).
	err = nil
	func() {
		defer recoverWorkerPanic("unit test", nil, nil, &err)
		panic(42)
	}()
	if !errors.As(err, &wpe) || wpe.Seq != -1 {
		t.Fatalf("nil-pointer form wrong: %v", err)
	}
}

func TestVerifyWorkerPanicRecovered(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	ix := buildTestIndex(t, testOptions(), 4, 80)
	q, _ := testQueryEps(t, ix)
	v := newVerifier(ix.st, q, 1, UnboundedCosts())
	// Poison the verifier: a nil store makes every window fetch panic
	// with a nil dereference inside the worker.
	v.sv = (*store.Store)(nil)
	// Sequence 2, starts 5, 6, ...: every chunk opens on a window of its
	// own, so the report must name a window of the poisoned chunk, not a
	// zero value or a sibling's position.
	const seq, firstStart = 2, 5
	sc := acquireScratch()
	defer sc.release()
	for i := 0; i < 2*verifyParallelThreshold; i++ {
		sc.ids = append(sc.ids, store.EncodeWindowID(seq, firstStart+i))
	}
	var pc store.PageCounter
	_, _, err := verifyCandidates(context.Background(), v, sc, 0, &pc)
	var wpe *WorkerPanicError
	if !errors.As(err, &wpe) {
		t.Fatalf("err = %v, want *WorkerPanicError", err)
	}
	if wpe.Op != "verification" || wpe.Seq != seq {
		t.Fatalf("wrong panic site: %+v", wpe)
	}
	// Four workers, contiguous chunks: each panics on its first window.
	chunk := len(sc.ids) / 4
	if off := wpe.Start - firstStart; off < 0 || off >= len(sc.ids) || off%chunk != 0 {
		t.Fatalf("panic reported window (%d, %d), not the head of a chunk of %d", wpe.Seq, wpe.Start, chunk)
	}
}

func TestDegradedIndexServesExactResults(t *testing.T) {
	opts := testOptions()
	healthy := buildTestIndex(t, opts, 6, 120)
	st := healthy.Store()
	q, eps := testQueryEps(t, healthy)

	var buf bytes.Buffer
	if err := healthy.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	corrupt := append([]byte(nil), good...)
	corrupt[len(corrupt)/2] ^= 0x10

	ix, status, err := OpenOrRebuild(bytes.NewReader(corrupt), st, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !status.Degraded || status.Err == nil {
		t.Fatalf("corrupt artifact opened healthy: %+v", status)
	}
	if !errors.Is(status.Err, ErrChecksum) && !errors.Is(status.Err, ErrTruncated) {
		t.Errorf("status.Err = %v, want a typed artifact error", status.Err)
	}
	if deg, reason := ix.Degraded(); !deg || reason == "" {
		t.Fatalf("Degraded() = %v, %q", deg, reason)
	}

	// Identical match sets, via the scan path, flagged in the explain
	// and the stats.
	for _, e := range []float64{0, eps, 3 * eps} {
		want, err := search(healthy, q, e, nil)
		if err != nil {
			t.Fatal(err)
		}
		var stats SearchStats
		got, ex, err := run(context.Background(), ix, Query{Vec: q, Eps: e}, &stats)
		if err != nil {
			t.Fatal(err)
		}
		if !ex.Degraded || ex.DegradedReason == "" {
			t.Errorf("eps=%v: explain not flagged degraded", e)
		}
		if ex.Chosen != engine.PathScan {
			t.Errorf("eps=%v: degraded query used %v, want scan", e, ex.Chosen)
		}
		if stats.DegradedProbes != 1 {
			t.Errorf("eps=%v: DegradedProbes = %d, want 1", e, stats.DegradedProbes)
		}
		if len(got) != len(want) {
			t.Fatalf("eps=%v: degraded %d matches, healthy %d", e, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("eps=%v: match %d differs in degraded mode", e, i)
			}
		}
	}

	// The explain text announces the mode.
	var sb strings.Builder
	_, ex, err := run(context.Background(), ix, Query{Vec: q, Eps: eps}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "DEGRADED") {
		t.Errorf("explain text misses degradation:\n%s", sb.String())
	}

	// Long queries degrade too.
	long := append(q.Clone(), q...)
	wantLong, err := search(healthy, long, eps, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotLong, err := search(ix, long, eps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotLong) != len(wantLong) {
		t.Fatalf("long query: degraded %d matches, healthy %d", len(gotLong), len(wantLong))
	}

	// Forcing the tree path fails loudly; NN, mutation, and
	// serialization are refused rather than silently wrong.
	if _, _, err := run(context.Background(), ix, Query{Vec: q, Eps: eps, Force: engine.PathRTree}, nil); err == nil {
		t.Error("forced rtree path worked on a degraded index")
	}
	if _, err := nearest(ix, q, 3, nil); err == nil {
		t.Error("NN search worked on a degraded index")
	}
	if _, err := ix.AppendAndIndex("new", make([]float64, 64)); err == nil {
		t.Error("mutation worked on a degraded index")
	}
	if err := ix.WriteBinary(io.Discard); err == nil {
		t.Error("degraded index serialized")
	}

	// The undamaged artifact still opens healthy through the same door.
	ix2, status2, err := OpenOrRebuild(bytes.NewReader(good), st, opts)
	if err != nil {
		t.Fatal(err)
	}
	if status2.Degraded {
		t.Fatalf("good artifact degraded: %+v", status2)
	}
	if deg, _ := ix2.Degraded(); deg {
		t.Error("healthy open reports degraded")
	}
}

func TestIndexArtifactCorruptionAlwaysDetected(t *testing.T) {
	opts := testOptions()
	ix := buildTestIndex(t, opts, 3, 70)
	st := ix.Store()
	var buf bytes.Buffer
	if err := ix.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	if _, err := LoadIndex(bytes.NewReader(good), st); err != nil {
		t.Fatalf("pristine artifact rejected: %v", err)
	}
	// Every single-byte flip must be rejected (magic, lengths, CRCs,
	// payloads — the whole file is covered).
	for off := range good {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x04
		if _, err := LoadIndex(bytes.NewReader(bad), st); err == nil {
			t.Fatalf("flip at byte %d accepted", off)
		}
	}
	// Every truncation must be rejected with a typed error.
	for cut := 0; cut < len(good); cut += 7 {
		_, err := LoadIndex(bytes.NewReader(good[:cut]), st)
		if err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrVersion) {
			t.Fatalf("truncation at %d: untyped error %v", cut, err)
		}
	}
	// A v1 artifact is version-skew, not garbage.
	v1 := append([]byte(nil), good...)
	v1[5] = 0x01
	if _, err := LoadIndex(bytes.NewReader(v1), st); !errors.Is(err, ErrVersion) {
		t.Fatalf("v1 magic: err = %v, want ErrVersion", err)
	}
}

func TestNearestNeighborsContextCancelled(t *testing.T) {
	ix := buildTestIndex(t, testOptions(), 6, 120)
	q, _ := testQueryEps(t, ix)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ix.Exec(ctx, Query{Vec: q, K: 3}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// A live cancellable context changes nothing.
	want, err := nearest(ix, q, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	live, stop := context.WithCancel(context.Background())
	defer stop()
	got, _, err := run(live, ix, Query{Vec: q, K: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("context NN: %d matches, plain %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("NN match %d differs under context", i)
		}
	}
}

// TestNearestNeighborsCancelsPromptly is the serving-path contract:
// a dropped client stops an in-flight k-NN refinement within the
// shared cancellation grain.
func TestNearestNeighborsCancelsPromptly(t *testing.T) {
	ix := buildTestIndex(t, testOptions(), 30, 650)
	q, _ := testQueryEps(t, ix)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := ix.Exec(ctx, Query{Vec: q, K: 50}, nil)
		done <- err
	}()
	time.Sleep(time.Millisecond)
	cancelled := time.Now()
	cancel()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v", err)
		}
		// err == nil means the query beat the cancel; that's fine.
		if d := time.Since(cancelled); d > promptBound() {
			t.Errorf("NN returned %v after cancel, want <= %v", d, promptBound())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("NN search did not return after cancel")
	}
}
