package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
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
func testQueryEps(t testing.TB, ix *Index) (vec.Vector, float64) {
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

// TestCorruptArtifactIsRebuilt: an index artifact with a flipped byte is
// refused by the strict loaders and rebuilt by OpenOrRebuildFile, with a
// typed reason, into an index that answers range, long, forced-tree and
// k-NN queries Float64bits-identically to the index that wrote the
// artifact, mutates, and writes the artifact's bytes again.
func TestCorruptArtifactIsRebuilt(t *testing.T) {
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
	path := filepath.Join(t.TempDir(), "index.ssidx")
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}

	ix, rebuilt, err := OpenOrRebuildFile(path, st, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if !errors.Is(rebuilt, ErrChecksum) && !errors.Is(rebuilt, ErrTruncated) {
		t.Fatalf("rebuilt = %v, want a typed artifact error", rebuilt)
	}
	if ix.Directory() != DirectoryBox {
		t.Fatalf("the rebuilt index has a %s directory", ix.Directory())
	}
	long := append(q.Clone(), q...)
	for _, c := range []struct {
		what string
		q    Query
	}{
		{"exact", Query{Vec: q}},
		{"range", Query{Vec: q, Eps: eps}},
		{"wide", Query{Vec: q, Eps: 3 * eps}},
		{"long", Query{Vec: long, Eps: eps}},
		{"forced tree", Query{Vec: q, Eps: eps, Force: engine.PathRTree}},
		{"k-NN", Query{Vec: q, K: 5}},
	} {
		want, _, err := run(context.Background(), healthy, c.q, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := run(context.Background(), ix, c.q, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.what, err)
		}
		if err := sameMatches(got, want); err != nil {
			t.Fatalf("%s: the rebuilt index answers differently: %v", c.what, err)
		}
	}
	var again bytes.Buffer
	if err := ix.WriteBinary(&again); err != nil || !bytes.Equal(again.Bytes(), good) {
		t.Fatalf("the rebuilt index writes %d bytes (%v), not the undamaged artifact's %d", again.Len(), err, len(good))
	}
	if _, err := ix.AppendAndIndex("new", make([]float64, 64)); err != nil {
		t.Fatalf("mutating the rebuilt index: %v", err)
	}
}

// openOracle is what a fresh build answers to a fixed range query and a
// fixed k-NN query, to hold an index OpenOrRebuildFile returns to.
type openOracle struct {
	st            *store.Store
	opts          Options
	q             vec.Vector
	eps           float64
	wantR, wantNN []Match
}

func newOpenOracle(t testing.TB, fresh *Index) *openOracle {
	o := &openOracle{st: fresh.Store(), opts: fresh.Options()}
	o.q, o.eps = testQueryEps(t, fresh)
	var err error
	if o.wantR, err = search(fresh, o.q, o.eps, nil); err == nil {
		o.wantNN, err = nearest(fresh, o.q, 3, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// open writes in as the artifact at path and opens it with
// OpenOrRebuildFile, failing t unless the open succeeds and the index
// answers both queries as the fresh build did; it returns the rebuild
// reason.
func (o *openOracle) open(t *testing.T, path string, in []byte) error {
	t.Helper()
	if err := os.WriteFile(path, in, 0o644); err != nil {
		t.Fatal(err)
	}
	ix, rebuilt, err := OpenOrRebuildFile(path, o.st, o.opts)
	if err != nil {
		t.Fatalf("open failed: %v", err)
	}
	defer ix.Close()
	r, err := search(ix, o.q, o.eps, nil)
	if err == nil {
		err = sameMatches(r, o.wantR)
	}
	nn, err2 := nearest(ix, o.q, 3, nil)
	if err2 == nil {
		err2 = sameMatches(nn, o.wantNN)
	}
	if err != nil || err2 != nil {
		t.Fatalf("range query: %v; k-NN query: %v", err, err2)
	}
	return rebuilt
}

// TestIndexArtifactCorruptionAlwaysDetected flips every byte of an
// artifact and cuts it at every seventh offset: the stream loader
// rejects every mutation with a typed error, and OpenOrRebuildFile
// rebuilds every one into an index that answers a fixed range query and
// a fixed k-NN query Float64bits-identically to the index that wrote it.
func TestIndexArtifactCorruptionAlwaysDetected(t *testing.T) {
	opts := testOptions()
	ix := buildTestIndex(t, opts, 2, 50)
	st := ix.Store()
	var buf bytes.Buffer
	if err := ix.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	oracle := newOpenOracle(t, ix)
	path := filepath.Join(t.TempDir(), "index.ssidx")
	rebuilds := func(bad []byte, what string) {
		t.Helper()
		if rebuilt := oracle.open(t, path, bad); rebuilt == nil {
			t.Fatalf("%s: served without a rebuild", what)
		}
	}

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
		rebuilds(bad, fmt.Sprintf("flip at byte %d", off))
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
		rebuilds(good[:cut], fmt.Sprintf("truncation at %d", cut))
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
