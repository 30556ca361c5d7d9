package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"scaleshift/internal/engine"
	"scaleshift/internal/query"
	"scaleshift/internal/rtree"
	"scaleshift/internal/stock"
	"scaleshift/internal/store"
	"scaleshift/internal/vec"
)

// descentObservation is what one range query shows of its descent: the
// candidates in the verifier's order, the tree's counts, the ledger and
// the rows, and whether a frozen segment's descent fanned out.
type descentObservation struct {
	ids    []int64
	tree   rtree.SearchStats
	stats  SearchStats
	rows   []Match
	fanned bool
}

func observeDescent(t *testing.T, ix *Index, q vec.Vector, eps float64, procs int) descentObservation {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	ctx := context.Background()
	var o descentObservation
	pin := ix.cell.Acquire()
	m := pin.Value()
	sc := acquireScratch()
	sc.probers = nil // workers exist afterwards only if a descent fanned out
	_, err := m.probe(ctx, q, eps, UnboundedCosts(), engine.PathAuto, nil, sc)
	if err == nil {
		sc.orderIDs(m.windowBits())
		o.ids, o.tree, o.fanned = slices.Clone(sc.ids), sc.tree, len(sc.probers) > 0
	}
	sc.release()
	pin.Release()
	if err != nil {
		t.Fatal(err)
	}
	res, err := ix.Exec(ctx, Query{Vec: q, Eps: eps}, &o.stats)
	if err != nil {
		t.Fatal(err)
	}
	o.rows = res.Matches
	// What the chunking of the verification and the clock decide.
	o.stats.ExactChecks, o.stats.NormCertified, o.stats.DataPageAccesses = 0, 0, 0
	o.stats.PlanTime, o.stats.ProbeTime, o.stats.VerifyTime = 0, 0, 0
	return o
}

// TestFannedDescentIsSerial: at GOMAXPROCS 2 and 4 a range query's
// descent — fanned out wherever its frontier is wide enough — proposes
// the candidates the one-worker descent does in the order the verifier
// sees them, counts every rtree.SearchStats field and every ledger count
// but the three the verification's chunking decides alike, and returns
// the same rows, Float64bits-equal; over the 200 × 650 fixture and over
// three frozen segments beside a delta.
func TestFannedDescentIsSerial(t *testing.T) {
	ix, queries, scale := execRangeFixture(t)
	seg := newSegmentedExecFixture(t, execFixtureDeltaAppends)
	for _, fx := range []struct {
		name    string
		ix      *Index
		queries []query.Query
		scale   float64
	}{
		{"200x650", ix, queries[:2], scale},
		{"3 segments + delta", seg.g, seg.queries[:2], seg.scale},
	} {
		fanned := 0
		for _, frac := range []float64{0.001, 0.005, 0.02, 0.1} {
			for qi, q := range fx.queries {
				eps := frac * fx.scale
				want := observeDescent(t, fx.ix, q.Values, eps, 1)
				if want.fanned {
					t.Fatalf("%s: a descent fanned out at GOMAXPROCS 1", fx.name)
				}
				for _, procs := range []int{2, 4} {
					got := observeDescent(t, fx.ix, q.Values, eps, procs)
					if got.fanned {
						fanned++
					}
					where := func() string {
						return fmt.Sprintf("%s, ε-frac %g, query %d, GOMAXPROCS %d", fx.name, frac, qi, procs)
					}
					if !slices.Equal(got.ids, want.ids) {
						t.Fatalf("%s: %d candidates, the one-worker descent's %d differ", where(), len(got.ids), len(want.ids))
					}
					if got.tree != want.tree {
						t.Fatalf("%s: tree counts %+v, one worker %+v", where(), got.tree, want.tree)
					}
					if got.stats != want.stats {
						t.Fatalf("%s: ledger %+v, one worker %+v", where(), got.stats, want.stats)
					}
					if len(got.rows) != len(want.rows) {
						t.Fatalf("%s: %d rows, one worker %d", where(), len(got.rows), len(want.rows))
					}
					for i, r := range got.rows {
						w := want.rows[i]
						if r.Seq != w.Seq || r.Start != w.Start || r.Name != w.Name ||
							math.Float64bits(r.Dist) != math.Float64bits(w.Dist) ||
							math.Float64bits(r.Scale) != math.Float64bits(w.Scale) ||
							math.Float64bits(r.Shift) != math.Float64bits(w.Shift) {
							t.Fatalf("%s: row %d %+v, one worker %+v", where(), i, r, w)
						}
					}
				}
			}
		}
		if fanned == 0 {
			t.Errorf("%s: no descent fanned out, so nothing was compared", fx.name)
		}
	}
}

// wideProbeIndex is a bulk-built 200 × 650 index of its own, for the
// tests that damage or cancel what it serves, with a query whose descent
// fans out at GOMAXPROCS above 1.
func wideProbeIndex(t *testing.T) (*Index, Query) {
	t.Helper()
	st := store.New()
	cfg := stock.DefaultConfig()
	cfg.Companies, cfg.Days = 200, 650
	if _, err := stock.Populate(st, cfg); err != nil {
		t.Fatal(err)
	}
	ix, err := NewIndex(st, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Build(); err != nil {
		t.Fatal(err)
	}
	qcfg := query.DefaultConfig()
	qcfg.N = 1
	qs, err := query.Generate(st, qcfg)
	if err != nil {
		t.Fatal(err)
	}
	scale, err := query.SENormScale(st, qcfg.WindowLen, 1000, qcfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Vec: qs[0].Values, Eps: 0.1 * scale}
	if w := ix.FrontierWidths(q); len(w) != 1 || w[0] < probeFanoutWidth {
		t.Fatalf("frontier widths %v, the test needs one of at least %d", w, probeFanoutWidth)
	}
	return ix, q
}

// settleGoroutines fails t unless the goroutine count falls back to
// base: a helper must not outlive the query it served.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the query", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestProbeHelperPanic: a fanned-out descent into subtrees whose child
// references are corrupt returns a *WorkerPanicError naming the probe,
// whichever worker hit them, and the process and its goroutine count
// survive.
func TestProbeHelperPanic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ix, q := wideProbeIndex(t)
	if err := ix.CorruptChildRefs(); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	_, err := ix.Exec(context.Background(), q, nil)
	var wpe *WorkerPanicError
	if !errors.As(err, &wpe) || wpe.Op != "probe" {
		t.Fatalf("err = %v, want a *WorkerPanicError of the probe", err)
	}
	settleGoroutines(t, base)
}

// pollLimit is a context that reports itself cancelled from its limit-th
// Err call on: a cancellation that lands at a chosen depth of a descent,
// which polls once per node.
type pollLimit struct {
	context.Context
	polls atomic.Int64
	limit int64
}

func (c *pollLimit) Err() error {
	if c.polls.Add(1) > c.limit {
		return context.Canceled
	}
	return nil
}

// TestProbeFanoutCancel: a context cancelled while the helpers run
// subtrees — past the frontier's few dozen nodes, long before the
// descent's thousands — ends the query with the context's error, and no
// helper outlives it.
func TestProbeFanoutCancel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ix, q := wideProbeIndex(t)
	var full SearchStats
	if _, err := ix.Exec(context.Background(), q, &full); err != nil {
		t.Fatal(err)
	}
	const limit = 200
	if full.IndexNodeAccesses < 10*limit {
		t.Fatalf("the descent reads %d nodes, too few to cancel in the middle of", full.IndexNodeAccesses)
	}
	base := runtime.NumGoroutine()
	ctx := &pollLimit{Context: context.Background(), limit: limit}
	if _, err := ix.Exec(ctx, q, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	settleGoroutines(t, base)
}
