package store

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"scaleshift/internal/obs"
	"scaleshift/internal/vec"
)

func TestAppendAndAccessors(t *testing.T) {
	s := New()
	id0 := s.AppendSequence("a", []float64{1, 2, 3})
	id1 := s.AppendSequence("b", []float64{4, 5})
	if id0 != 0 || id1 != 1 {
		t.Errorf("ids = %d, %d", id0, id1)
	}
	if s.NumSequences() != 2 || s.TotalValues() != 5 {
		t.Errorf("counts: %d seqs, %d values", s.NumSequences(), s.TotalValues())
	}
	if s.SequenceName(0) != "a" || s.SequenceLen(1) != 2 {
		t.Error("metadata wrong")
	}
}

func TestAppendCopies(t *testing.T) {
	s := New()
	vals := []float64{1, 2, 3}
	s.AppendSequence("a", vals)
	vals[0] = 99
	dst := make(vec.Vector, 3)
	if err := s.Window(0, 0, 3, dst, nil); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 1 {
		t.Error("store shares caller's slice")
	}
}

func TestWindowRoundTrip(t *testing.T) {
	s := New()
	r := rand.New(rand.NewSource(1))
	seqs := make([][]float64, 5)
	for i := range seqs {
		seqs[i] = make([]float64, 100+r.Intn(400))
		for j := range seqs[i] {
			seqs[i][j] = r.NormFloat64()
		}
		s.AppendSequence("s", seqs[i])
	}
	for trial := 0; trial < 200; trial++ {
		seq := r.Intn(5)
		n := 1 + r.Intn(50)
		start := r.Intn(len(seqs[seq]) - n + 1)
		dst := make(vec.Vector, n)
		if err := s.Window(seq, start, n, dst, nil); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < n; j++ {
			if dst[j] != seqs[seq][start+j] {
				t.Fatalf("value mismatch at seq %d start %d offset %d", seq, start, j)
			}
		}
	}
}

func TestWindowErrors(t *testing.T) {
	s := New()
	s.AppendSequence("a", []float64{1, 2, 3})
	dst := make(vec.Vector, 2)
	tests := []struct {
		name          string
		seq, start, n int
		dstLen        int
	}{
		{"bad seq", 1, 0, 2, 2},
		{"negative seq", -1, 0, 2, 2},
		{"negative start", 0, -1, 2, 2},
		{"past end", 0, 2, 2, 2},
		{"negative n", 0, 0, -1, 2},
		{"dst mismatch", 0, 0, 2, 3},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			d := dst
			if tc.dstLen != 2 {
				d = make(vec.Vector, tc.dstLen)
			}
			if err := s.Window(tc.seq, tc.start, tc.n, d, nil); err == nil {
				t.Error("expected error")
			}
		})
	}
	// In-bounds window at the very end works.
	if err := s.Window(0, 1, 2, dst, nil); err != nil {
		t.Errorf("valid window errored: %v", err)
	}
}

func TestPageCountFormula(t *testing.T) {
	// The paper's number: 0.65M values * 8 bytes / 4KB = ~1270 pages.
	s := New()
	for i := 0; i < 1000; i++ {
		s.AppendSequence("stk", make([]float64, 650))
	}
	if got := s.TotalValues(); got != 650000 {
		t.Fatalf("TotalValues = %d", got)
	}
	want := (650000 + ValuesPerPage - 1) / ValuesPerPage // 1270
	if got := s.PageCount(); got != want {
		t.Errorf("PageCount = %d, want %d", got, want)
	}
	if want < 1200 || want > 1350 {
		t.Errorf("page count %d far from the paper's ~1300", want)
	}
}

func TestPageCounter(t *testing.T) {
	var pc PageCounter
	pc.Touch(3)
	pc.Touch(3)
	pc.Touch(5)
	if pc.Raw != 3 || pc.Distinct() != 2 {
		t.Errorf("Raw=%d Distinct=%d", pc.Raw, pc.Distinct())
	}
	pc.Reset()
	if pc.Raw != 0 || pc.Distinct() != 0 {
		t.Errorf("after reset: Raw=%d Distinct=%d", pc.Raw, pc.Distinct())
	}
}

func TestWindowPageAccounting(t *testing.T) {
	s := New()
	s.AppendSequence("a", make([]float64, 3*ValuesPerPage))
	dst := make(vec.Vector, 10)
	var pc PageCounter

	// Entirely inside page 0.
	if err := s.Window(0, 5, 10, dst, &pc); err != nil {
		t.Fatal(err)
	}
	if pc.Raw != 1 || pc.Distinct() != 1 {
		t.Errorf("single page: %d raw %d distinct", pc.Raw, pc.Distinct())
	}
	// Straddling pages 0-1.
	pc.Reset()
	if err := s.Window(0, ValuesPerPage-5, 10, dst, &pc); err != nil {
		t.Fatal(err)
	}
	if pc.Raw != 2 {
		t.Errorf("straddling window touched %d pages", pc.Raw)
	}
	// Full-page window.
	pc.Reset()
	big := make(vec.Vector, ValuesPerPage)
	if err := s.Window(0, 0, ValuesPerPage, big, &pc); err != nil {
		t.Fatal(err)
	}
	if pc.Raw != 1 {
		t.Errorf("aligned full page window touched %d pages", pc.Raw)
	}
	// Distinct dedups across fetches in one query.
	pc.Reset()
	_ = s.Window(0, 0, 10, dst, &pc)
	_ = s.Window(0, 20, 10, dst, &pc)
	if pc.Raw != 2 || pc.Distinct() != 1 {
		t.Errorf("dedup: raw=%d distinct=%d", pc.Raw, pc.Distinct())
	}
}

func TestScanWindowsEnumeratesAll(t *testing.T) {
	s := New()
	lens := []int{100, 37, 64, 5, 200}
	n := 32
	for i, L := range lens {
		vals := make([]float64, L)
		for j := range vals {
			vals[j] = float64(i*1000 + j)
		}
		s.AppendSequence("s", vals)
	}
	want := 0
	for _, L := range lens {
		if L >= n {
			want += L - n + 1
		}
	}
	got := 0
	s.ScanWindows(n, nil, func(seq, start int, w vec.Vector) bool {
		if len(w) != n {
			t.Fatalf("window length %d", len(w))
		}
		// Values must match the generator formula.
		if w[0] != float64(seq*1000+start) {
			t.Fatalf("window content wrong at seq %d start %d", seq, start)
		}
		got++
		return true
	})
	if got != want {
		t.Errorf("scanned %d windows, want %d", got, want)
	}
}

func TestScanWindowsEarlyStop(t *testing.T) {
	s := New()
	s.AppendSequence("a", make([]float64, 100))
	count := 0
	s.ScanWindows(10, nil, func(seq, start int, w vec.Vector) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop after %d windows", count)
	}
}

func TestScanWindowsChargesEveryPageOnce(t *testing.T) {
	s := New()
	for i := 0; i < 7; i++ {
		s.AppendSequence("s", make([]float64, 700))
	}
	var pc PageCounter
	s.ScanWindows(128, &pc, func(seq, start int, w vec.Vector) bool { return true })
	if pc.Raw != s.PageCount() {
		t.Errorf("scan charged %d pages, store has %d", pc.Raw, s.PageCount())
	}
	if pc.Distinct() != s.PageCount() {
		t.Errorf("distinct %d != %d", pc.Distinct(), s.PageCount())
	}
}

func TestScanWindowsZeroN(t *testing.T) {
	s := New()
	s.AppendSequence("a", make([]float64, 10))
	called := false
	s.ScanWindows(0, nil, func(seq, start int, w vec.Vector) bool {
		called = true
		return true
	})
	if called {
		t.Error("n=0 scan produced windows")
	}
}

func TestWindowIDRoundTrip(t *testing.T) {
	f := func(seq uint16, start uint16) bool {
		id := EncodeWindowID(int(seq), int(start))
		s2, st2 := DecodeWindowID(id)
		return s2 == int(seq) && st2 == int(start)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Large but in-range values.
	seq, start := 1<<30, 1<<31-1
	s2, st2 := DecodeWindowID(EncodeWindowID(seq, start))
	if s2 != seq || st2 != start {
		t.Errorf("round trip (%d, %d) -> (%d, %d)", seq, start, s2, st2)
	}
}

func TestBufferPoolLRU(t *testing.T) {
	bp := NewBufferPool(2)
	if bp.Access(1) {
		t.Error("cold access hit")
	}
	if !bp.Access(1) {
		t.Error("warm access missed")
	}
	bp.Access(2) // miss, pool now {1,2}
	bp.Access(3) // miss, evicts 1 (LRU order: 2 was... 1 touched most recently before 2)
	// After accesses 1,1,2,3: LRU evicted 1? Order front->back after 1,1,2: [2,1]; 3 evicts 1.
	if bp.Access(2) != true {
		t.Error("2 should be resident")
	}
	if bp.Access(1) {
		t.Error("1 should have been evicted")
	}
	if bp.Len() != 2 || bp.Capacity() != 2 {
		t.Errorf("Len=%d Cap=%d", bp.Len(), bp.Capacity())
	}
	if bp.Hits() != 2 || bp.Misses() != 4 {
		t.Errorf("hits=%d misses=%d", bp.Hits(), bp.Misses())
	}
	bp.ResetStats()
	if bp.Hits() != 0 || bp.Misses() != 0 {
		t.Error("ResetStats failed")
	}
	// Resident set survives the stats reset.
	if !bp.Access(2) {
		t.Error("resident set lost on ResetStats")
	}
	// Zero-capacity pool always misses.
	z := NewBufferPool(0)
	z.Access(7)
	if z.Access(7) {
		t.Error("zero-capacity pool cached a page")
	}
	// Negative capacity clamps to zero.
	if NewBufferPool(-5).Capacity() != 0 {
		t.Error("negative capacity not clamped")
	}
}

func TestPageCounterWithPool(t *testing.T) {
	bp := NewBufferPool(1)
	pc := PageCounter{Pool: bp}
	pc.Touch(5)
	pc.Touch(5)
	pc.Touch(6)
	if pc.Raw != 3 || pc.Misses != 2 {
		t.Errorf("Raw=%d Misses=%d", pc.Raw, pc.Misses)
	}
	pc.Reset()
	// Pool retains page 6; touching it again is a hit, not a miss.
	pc.Pool = bp
	pc.Touch(6)
	if pc.Misses != 0 {
		t.Errorf("warm page missed: %d", pc.Misses)
	}
}

func TestWindowView(t *testing.T) {
	s := New()
	s.AppendSequence("a", []float64{1, 2, 3, 4, 5})
	s.AppendSequence("b", []float64{6, 7, 8})

	var pc PageCounter
	v, err := s.WindowView(0, 1, 3, &pc)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, 4}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("view[%d]=%v want %v", i, v[i], want[i])
		}
	}
	if pc.Distinct() != 1 {
		t.Errorf("view charged %d pages, want 1", pc.Distinct())
	}
	// Same pages as the copying accessor.
	var pcCopy PageCounter
	w := make(vec.Vector, 3)
	if err := s.Window(0, 1, 3, w, &pcCopy); err != nil {
		t.Fatal(err)
	}
	if pc.Distinct() != pcCopy.Distinct() || pc.Raw != pcCopy.Raw {
		t.Errorf("view pages (%d,%d) != copy pages (%d,%d)",
			pc.Distinct(), pc.Raw, pcCopy.Distinct(), pcCopy.Raw)
	}
	// The view has capacity clamped to its length: an append through it
	// cannot clobber the next sequence.
	if cap(v) != len(v) {
		t.Errorf("view cap %d != len %d", cap(v), len(v))
	}
	if _, err := s.WindowView(0, 3, 3, nil); err == nil {
		t.Error("out-of-range view succeeded")
	}
	if _, err := s.WindowView(9, 0, 1, nil); err == nil {
		t.Error("view of absent sequence succeeded")
	}
}

func TestWindowStats(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := New()
	var seqs [][]float64
	for i := 0; i < 3; i++ {
		vals := make([]float64, 200+50*i)
		for j := range vals {
			vals[j] = 100 + 20*rng.NormFloat64() // stock-like magnitudes
		}
		seqs = append(seqs, vals)
		s.AppendSequence(fmt.Sprintf("s%d", i), vals)
	}
	for seq, vals := range seqs {
		for _, win := range []struct{ start, n int }{
			{0, 1}, {0, 64}, {10, 128}, {len(vals) - 32, 32}, {5, 0},
		} {
			ws, err := s.WindowStats(seq, win.start, win.n)
			if err != nil {
				t.Fatal(err)
			}
			var sum, sumSq float64
			for _, v := range vals[win.start : win.start+win.n] {
				sum += v
				sumSq += v * v
			}
			if d := math.Abs(ws.Sum - sum); d > ws.SumErr+1e-9*math.Abs(sum) {
				t.Errorf("seq %d [%d,%d): Sum off by %g (bound %g)", seq, win.start, win.start+win.n, d, ws.SumErr)
			}
			if d := math.Abs(ws.SumSq - sumSq); d > ws.SumSqErr+1e-9*sumSq {
				t.Errorf("seq %d [%d,%d): SumSq off by %g (bound %g)", seq, win.start, win.start+win.n, d, ws.SumSqErr)
			}
		}
	}
	if _, err := s.WindowStats(0, 190, 100); err == nil {
		t.Error("out-of-range stats succeeded")
	}
}

// TestWindowStatsExtend checks that prefix sums built by AppendValues
// match an all-at-once append bit for bit: the Kahan compensation is
// carried across the boundary.
func TestWindowStatsExtend(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	vals := make([]float64, 300)
	for j := range vals {
		vals[j] = 50 + 10*rng.NormFloat64()
	}
	whole := New()
	whole.AppendSequence("x", vals)
	grown := New()
	grown.AppendSequence("x", vals[:100])
	if err := grown.AppendValues(0, vals[100:250]); err != nil {
		t.Fatal(err)
	}
	if err := grown.AppendValues(0, vals[250:]); err != nil {
		t.Fatal(err)
	}
	for start := 0; start+64 <= len(vals); start += 37 {
		a, err := whole.WindowStats(0, start, 64)
		if err != nil {
			t.Fatal(err)
		}
		b, err := grown.WindowStats(0, start, 64)
		if err != nil {
			t.Fatal(err)
		}
		if a.Sum != b.Sum || a.SumSq != b.SumSq {
			t.Fatalf("start %d: whole (%v,%v) vs grown (%v,%v)", start, a.Sum, a.SumSq, b.Sum, b.SumSq)
		}
	}
}

func TestPageCounterMerge(t *testing.T) {
	var a, b PageCounter
	a.Touch(1)
	a.Touch(2)
	b.Touch(2)
	b.Touch(3)
	b.Touch(3)
	a.Merge(&b)
	if a.Raw != 5 {
		t.Errorf("Raw = %d, want 5", a.Raw)
	}
	if a.Distinct() != 3 {
		t.Errorf("Distinct = %d, want 3", a.Distinct())
	}
	var empty PageCounter
	empty.Merge(&a)
	if empty.Distinct() != 3 || empty.Raw != 5 {
		t.Errorf("merge into empty: %d distinct, %d raw", empty.Distinct(), empty.Raw)
	}
}

// TestPageTouchMetricPublishedPerQuery pins the metric's accounting:
// touches reach scaleshift_store_page_touches_total once per query —
// through the final Distinct read, a worker's Merge, or Reset — and
// none is lost or counted twice on the way.
func TestPageTouchMetricPublishedPerQuery(t *testing.T) {
	wasEnabled := obs.Enabled()
	obs.Enable()
	defer func() {
		if !wasEnabled {
			obs.Disable()
		}
	}()
	sm.once.Do(initStoreMetrics)
	total := func() int64 { return sm.pageTouches.Value() }

	// Two workers walk pages in storage order (long runs of repeats),
	// the query's counter merges them and reads Distinct once.
	base := total()
	var query, w1, w2 PageCounter
	const n = 1000
	for i := 0; i < n; i++ {
		w1.Touch(i / 7)
		w2.Touch(n/7 + i/5)
	}
	if got := total() - base; got != 0 {
		t.Errorf("metric moved by %d before any publish point", got)
	}
	query.Merge(&w1)
	query.Merge(&w2)
	// w1 covers pages 0..142 and w2 pages 142..341, sharing page 142.
	if want := 342; query.Raw != 2*n || query.Distinct() != want {
		t.Errorf("Raw=%d Distinct=%d, want %d and %d", query.Raw, query.Distinct(), 2*n, want)
	}
	if got := total() - base; got != 2*n {
		t.Errorf("metric rose by %d after Merge + Distinct, want exactly %d", got, 2*n)
	}
	// A second read, and reads of the drained workers, add nothing.
	query.Distinct()
	w1.Distinct()
	w2.Reset()
	if got := total() - base; got != 2*n {
		t.Errorf("metric rose by %d after repeated reads, want %d", got, 2*n)
	}

	// Reset publishes what no read has yet.
	base = total()
	var pc PageCounter
	pc.Touch(4)
	pc.Touch(4)
	pc.Touch(9)
	pc.Reset()
	if got := total() - base; got != 3 {
		t.Errorf("Reset published %d touches, want 3", got)
	}
	pc.Touch(4)
	if pc.Raw != 1 || pc.Distinct() != 1 {
		t.Errorf("after Reset and one touch: Raw=%d Distinct=%d", pc.Raw, pc.Distinct())
	}
	if got := total() - base; got != 4 {
		t.Errorf("metric at %d after the post-Reset touch, want 4", got)
	}
}
