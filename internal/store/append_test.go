package store

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"scaleshift/internal/vec"
)

// refStore builds a packed store holding the same sequences as the
// given name/value pairs appended whole.
func refStore(names []string, seqs [][]float64) *Store {
	st := New()
	for i, name := range names {
		st.AppendSequence(name, seqs[i])
	}
	return st
}

// TestAppendValuesEquivalence grows sequences through random tail
// appends and asserts every read path — Window, WindowView,
// WindowStats, ScanWindows — is bit-identical to a packed store built
// from the final values in one shot.
func TestAppendValuesEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	names := []string{"a", "b", "c"}
	init := [][]float64{nil, nil, nil}
	for i := range init {
		for j := 0; j < 20+10*i; j++ {
			init[i] = append(init[i], rng.NormFloat64()*10)
		}
	}
	grown := New()
	final := make([][]float64, len(names))
	for i, name := range names {
		grown.AppendSequence(name, init[i])
		final[i] = append(final[i], init[i]...)
	}
	for step := 0; step < 40; step++ {
		seq := rng.Intn(len(names))
		chunk := make([]float64, 1+rng.Intn(7))
		for j := range chunk {
			chunk[j] = rng.NormFloat64() * 10
		}
		if err := grown.AppendValues(seq, chunk); err != nil {
			t.Fatal(err)
		}
		final[seq] = append(final[seq], chunk...)
	}
	ref := refStore(names, final)

	if grown.TotalValues() != ref.TotalValues() {
		t.Fatalf("TotalValues %d, want %d", grown.TotalValues(), ref.TotalValues())
	}
	const n = 8
	stitch := make(vec.Vector, n)
	straddling := 0
	for seq := range names {
		if grown.SequenceLen(seq) != ref.SequenceLen(seq) {
			t.Fatalf("seq %d length %d, want %d", seq, grown.SequenceLen(seq), ref.SequenceLen(seq))
		}
		for start := 0; start+n <= ref.SequenceLen(seq); start++ {
			got := make([]float64, n)
			want := make([]float64, n)
			if err := grown.Window(seq, start, n, got, nil); err != nil {
				t.Fatal(err)
			}
			if err := ref.Window(seq, start, n, want, nil); err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("window (%d,%d)[%d] = %v, want %v", seq, start, i, got[i], want[i])
				}
			}
			gv, err := grown.WindowView(seq, start, n, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range gv {
				if gv[i] != want[i] {
					t.Fatalf("view (%d,%d)[%d] = %v, want %v", seq, start, i, gv[i], want[i])
				}
			}
			// The buffer-taking view returns the same samples and pages,
			// in place unless the window straddles the packed/tail
			// boundary — and then in the caller's buffer, not a fresh one.
			var pcView, pcInto PageCounter
			if _, err := grown.WindowView(seq, start, n, &pcView); err != nil {
				t.Fatal(err)
			}
			iv, err := grown.WindowViewInto(seq, start, n, stitch, &pcInto)
			if err != nil {
				t.Fatal(err)
			}
			for i := range iv {
				if iv[i] != want[i] {
					t.Fatalf("view into (%d,%d)[%d] = %v, want %v", seq, start, i, iv[i], want[i])
				}
			}
			if pcInto.Distinct() != pcView.Distinct() || pcInto.Raw != pcView.Raw {
				t.Fatalf("view into (%d,%d) charged (%d,%d) pages, view (%d,%d)", seq, start,
					pcInto.Distinct(), pcInto.Raw, pcView.Distinct(), pcView.Raw)
			}
			straddles := start < len(init[seq]) && start+n > len(init[seq])
			if aliases := &iv[0] == &stitch[0]; aliases != straddles {
				t.Fatalf("view into (%d,%d): aliases the stitch buffer %v, straddles %v", seq, start, aliases, straddles)
			}
			if straddles {
				straddling++
			}
			gs, err := grown.WindowStats(seq, start, n)
			if err != nil {
				t.Fatal(err)
			}
			ws, err := ref.WindowStats(seq, start, n)
			if err != nil {
				t.Fatal(err)
			}
			if gs != ws {
				t.Fatalf("stats (%d,%d) = %+v, want %+v", seq, start, gs, ws)
			}
		}
	}

	if want := len(names) * (n - 1); straddling != want {
		t.Fatalf("%d straddling windows, want n-1 per appended sequence = %d", straddling, want)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := grown.WindowViewInto(0, len(init[0])-1, n, stitch, nil); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a stitched view into the caller's buffer allocated %.0f times", allocs)
	}

	// ScanWindows must visit the same windows with the same values.
	type win struct{ seq, start int }
	collect := func(s *Store) map[win][]float64 {
		out := map[win][]float64{}
		s.ScanWindows(n, nil, func(seq, start int, w vec.Vector) bool {
			out[win{seq, start}] = append([]float64(nil), w...)
			return true
		})
		return out
	}
	got, want := collect(grown), collect(ref)
	if len(got) != len(want) {
		t.Fatalf("scan visited %d windows, want %d", len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Fatalf("scan missed window %+v", k)
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("scan window %+v differs at %d", k, i)
			}
		}
	}
}

// TestAppendPageAccounting: a full scan of a tail-grown store charges
// exactly PageCount pages, once each.
func TestAppendPageAccounting(t *testing.T) {
	st := New()
	vals := make([]float64, 700)
	for i := range vals {
		vals[i] = float64(i)
	}
	st.AppendSequence("a", vals[:600])
	st.AppendSequence("b", vals[:100])
	if err := st.AppendValues(0, vals[:650]); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendValues(1, vals[:10]); err != nil {
		t.Fatal(err)
	}
	wantPages := (600+100+ValuesPerPage-1)/ValuesPerPage +
		(650+ValuesPerPage-1)/ValuesPerPage +
		(10+ValuesPerPage-1)/ValuesPerPage
	if st.PageCount() != wantPages {
		t.Fatalf("PageCount = %d, want %d", st.PageCount(), wantPages)
	}
	var pc PageCounter
	st.ScanWindows(16, &pc, func(int, int, vec.Vector) bool { return true })
	if pc.Raw != st.PageCount() || pc.Distinct() != st.PageCount() {
		t.Fatalf("scan charged raw=%d distinct=%d, want %d", pc.Raw, pc.Distinct(), st.PageCount())
	}
}

// TestSnapshotStaleness: a snapshot pins its generation and its
// per-sequence lengths; post-snapshot appends flip Stale() to the
// typed error while the pinned reads keep answering the old contents.
func TestSnapshotStaleness(t *testing.T) {
	st := New()
	st.AppendSequence("a", []float64{1, 2, 3, 4})
	sn := st.Snapshot()
	if err := sn.Stale(); err != nil {
		t.Fatalf("fresh snapshot reported stale: %v", err)
	}
	if sn.Generation() != st.Generation() {
		t.Fatalf("generation mismatch: %d vs %d", sn.Generation(), st.Generation())
	}
	if err := st.AppendValues(0, []float64{5, 6}); err != nil {
		t.Fatal(err)
	}
	err := sn.Stale()
	if err == nil || !errors.Is(err, ErrStaleSnapshot) {
		t.Fatalf("want ErrStaleSnapshot, got %v", err)
	}
	if sn.SequenceLen(0) != 4 {
		t.Fatalf("snapshot length moved to %d", sn.SequenceLen(0))
	}
	if _, err := sn.WindowView(0, 2, 4, nil); err == nil {
		t.Fatal("snapshot served a window beyond its pinned length")
	}
	w := make([]float64, 4)
	if err := sn.Window(0, 0, 4, w, nil); err != nil {
		t.Fatal(err)
	}
	if w[3] != 4 {
		t.Fatalf("snapshot window = %v", w)
	}
	if st.SequenceLen(0) != 6 {
		t.Fatalf("store length %d, want 6", st.SequenceLen(0))
	}
}

// TestAppendValuesRoundTrip: a tail-grown store serializes into the
// compacted packed layout and reloads bit-identically.
func TestAppendValuesRoundTrip(t *testing.T) {
	st := New()
	st.AppendSequence("x", []float64{1.5, -2.25, math.Pi})
	st.AppendSequence("y", []float64{0.5})
	if err := st.AppendValues(0, []float64{7, 8, 9}); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendValues(1, []float64{-1}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < st.NumSequences(); seq++ {
		n := st.SequenceLen(seq)
		if got.SequenceLen(seq) != n {
			t.Fatalf("seq %d length %d, want %d", seq, got.SequenceLen(seq), n)
		}
		a, b := make([]float64, n), make([]float64, n)
		if err := st.Window(seq, 0, n, a, nil); err != nil {
			t.Fatal(err)
		}
		if err := got.Window(seq, 0, n, b, nil); err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seq %d sample %d: %v != %v", seq, i, a[i], b[i])
			}
		}
	}
}

// TestSnapshotWriteBinary serializes a pinned snapshot while appends
// keep mutating the live store: the artifact must reproduce exactly
// the snapshot's contents — the checkpoint writer depends on this to
// serialize off the ingest lock.
func TestSnapshotWriteBinary(t *testing.T) {
	st := New()
	st.AppendSequence("x", []float64{1, 2, 3})
	st.AppendSequence("y", []float64{4})
	if err := st.AppendValues(0, []float64{5, 6}); err != nil {
		t.Fatal(err)
	}
	sn := st.Snapshot()
	want := make(map[int][]float64)
	for seq := 0; seq < sn.NumSequences(); seq++ {
		w := make([]float64, sn.SequenceLen(seq))
		if err := sn.Window(seq, 0, len(w), w, nil); err != nil {
			t.Fatal(err)
		}
		want[seq] = w
	}

	// Mutate the live store after the snapshot: both an in-capacity
	// append and a (likely) reallocating one.
	if err := st.AppendValues(0, []float64{99}); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendValues(1, make([]float64, 1024)); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := sn.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumSequences() != sn.NumSequences() {
		t.Fatalf("round trip has %d sequences, want %d", got.NumSequences(), sn.NumSequences())
	}
	for seq, w := range want {
		if got.SequenceLen(seq) != len(w) {
			t.Fatalf("seq %d length %d, want snapshot length %d (post-snapshot appends leaked)",
				seq, got.SequenceLen(seq), len(w))
		}
		g := make([]float64, len(w))
		if err := got.Window(seq, 0, len(g), g, nil); err != nil {
			t.Fatal(err)
		}
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("seq %d sample %d: %v != %v", seq, i, g[i], w[i])
			}
		}
	}
}
