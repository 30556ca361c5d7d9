package core

import (
	"bytes"
	"strings"
	"testing"

	"scaleshift/internal/query"
	"scaleshift/internal/store"
	"scaleshift/internal/vec"
)

func TestIndexSerializationRoundTrip(t *testing.T) {
	opts := testOptions()
	ix := buildTestIndex(t, opts, 10, 140)
	st := ix.Store()

	// Persist store and index.
	var stBuf, ixBuf bytes.Buffer
	if err := st.WriteBinary(&stBuf); err != nil {
		t.Fatal(err)
	}
	if err := ix.WriteBinary(&ixBuf); err != nil {
		t.Fatal(err)
	}

	// Reload both.
	st2, err := store.ReadBinary(&stBuf)
	if err != nil {
		t.Fatal(err)
	}
	ix2, err := LoadIndex(&ixBuf, st2)
	if err != nil {
		t.Fatal(err)
	}
	if ix2.WindowCount() != ix.WindowCount() {
		t.Fatalf("window count %d, want %d", ix2.WindowCount(), ix.WindowCount())
	}
	if ix2.IndexPageCount() != ix.IndexPageCount() {
		t.Fatalf("page count %d, want %d", ix2.IndexPageCount(), ix.IndexPageCount())
	}

	// Identical search results on identical queries.
	scale, err := query.SENormScale(st, opts.WindowLen, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	w := make(vec.Vector, opts.WindowLen)
	for _, src := range []struct{ seq, start int }{{2, 10}, {8, 77}} {
		if err := st.Window(src.seq, src.start, opts.WindowLen, w, nil); err != nil {
			t.Fatal(err)
		}
		q := vec.Apply(w, 1.3, -2)
		for _, eps := range []float64{0, 0.1 * scale} {
			a, err := search(ix, q, eps, nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := search(ix2, q, eps, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(a) != len(b) {
				t.Fatalf("eps=%v: %d vs %d results", eps, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("eps=%v rank %d differs", eps, i)
				}
			}
		}
	}

	// The reloaded index remains dynamic.
	if _, err := ix2.AppendAndIndex("NEW", make([]float64, 64)); err != nil {
		t.Fatal(err)
	}
}

func TestLoadIndexRejectsCorruptInput(t *testing.T) {
	opts := testOptions()
	ix := buildTestIndex(t, opts, 4, 60)
	st := ix.Store()

	var buf bytes.Buffer
	if err := ix.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Bad magic.
	bad := append([]byte("XXXXXX"), good[6:]...)
	if _, err := LoadIndex(bytes.NewReader(bad), st); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncation at several points.
	for _, cut := range []int{3, 20, len(good) / 2, len(good) - 5} {
		if _, err := LoadIndex(bytes.NewReader(good[:cut]), st); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Mismatched store: fewer sequences than the index covers.
	tiny := store.New()
	tiny.AppendSequence("only", make([]float64, 80))
	if _, err := LoadIndex(bytes.NewReader(good), tiny); err == nil {
		t.Error("mismatched store accepted")
	}
	// Garbage body.
	if _, err := LoadIndex(strings.NewReader("SSIDX\x01garbagegarbagegarbage"), st); err == nil {
		t.Error("garbage body accepted")
	}
}

func TestStoreBinaryRoundTripBitExact(t *testing.T) {
	ix := buildTestIndex(t, testOptions(), 5, 90)
	st := ix.Store()
	var buf bytes.Buffer
	if err := st.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	st2, err := store.ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if st2.NumSequences() != st.NumSequences() || st2.TotalValues() != st.TotalValues() {
		t.Fatalf("shape mismatch")
	}
	a := make(vec.Vector, 90)
	b := make(vec.Vector, 90)
	for seq := 0; seq < st.NumSequences(); seq++ {
		if st2.SequenceName(seq) != st.SequenceName(seq) {
			t.Fatalf("name mismatch at %d", seq)
		}
		if err := st.Window(seq, 0, 90, a, nil); err != nil {
			t.Fatal(err)
		}
		if err := st2.Window(seq, 0, 90, b, nil); err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("bit-exactness lost at seq %d idx %d", seq, i)
			}
		}
	}
}
