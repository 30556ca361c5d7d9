package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"scaleshift/internal/store"
	"scaleshift/internal/vec"
)

// loadBytes is LoadIndexFile's open over data held in memory: the same
// checks, without the mapping.
func loadBytes(data []byte, st *store.Store) (*Index, error) {
	ix, _, err := openArtifact(data, st, nil, false)
	return ix, err
}

// TestLoadIndexRejectsCorruptInput: LoadIndexFile refuses a file with a
// bad magic, a truncated one, one over a store that lacks its windows
// and garbage.
func TestLoadIndexRejectsCorruptInput(t *testing.T) {
	opts := testOptions()
	ix := buildTestIndex(t, opts, 4, 60)
	st := ix.Store()

	var buf bytes.Buffer
	if err := ix.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	path := filepath.Join(t.TempDir(), "index")
	load := func(data []byte, st *store.Store) error {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ix, err := LoadIndexFile(path, st)
		if err == nil {
			ix.Close()
		}
		return err
	}

	// Bad magic.
	bad := append([]byte("XXXXXX"), good[6:]...)
	if err := load(bad, st); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncation at several points.
	for _, cut := range []int{3, 20, len(good) / 2, len(good) - 5} {
		if err := load(good[:cut], st); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Mismatched store: fewer sequences than the index covers.
	tiny := store.New()
	tiny.AppendSequence("only", make([]float64, 80))
	if err := load(good, tiny); err == nil {
		t.Error("mismatched store accepted")
	}
	// Garbage body.
	if err := load([]byte("SSIDX\x01garbagegarbagegarbage"), st); err == nil {
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
