package core

import (
	"bytes"
	"fmt"
	"testing"

	"scaleshift/internal/stock"
	"scaleshift/internal/store"
)

// populatedStore returns a synthetic store whose sequences are long
// enough to span several feature checkpoints, so parallel extraction
// exercises multi-segment sharding.
func populatedStore(t testing.TB, companies, days, seed int) *store.Store {
	t.Helper()
	st := store.New()
	cfg := stock.DefaultConfig()
	cfg.Companies = companies
	cfg.Days = days
	cfg.Seed = int64(seed)
	if _, err := stock.Populate(st, cfg); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestBuildBulkParallelDeterministic asserts the headline determinism
// guarantee: a build writes a byte-identical index on every worker
// count — the arena's stored feature points and IDs among its bytes.
func TestBuildBulkParallelDeterministic(t *testing.T) {
	opts := testOptions()
	for _, tc := range []struct{ companies, days, seed int }{
		{3, 120, 1},  // single checkpoint segment per sequence
		{6, 600, 2},  // several segments per sequence
		{13, 340, 3}, // worker count above segment-per-sequence count
	} {
		t.Run(fmt.Sprintf("c%dd%d", tc.companies, tc.days), func(t *testing.T) {
			st := populatedStore(t, tc.companies, tc.days, tc.seed)
			ref, err := NewIndex(st, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.BuildOn(1); err != nil {
				t.Fatal(err)
			}
			var refBin bytes.Buffer
			if err := ref.WriteBinary(&refBin); err != nil {
				t.Fatal(err)
			}

			for _, workers := range []int{0, 1, 2, 4, 13} {
				par, err := NewIndex(st, opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := par.BuildOn(workers); err != nil {
					t.Fatal(err)
				}
				var parBin bytes.Buffer
				if err := par.WriteBinary(&parBin); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(refBin.Bytes(), parBin.Bytes()) {
					t.Fatalf("workers=%d: serialized index differs from one worker's (%d vs %d bytes)",
						workers, parBin.Len(), refBin.Len())
				}
			}
		})
	}
}

// TestBuildBulkParallelValidation covers the edges: a build over a
// built index builds it again, an empty store is a no-op, and the built
// index remains dynamic.
func TestBuildBulkParallelValidation(t *testing.T) {
	opts := testOptions()
	st := populatedStore(t, 3, 120, 9)

	ix, err := NewIndex(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if err := ix.BuildOn(4); err != nil {
			t.Fatal(err)
		}
		if want := 3 * (120 - opts.WindowLen + 1); ix.WindowCount() != want {
			t.Fatalf("built %d windows, want %d", ix.WindowCount(), want)
		}
	}
	// Still dynamic after a parallel bulk load.
	if _, err := ix.AppendAndIndex("X", make([]float64, 64)); err != nil {
		t.Fatal(err)
	}

	empty, err := NewIndex(store.New(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := empty.BuildOn(4); err != nil {
		t.Fatalf("empty store: %v", err)
	}
	if empty.WindowCount() != 0 {
		t.Fatalf("empty store indexed %d windows", empty.WindowCount())
	}
}
