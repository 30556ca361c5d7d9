package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scaleshift/internal/cluster"
	"scaleshift/internal/core"
	"scaleshift/internal/stock"
	"scaleshift/internal/store"
)

func TestRunWritesCSV(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "prices.csv")
	err := run([]string{"-companies", "5", "-days", "40", "-o", out}, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := store.ReadCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumSequences() != 5 || st.TotalValues() != 200 {
		t.Errorf("store: %d seqs, %d values", st.NumSequences(), st.TotalValues())
	}
}

func TestRunStdout(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-companies", "2", "-days", "10"}, &sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "HK0001,") {
		t.Errorf("stdout CSV malformed: %q", sb.String())
	}
}

func TestRunWritesBinaryArtifact(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "prices.bin")
	if err := run([]string{"-companies", "5", "-days", "40", "-binary", "-o", out}, nil); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := store.ReadBinary(f)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumSequences() != 5 || st.TotalValues() != 200 {
		t.Errorf("store: %d seqs, %d values", st.NumSequences(), st.TotalValues())
	}
}

// TestRunWritesSegmentedArtifact checks the -segments path end to end:
// the artifact loads over its store and answers queries identically to
// an index built from scratch over the same data.
func TestRunWritesSegmentedArtifact(t *testing.T) {
	dir := t.TempDir()
	storeOut := filepath.Join(dir, "prices.bin")
	segOut := filepath.Join(dir, "prices.segs")
	err := run([]string{
		"-companies", "6", "-days", "300", "-binary", "-o", storeOut,
		"-segments", segOut, "-segment-count", "3", "-window", "32",
	}, nil)
	if err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(storeOut)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.ReadBinary(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	g, err := os.Open(segOut)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	seg, rebuilt, err := core.LoadSegments(g, st)
	if err != nil || len(rebuilt) > 0 {
		t.Fatalf("loading the segments ssgen wrote: %v (rebuilt %v)", err, rebuilt)
	}
	defer seg.Close()

	opts := core.DefaultOptions()
	opts.WindowLen = 32
	ref, err := core.NewIndex(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.BuildBulk(); err != nil {
		t.Fatal(err)
	}
	if seg.WindowCount() != ref.WindowCount() {
		t.Fatalf("segmented artifact indexes %d windows, from-scratch %d", seg.WindowCount(), ref.WindowCount())
	}
	b := seg.Backlog()
	if b.Frozen != 3 || b.DeltaWindows != 0 {
		t.Fatalf("artifact shape: %d frozen segments, %d delta windows", b.Frozen, b.DeltaWindows)
	}

	q := make([]float64, 32)
	for _, start := range []int{0, 97, 260} {
		if err := st.Window(2, start, 32, q, nil); err != nil {
			t.Fatal(err)
		}
		var s1, s2 core.SearchStats
		gotRes, err := seg.Exec(context.Background(), core.Query{Vec: q, Eps: 0.05}, &s1)
		if err != nil {
			t.Fatal(err)
		}
		wantRes, err := ref.Exec(context.Background(), core.Query{Vec: q, Eps: 0.05}, &s2)
		if err != nil {
			t.Fatal(err)
		}
		got, want := gotRes.Matches, wantRes.Matches
		if len(got) != len(want) {
			t.Fatalf("start %d: %d matches vs %d from scratch", start, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("start %d match %d: %+v vs %+v", start, i, got[i], want[i])
			}
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-companies", "0"}, nil); err == nil {
		t.Error("companies=0 accepted")
	}
	if err := run([]string{"-bogus"}, nil); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestRunDeterministicAcrossSeeds(t *testing.T) {
	var a, b, c strings.Builder
	if err := run([]string{"-companies", "2", "-days", "10", "-seed", "5"}, &a); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-companies", "2", "-days", "10", "-seed", "5"}, &b); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-companies", "2", "-days", "10", "-seed", "6"}, &c); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("same seed, different output")
	}
	if a.String() == c.String() {
		t.Error("different seed, same output")
	}
}

// TestShardArtifactsRoundTrip exercises the -shards output end to end:
// the manifest must validate, its fingerprints must match the shard
// stores on disk, and the union of the per-shard stores must reproduce
// the unsharded generation exactly, value for value.
func TestShardArtifactsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	gen := []string{"-companies", "11", "-days", "60", "-seed", "9"}
	if err := run(append(gen, "-shards", "3", "-o", dir), nil); err != nil {
		t.Fatal(err)
	}
	man, err := cluster.LoadManifest(filepath.Join(dir, cluster.ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if err := man.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(man.Shards) != 3 || man.Sequences != 11 {
		t.Fatalf("manifest: %d shards over %d sequences", len(man.Shards), man.Sequences)
	}

	// The same generation, unsharded, is the oracle.
	oracle := store.New()
	cfg := stock.DefaultConfig()
	cfg.Companies, cfg.Days, cfg.Seed = 11, 60, 9
	if _, err := stock.Populate(oracle, cfg); err != nil {
		t.Fatal(err)
	}

	covered := 0
	for _, sh := range man.Shards {
		f, err := os.Open(filepath.Join(dir, sh.Dir, "store.bin"))
		if err != nil {
			t.Fatal(err)
		}
		part, err := store.ReadBinary(f)
		f.Close()
		if err != nil {
			t.Fatalf("shard %d: %v", sh.ID, err)
		}
		if part.NumSequences() != len(sh.Seqs) {
			t.Fatalf("shard %d: %d sequences on disk, %d in manifest", sh.ID, part.NumSequences(), len(sh.Seqs))
		}
		for local, global := range sh.Seqs {
			if got, want := part.SequenceName(local), oracle.SequenceName(global); got != want {
				t.Fatalf("shard %d local %d: name %q, want %q", sh.ID, local, got, want)
			}
			n := oracle.SequenceLen(global)
			if part.SequenceLen(local) != n {
				t.Fatalf("shard %d local %d: %d values, want %d", sh.ID, local, part.SequenceLen(local), n)
			}
			got := make([]float64, n)
			want := make([]float64, n)
			if err := part.Window(local, 0, n, got, nil); err != nil {
				t.Fatal(err)
			}
			if err := oracle.Window(global, 0, n, want, nil); err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("shard %d seq %d value %d: %v != %v", sh.ID, global, i, got[i], want[i])
				}
			}
			covered++
		}
		if owner, _, err := man.Owner(sh.Seqs[0]); err != nil || owner != sh.ID {
			t.Fatalf("Owner(%d) = %d, %v, want %d", sh.Seqs[0], owner, err, sh.ID)
		}
	}
	if covered != 11 {
		t.Fatalf("shards cover %d sequences, want 11", covered)
	}

	// A corrupted manifest must be rejected at load time.
	raw, err := os.ReadFile(filepath.Join(dir, cluster.ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0x40
	bad := filepath.Join(dir, "bad.ssman")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.LoadManifest(bad); err == nil {
		t.Fatal("corrupted manifest loaded cleanly")
	}

	// -shards without an output directory is a usage error.
	if err := run(append(gen, "-shards", "3"), nil); err == nil {
		t.Fatal("-shards without -o accepted")
	}
}
