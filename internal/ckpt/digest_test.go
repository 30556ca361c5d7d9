package ckpt

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"scaleshift/internal/core"
	"scaleshift/internal/engine"
	"scaleshift/internal/stock"
	"scaleshift/internal/store"
)

// digestSSCKP is the SHA-256 of the SSCKP v1 artifact of the 200 × 650
// fixture (generation 1, WAL offset 0, created at the epoch): a
// checkpoint must be byte for byte reproducible, and one an older build
// wrote must stay readable (TestPreChangeCheckpoint).  Re-recorded once
// for PR 24, when the segment arenas inside it went from MBR to
// direction-box directories (see core's digest_test.go); the container
// did not change.
const digestSSCKP = "034fb67049432f1f2a2460445470ae30bc896d8f700edc883b7c375956c4e56d"

func TestCheckpointDigest(t *testing.T) {
	st := store.New()
	cfg := stock.DefaultConfig()
	cfg.Companies, cfg.Days = 200, 650
	if _, err := stock.Populate(st, cfg); err != nil {
		t.Fatal(err)
	}
	seg, err := core.NewSegmentedIndex(st, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	write, release, err := seg.SegmentWriter()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	h := sha256.New()
	meta := Meta{Generation: 1, WALOffset: 0, CreatedAt: time.Unix(0, 0)}
	if err := Write(h, meta, st.Snapshot().WriteBinary, write); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != digestSSCKP {
		t.Errorf("SSCKP v1 digest %s, want %s", got, digestSSCKP)
	}
}

// digestManifest and digestSegmentFile are the SHA-256 of the SSCKP v2
// checkpoint of the same fixture: the manifest, and the one segment
// file it names (1-0-<crc>.sseg, a one-segment SSSEG artifact).
const (
	digestManifest    = "8614bd40491fedbd7a677237becd82b610585faacd76785755aa8d13efd81565"
	digestSegmentFile = "01cbcc6432e00647da424662da50f13012927761f9ca08db31c5692576acf4da"
)

func TestManifestDigest(t *testing.T) {
	st := store.New()
	cfg := stock.DefaultConfig()
	cfg.Companies, cfg.Days = 200, 650
	if _, err := stock.Populate(st, cfg); err != nil {
		t.Fatal(err)
	}
	seg, err := core.NewSegmentedIndex(st, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	base := filepath.Join(t.TempDir(), "ckpt")
	save(t, base, Meta{Generation: 1, WALOffset: 0, CreatedAt: time.Unix(0, 0)}, seg)
	files := segFiles(t, base)
	if len(files) != 1 {
		t.Fatalf("segment files %v, want one", files)
	}
	for _, c := range []struct{ path, want string }{
		{base, digestManifest},
		{filepath.Join(SegmentDir(base), files[0]), digestSegmentFile},
	} {
		data, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("SSCKP v2 %s digest %s, want %s", filepath.Base(c.path), got, c.want)
		}
	}
}

// TestPreChangeCheckpoint recovers a checkpoint the parent of the
// direction-box commit wrote (testdata/mbr_arena.ssckp: 4 × 220 values,
// window 32, generation 7, WAL offset 4096; its one segment an MBR-
// directory arena): it is read as it is — the index answers what a
// segmented index built today over the recovered store answers, forced
// down the tree included — and checkpointing it again writes the same
// bytes, so nothing was converted on the way.
func TestPreChangeCheckpoint(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "mbr_arena.ssckp"))
	if err != nil {
		t.Fatal(err)
	}
	meta, st, seg, err := Read(bytes.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	if want := (Meta{Generation: 7, WALOffset: 4096, CreatedAt: time.Unix(0, 0)}); meta != want {
		t.Fatalf("meta %+v, want %+v", meta, want)
	}
	fresh, err := core.NewSegmentedIndex(st, seg.Options())
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	n := seg.Options().WindowLen
	q := make([]float64, n)
	for s := 0; s < st.NumSequences(); s++ {
		if err := seg.QueryWindow(s, 17*s, n, q); err != nil {
			t.Fatal(err)
		}
		for _, force := range []engine.PathKind{engine.PathAuto, engine.PathRTree} {
			query := core.Query{Vec: q, Eps: 2, Force: force}
			var stats core.SearchStats
			got, err := seg.Exec(context.Background(), query, &stats)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Exec(context.Background(), query, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Matches) == 0 || !reflect.DeepEqual(got.Matches, want.Matches) {
				t.Fatalf("sequence %d, force %v: %d matches from the recovered index, %d from a fresh one", s, force, len(got.Matches), len(want.Matches))
			}
			if force == engine.PathRTree && stats.IndexNodeAccesses == 0 {
				t.Fatalf("sequence %d: the forced probe read no index page", s)
			}
		}
	}
	write, release, err := seg.SegmentWriter()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	var again bytes.Buffer
	if err := Write(&again, meta, st.Snapshot().WriteBinary, write); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), old) {
		t.Fatalf("the recovered checkpoint writes itself back differently (%d vs %d bytes)", again.Len(), len(old))
	}
}
