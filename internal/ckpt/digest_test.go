package ckpt

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"scaleshift/internal/binio"
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
	seg, err := core.NewIndex(st, core.DefaultOptions())
	if err == nil {
		err = seg.Build()
	}
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
	seg, err := core.NewIndex(st, core.DefaultOptions())
	if err == nil {
		err = seg.Build()
	}
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
// directory arena, which is no longer served): Recover returns its meta
// and store, with the segment rebuilt from that store and reported as a
// Rebuilt warning; the index answers Float64bits-identically to a
// segmented index built today over the recovered store — forced down the
// tree and k-NN included — and checkpointing it writes the bytes that
// fresh index's checkpoint has.
func TestPreChangeCheckpoint(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "mbr_arena.ssckp"))
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(t.TempDir(), "ckpt")
	if err := os.WriteFile(base, old, 0o644); err != nil {
		t.Fatal(err)
	}
	res, warns, err := Recover(base)
	if err != nil {
		t.Fatal(err)
	}
	meta, st, seg := res.Meta, res.Store, res.Seg
	defer seg.Close()
	if want := (Meta{Generation: 7, WALOffset: 4096, CreatedAt: time.Unix(0, 0)}); meta != want {
		t.Fatalf("meta %+v, want %+v", meta, want)
	}
	if len(warns) != 1 || !warns[0].Rebuilt || warns[0].Path != base+" segment 0" || !errors.Is(warns[0].Err, binio.ErrVersion) {
		t.Fatalf("warnings %v, want one rebuild of segment 0 for its version", warns)
	}
	fresh, err := core.NewIndex(st, seg.Options())
	if err == nil {
		err = fresh.Build()
	}
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
		for _, query := range []core.Query{{Vec: q, Eps: 2}, {Vec: q, Eps: 2, Force: engine.PathRTree}, {Vec: q, K: 4}} {
			var stats core.SearchStats
			got, err := seg.Exec(context.Background(), query, &stats)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Exec(context.Background(), query, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Matches) == 0 || !sameBits(got.Matches, want.Matches) {
				t.Fatalf("sequence %d, %+v: %d matches from the recovered index, %d from a fresh one", s, query, len(got.Matches), len(want.Matches))
			}
			if query.Force == engine.PathRTree && stats.IndexNodeAccesses == 0 {
				t.Fatalf("sequence %d: the forced probe read no index page", s)
			}
		}
	}
	checkpoint := func(g *core.Index) []byte {
		write, release, err := g.SegmentWriter()
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		var buf bytes.Buffer
		if err := Write(&buf, meta, st.Snapshot().WriteBinary, write); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(checkpoint(seg), checkpoint(fresh)) {
		t.Fatal("the recovered checkpoint writes itself differently from a fresh build's")
	}
}

// sameBits reports whether two answers agree row for row, distances and
// (a, b) bit for bit.
func sameBits(a, b []core.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Seq != y.Seq || x.Start != y.Start || math.Float64bits(x.Dist) != math.Float64bits(y.Dist) ||
			math.Float64bits(x.Scale) != math.Float64bits(y.Scale) || math.Float64bits(x.Shift) != math.Float64bits(y.Shift) {
			return false
		}
	}
	return true
}
