package ckpt

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"scaleshift/internal/binio"
	"scaleshift/internal/core"
)

// save takes a v2 checkpoint of seg at base.
func save(t *testing.T, base string, meta Meta, seg *core.Index) Stats {
	t.Helper()
	segs, err := seg.PinSegments()
	if err != nil {
		t.Fatal(err)
	}
	defer segs.Release()
	stats, err := Save(base, meta, seg.Store().Snapshot().WriteBinary, segs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CollectErr != nil {
		t.Fatal(stats.CollectErr)
	}
	return stats
}

// grow appends to every sequence of seg and compacts, so the next
// checkpoint has a new segment to write.
func grow(t *testing.T, seg *core.Index, k int) {
	t.Helper()
	for s := 0; s < seg.Store().NumSequences(); s++ {
		vals := make([]float64, 6)
		for i := range vals {
			vals[i] = 50 + 7*math.Sin(float64(k*13+s*5+i)/3)
		}
		if err := seg.AppendValues(s, vals); err != nil {
			t.Fatal(err)
		}
	}
	if err := seg.Compact(); err != nil {
		t.Fatal(err)
	}
}

// segFiles lists the segment directory's file names.
func segFiles(t *testing.T, base string) []string {
	t.Helper()
	entries, err := os.ReadDir(SegmentDir(base))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

// manifestNames lists the segment files the manifests at base name.
func manifestNames(t *testing.T, base string) []string {
	t.Helper()
	set := map[string]bool{}
	p := PathsFor(base)
	for _, path := range []string{p.Cur, p.Prev} {
		data, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		m, err := parseManifest(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, f := range m.list.Files() {
			set[f.Name] = true
		}
	}
	var names []string
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func requireSameAnswer(t *testing.T, want, got *core.Index, what string) {
	t.Helper()
	if got.WindowCount() != want.WindowCount() {
		t.Fatalf("%s: %d windows, want %d", what, got.WindowCount(), want.WindowCount())
	}
	if a, b := searchAnswer(t, want), searchAnswer(t, got); len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: %d matches, want %d", what, len(b), len(a))
	}
}

// TestSaveWritesSegmentsOnce: the first checkpoint writes every segment
// file, the next writes only the segment compaction added since, and
// one over a recovered index writes none — its segments came from
// files.  Each recovers to the same answers.
func TestSaveWritesSegmentsOnce(t *testing.T) {
	_, seg := buildSeg(t)
	seg.MergeRatio = 0 // keep the segments apart, so one is added per grow
	base := filepath.Join(t.TempDir(), "ckpt")

	first := save(t, base, Meta{Generation: 1, WALOffset: 10, CreatedAt: time.Unix(1, 0)}, seg)
	if first.SegmentsWritten != seg.Backlog().Frozen || first.SegmentFiles != first.SegmentsWritten {
		t.Fatalf("first checkpoint: %+v over %d segments", first, seg.Backlog().Frozen)
	}
	again := save(t, base, Meta{Generation: 2, WALOffset: 20, CreatedAt: time.Unix(2, 0)}, seg)
	if again.SegmentsWritten != 0 {
		t.Fatalf("an unchanged index wrote %d segment files again", again.SegmentsWritten)
	}
	manifest, err := os.Stat(base)
	if err != nil {
		t.Fatal(err)
	}
	if again.BytesWritten != manifest.Size() {
		t.Fatalf("second checkpoint wrote %d bytes, its manifest is %d", again.BytesWritten, manifest.Size())
	}
	grow(t, seg, 1)
	third := save(t, base, Meta{Generation: 3, WALOffset: 30, CreatedAt: time.Unix(3, 0)}, seg)
	if third.SegmentsWritten != 1 {
		t.Fatalf("one compaction later the checkpoint wrote %d segment files, want 1", third.SegmentsWritten)
	}

	res, warns, err := Recover(base)
	if err != nil || len(warns) != 0 {
		t.Fatalf("recover: %v (warnings %v)", err, warns)
	}
	defer res.Seg.Close()
	if res.Meta.Generation != 3 || res.Source != base {
		t.Fatalf("recovered %+v from %s", res.Meta, res.Source)
	}
	requireSameAnswer(t, seg, res.Seg, "recovered")
	fourth := save(t, base, Meta{Generation: 4, WALOffset: 40, CreatedAt: time.Unix(4, 0)}, res.Seg)
	if fourth.SegmentsWritten != 0 {
		t.Fatalf("a checkpoint of the recovered index rewrote %d segment files", fourth.SegmentsWritten)
	}
}

// TestRecoverRebuildsSegmentFiles: a segment file that is missing, or
// damaged anywhere, is rebuilt from the manifest's store — loudly, and
// with the answers the intact checkpoint gives — and the next
// checkpoint writes the rebuilt segment a file of its own.
func TestRecoverRebuildsSegmentFiles(t *testing.T) {
	_, seg := buildSeg(t)
	seg.MergeRatio = 0
	grow(t, seg, 1)
	base := filepath.Join(t.TempDir(), "ckpt")
	save(t, base, Meta{Generation: 1, CreatedAt: time.Unix(1, 0)}, seg)
	files := segFiles(t, base)
	if len(files) < 2 {
		t.Fatalf("fixture has segment files %v, want at least two", files)
	}
	victim := filepath.Join(SegmentDir(base), files[0])
	good, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	for _, damage := range []struct {
		name  string
		apply func() error
	}{
		{"flipped", func() error {
			bad := append([]byte(nil), good...)
			bad[len(bad)/2] ^= 0x10
			return os.WriteFile(victim, bad, 0o644)
		}},
		{"truncated", func() error { return os.WriteFile(victim, good[:len(good)-1], 0o644) }},
		{"another segment's file", func() error {
			other, err := os.ReadFile(filepath.Join(SegmentDir(base), files[1]))
			if err != nil {
				return err
			}
			return os.WriteFile(victim, other, 0o644)
		}},
		// Last: it checkpoints again, and the new manifest no longer
		// names the victim.
		{"deleted", func() error { return os.Remove(victim) }},
	} {
		if err := damage.apply(); err != nil {
			t.Fatal(err)
		}
		res, warns, err := Recover(base)
		if err != nil {
			t.Fatalf("%s: %v", damage.name, err)
		}
		if len(warns) != 1 || !warns[0].Rebuilt || warns[0].Path != victim {
			res.Seg.Close()
			t.Fatalf("%s: warnings %v, want one rebuild of %s", damage.name, warns, victim)
		}
		requireSameAnswer(t, seg, res.Seg, damage.name)
		if damage.name == "deleted" {
			// The rebuilt segment has no file: the next checkpoint writes it.
			stats := save(t, base, Meta{Generation: 2, CreatedAt: time.Unix(2, 0)}, res.Seg)
			if stats.SegmentsWritten != 1 {
				t.Fatalf("checkpoint after a rebuild wrote %d segment files, want 1", stats.SegmentsWritten)
			}
			again, warns, err := Recover(base)
			if err != nil || len(warns) != 0 {
				t.Fatalf("recover after re-checkpointing the rebuilt segment: %v (warnings %v)", err, warns)
			}
			requireSameAnswer(t, seg, again.Seg, "re-checkpointed")
			again.Seg.Close()
		}
		res.Seg.Close()
		if err := os.WriteFile(victim, good, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSegmentFilesCollected is the collection's leak test: across ten
// checkpoints with compactions — folds and merges — between them, the
// segment directory holds exactly the files the current and previous
// manifests name, and an orphan a crashed checkpoint left behind (a
// segment file no manifest names, a half-written temp file) is swept
// by the next one.
func TestSegmentFilesCollected(t *testing.T) {
	_, seg := buildSeg(t)
	seg.MaxFrozen = 3 // merges happen, not only folds
	base := filepath.Join(t.TempDir(), "ckpt")
	for gen := int64(1); gen <= 10; gen++ {
		grow(t, seg, int(gen))
		if gen == 6 {
			for _, orphan := range []string{"5-9-deadbeef.sseg", "seg-123.tmp"} {
				if err := os.WriteFile(filepath.Join(SegmentDir(base), orphan), []byte("junk"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		stats := save(t, base, Meta{Generation: gen, CreatedAt: time.Unix(gen, 0)}, seg)
		on, named := segFiles(t, base), manifestNames(t, base)
		if !reflect.DeepEqual(on, named) {
			t.Fatalf("after checkpoint %d the segment directory holds %v, the manifests name %v", gen, on, named)
		}
		if stats.SegmentFiles != len(named) {
			t.Fatalf("checkpoint %d reports %d segment files, %d are named", gen, stats.SegmentFiles, len(named))
		}
	}
	res, warns, err := Recover(base)
	if err != nil || len(warns) != 0 {
		t.Fatalf("recover: %v (warnings %v)", err, warns)
	}
	defer res.Seg.Close()
	requireSameAnswer(t, seg, res.Seg, "after ten checkpoints")
}

// TestV1CheckpointRecoversThenSavesV2: a checkpoint in the v1 format
// recovers as it did, and the next checkpoint writes a v2 manifest.
func TestV1CheckpointRecoversThenSavesV2(t *testing.T) {
	_, seg := buildSeg(t)
	base := filepath.Join(t.TempDir(), "ckpt")
	checkpointOf(t, base, Meta{Generation: 1, CreatedAt: time.Unix(1, 0)}, seg)
	res, warns, err := Recover(base)
	if err != nil || len(warns) != 0 {
		t.Fatalf("recover v1: %v (warnings %v)", err, warns)
	}
	defer res.Seg.Close()
	requireSameAnswer(t, seg, res.Seg, "v1")
	stats := save(t, base, Meta{Generation: 2, CreatedAt: time.Unix(2, 0)}, res.Seg)
	if stats.SegmentsWritten != res.Seg.Backlog().Frozen {
		t.Fatalf("first v2 checkpoint over a v1 recovery wrote %d of %d segments", stats.SegmentsWritten, res.Seg.Backlog().Frozen)
	}
	data, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := checkMagic(data); err != nil || v != 2 {
		t.Fatalf("checkpoint after a v1 recovery is version %d (%v), want 2", v, err)
	}
	// The v1 artifact is .prev now and still a fallback.
	if err := os.WriteFile(base, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	prev, warns, err := Recover(base)
	if err != nil || prev.Source != PathsFor(base).Prev || len(warns) != 1 {
		t.Fatalf("fallback to the v1 .prev: %v from %v (warnings %v)", err, prev, warns)
	}
	requireSameAnswer(t, seg, prev.Seg, "v1 fallback")
	prev.Seg.Close()
}

// TestReadRejectsManifest: the v1 reader refuses a v2 manifest with a
// typed error instead of misparsing it.
func TestReadRejectsManifest(t *testing.T) {
	_, seg := buildSeg(t)
	base := filepath.Join(t.TempDir(), "ckpt")
	save(t, base, Meta{Generation: 1, CreatedAt: time.Unix(1, 0)}, seg)
	data, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Read(bytes.NewReader(data)); !errors.Is(err, binio.ErrVersion) {
		t.Fatalf("Read of a v2 manifest: %v, want ErrVersion", err)
	}
}
