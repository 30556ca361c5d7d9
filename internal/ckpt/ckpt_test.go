package ckpt

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"scaleshift/internal/core"
	"scaleshift/internal/store"
)

// buildSeg makes a small compacted segmented index: three sequences of
// deterministic values, grown past the initial build so the frozen side
// holds more than one generation of history.
func buildSeg(t testing.TB) (*store.Store, *core.SegmentedIndex) {
	t.Helper()
	st := store.New()
	for s := 0; s < 3; s++ {
		vals := make([]float64, 48)
		for i := range vals {
			vals[i] = 50 + 10*math.Sin(float64(i+7*s)/5) + float64(s)
		}
		st.AppendSequence([]string{"a", "b", "c"}[s], vals)
	}
	opts := core.DefaultOptions()
	opts.WindowLen = 16
	opts.Coefficients = 2
	seg, err := core.NewSegmentedIndex(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seg.Close() })
	for s := 0; s < 3; s++ {
		grow := make([]float64, 20)
		for i := range grow {
			grow[i] = 55 + 5*math.Cos(float64(i+3*s)/4)
		}
		if err := seg.AppendValues(s, grow); err != nil {
			t.Fatal(err)
		}
	}
	if err := seg.Compact(); err != nil {
		t.Fatal(err)
	}
	return st, seg
}

// checkpointOf serializes seg into one artifact file at path.
func checkpointOf(t *testing.T, path string, meta Meta, seg *core.SegmentedIndex) {
	t.Helper()
	write, release, err := seg.SegmentWriter()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if err := Install(path, meta, seg.Store().Snapshot().WriteBinary, write); err != nil {
		t.Fatal(err)
	}
}

// searchAnswer runs one deterministic query against an index.
func searchAnswer(t *testing.T, seg *core.SegmentedIndex) []core.Match {
	t.Helper()
	n := seg.Options().WindowLen
	q := make([]float64, n)
	if err := seg.QueryWindow(0, seg.Store().SequenceLen(0)-n, n, q); err != nil {
		t.Fatal(err)
	}
	res, err := seg.Exec(context.Background(), core.Query{Vec: q, Eps: 0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Matches
}

func TestWriteReadRoundTrip(t *testing.T) {
	_, seg := buildSeg(t)
	meta := Meta{Generation: 7, WALOffset: 12345, CreatedAt: time.Unix(0, 1754700000000000000)}

	var buf bytes.Buffer
	write, release, err := seg.SegmentWriter()
	if err != nil {
		t.Fatal(err)
	}
	err = Write(&buf, meta, seg.Store().Snapshot().WriteBinary, write)
	release()
	if err != nil {
		t.Fatal(err)
	}

	res, rebuilt, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil || len(rebuilt) > 0 {
		t.Fatalf("read: %v (rebuilt %v)", err, rebuilt)
	}
	got, st2, seg2 := res.Meta, res.Store, res.Seg
	defer seg2.Close()
	if got != meta {
		t.Fatalf("meta round trip: %+v, want %+v", got, meta)
	}
	if st2.TotalValues() != seg.Store().TotalValues() {
		t.Fatalf("recovered store has %d values, want %d", st2.TotalValues(), seg.Store().TotalValues())
	}
	if seg2.WindowCount() != seg.WindowCount() {
		t.Fatalf("recovered index covers %d windows, want %d", seg2.WindowCount(), seg.WindowCount())
	}
	want := searchAnswer(t, seg)
	have := searchAnswer(t, seg2)
	if len(want) != len(have) {
		t.Fatalf("recovered search returned %d matches, want %d", len(have), len(want))
	}
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("match %d diverged after recovery: %+v vs %+v", i, have[i], want[i])
		}
	}
}

func TestInstallRotationAndRecover(t *testing.T) {
	_, seg := buildSeg(t)
	base := filepath.Join(t.TempDir(), "ckpt")
	p := PathsFor(base)

	checkpointOf(t, base, Meta{Generation: 1, WALOffset: 100, CreatedAt: time.Unix(1, 0)}, seg)
	if _, err := os.Stat(p.Prev); !os.IsNotExist(err) {
		t.Fatalf("first install created a .prev artifact: %v", err)
	}
	res, warns, err := Recover(base)
	if err != nil || len(warns) != 0 {
		t.Fatalf("recover after first install: %v (warnings %v)", err, warns)
	}
	if res.Meta.Generation != 1 || res.Source != p.Cur {
		t.Fatalf("recovered %+v from %s", res.Meta, res.Source)
	}
	res.Seg.Close()

	checkpointOf(t, base, Meta{Generation: 2, WALOffset: 200, CreatedAt: time.Unix(2, 0)}, seg)
	checkpointOf(t, base, Meta{Generation: 3, WALOffset: 300, CreatedAt: time.Unix(3, 0)}, seg)
	res, _, err = Recover(base)
	if err != nil {
		t.Fatal(err)
	}
	if res.Meta.Generation != 3 {
		t.Fatalf("current checkpoint is generation %d, want 3", res.Meta.Generation)
	}
	res.Seg.Close()

	// The retained .prev must be the immediately preceding generation.
	f, err := os.Open(p.Prev)
	if err != nil {
		t.Fatal(err)
	}
	prev, _, err := Read(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	prev.Seg.Close()
	if prevMeta := prev.Meta; prevMeta.Generation != 2 || prevMeta.WALOffset != 200 {
		t.Fatalf(".prev slot holds %+v, want generation 2", prevMeta)
	}
}

func TestRecoverFallsBackToPrev(t *testing.T) {
	_, seg := buildSeg(t)
	base := filepath.Join(t.TempDir(), "ckpt")
	p := PathsFor(base)
	checkpointOf(t, base, Meta{Generation: 1, WALOffset: 100, CreatedAt: time.Unix(1, 0)}, seg)
	checkpointOf(t, base, Meta{Generation: 2, WALOffset: 200, CreatedAt: time.Unix(2, 0)}, seg)

	// Flip a byte in the middle of the current artifact.
	raw, err := os.ReadFile(p.Cur)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(p.Cur, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	res, warns, err := Recover(base)
	if err != nil {
		t.Fatalf("recover with intact .prev failed: %v", err)
	}
	defer res.Seg.Close()
	if res.Meta.Generation != 1 || res.Source != p.Prev {
		t.Fatalf("recovered %+v from %s, want generation 1 from .prev", res.Meta, res.Source)
	}
	if len(warns) != 1 || warns[0].Path != p.Cur {
		t.Fatalf("fallback was not loud: warnings %v", warns)
	}

	// Both damaged: the typed chain-exhausted error, with a warning per
	// rejected artifact — never a panic, never a silent zero value.
	raw, err = os.ReadFile(p.Prev)
	if err != nil {
		t.Fatal(err)
	}
	raw[0] ^= 0x01
	if err := os.WriteFile(p.Prev, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, warns, err = Recover(base)
	if !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("want ErrNoCheckpoint, got %v", err)
	}
	if len(warns) != 2 {
		t.Fatalf("want 2 warnings, got %v", warns)
	}
}

func TestRecoverFreshDirectory(t *testing.T) {
	_, warns, err := Recover(filepath.Join(t.TempDir(), "ckpt"))
	if !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("want ErrNoCheckpoint, got %v", err)
	}
	if len(warns) != 0 {
		t.Fatalf("fresh directory produced warnings: %v", warns)
	}
}

// TestInstallCrashBetweenRenames simulates a kill after the current
// checkpoint was rotated to .prev but before the new one was published:
// recovery must land on the rotated previous checkpoint.
func TestInstallCrashBetweenRenames(t *testing.T) {
	_, seg := buildSeg(t)
	base := filepath.Join(t.TempDir(), "ckpt")
	p := PathsFor(base)
	checkpointOf(t, base, Meta{Generation: 1, WALOffset: 100, CreatedAt: time.Unix(1, 0)}, seg)

	calls := 0
	renameFile = func(oldpath, newpath string) error {
		calls++
		if calls == 2 {
			return os.ErrPermission // crash before publishing the new cur
		}
		return os.Rename(oldpath, newpath)
	}
	defer func() { renameFile = os.Rename }()

	write, release, err := seg.SegmentWriter()
	if err != nil {
		t.Fatal(err)
	}
	err = Install(base, Meta{Generation: 2, WALOffset: 200, CreatedAt: time.Unix(2, 0)}, seg.Store().Snapshot().WriteBinary, write)
	release()
	if err == nil {
		t.Fatal("install with failing rename reported success")
	}

	if _, err := os.Stat(p.Cur); !os.IsNotExist(err) {
		t.Fatalf("cur slot still populated after simulated crash: %v", err)
	}
	res, warns, rerr := Recover(base)
	if rerr != nil {
		t.Fatalf("recover after mid-rotation crash: %v (warnings %v)", rerr, warns)
	}
	defer res.Seg.Close()
	if res.Meta.Generation != 1 || res.Source != p.Prev {
		t.Fatalf("recovered %+v from %s, want generation 1 from .prev", res.Meta, res.Source)
	}
}
