package core

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"
)

// Artifact bytes are a compatibility surface: a server must reopen what
// an older build wrote, and the benchmark's pages_per_query and
// space_amp read the tree those bytes describe.  The digests below are
// of the 200 × 650 fixture of exec_bench_test.go; any change to the STR
// cascade, the arena layout or the section framing moves them, and must
// come with something it can be told by.  They were re-recorded once for
// PR 24, when bulk builds went from the Cartesian STR tiling under an MBR
// directory to the polar tiling under a direction-box directory: the
// arena says which it holds in header word 9 (0 and 2; the arena version
// stays 2 and the containers did not move).  The digests before these
// dated from arena version 2 itself (float32 planes, points stored
// once).  digestOneSegment was re-recorded once more when WriteBinary
// went from SSIDX v3 to a one-segment SSSEG: its arena bytes are the
// SSIDX writer's (TestSSIDXFixtureServed), only the header and the pad
// before the arena moved.
const (
	digestOneSegment    = "01cbcc6432e00647da424662da50f13012927761f9ca08db31c5692576acf4da"
	digestSSSEGThree    = "4d2b6297d8fe4dca44462efdc2973d4c579ae6e3ce80f08084f7d8203ee00420"
	digestSSSEGMergedTo = "c1547ddae3520193413e94bb33448db427382942de38899ea932fab8a9ad19eb"
)

func digestOf(t *testing.T, write func(io.Writer) error) string {
	t.Helper()
	h := sha256.New()
	if err := write(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestArtifactDigests pins the WriteBinary bytes (a one-segment SSSEG
// v1) of the bulk-built fixture index and the SSSEG v1 bytes of the
// segmented fixture twice: as three
// frozen segments (the initial build and two delta folds), and after a
// further round of appends is compacted with every segment merged into
// one (the re-extracting merge).
func TestArtifactDigests(t *testing.T) {
	ix, _, _ := execRangeFixture(t)
	if got := digestOf(t, ix.WriteBinary); got != digestOneSegment {
		t.Errorf("WriteBinary digest %s, want %s", got, digestOneSegment)
	}

	f := newSegmentedExecFixture(t, 0)
	if got := digestOf(t, f.g.WriteSegments); got != digestSSSEGThree {
		t.Errorf("SSSEG v1 digest (three segments) %s, want %s", got, digestSSSEGThree)
	}
	f.g.MaxFrozen = 1
	f.appendMore(t, len(f.feed))
	if err := f.g.Compact(); err != nil {
		t.Fatal(err)
	}
	if b := f.g.Backlog(); b.Frozen != 1 || b.DeltaWindows != 0 {
		t.Fatalf("merge left %d frozen segments and %d delta windows", b.Frozen, b.DeltaWindows)
	}
	if got := digestOf(t, f.g.WriteSegments); got != digestSSSEGMergedTo {
		t.Errorf("SSSEG v1 digest (merged) %s, want %s", got, digestSSSEGMergedTo)
	}
}
