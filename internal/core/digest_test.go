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
// come with a version it can be told by.  They were recorded when the
// arena went to version 2 (float32 planes, points stored once); the
// version-1 digests before them dated from the pointer-tree loader
// (BulkLoad → Freeze → AppendArena, staged section by section), and a
// version-1 artifact is still opened: TestArenaV1Fixture.
const (
	digestSSIDX         = "e794343badca29bb5f8a488ceec14d073d8157b1f90f2d87d0ffb609858af750"
	digestSSSEGThree    = "e1e835631813408c4db07a0cf28d1247bb3aab4b145c7701f4927d2f9b1becee"
	digestSSSEGMergedTo = "2b118a7a3a57135574eaf9db8f6158ed2e3377ddd5d6955645c171a785d9bd1c"
)

func digestOf(t *testing.T, write func(io.Writer) error) string {
	t.Helper()
	h := sha256.New()
	if err := write(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestArtifactDigests pins the SSIDX v3 bytes of the bulk-built fixture
// index and the SSSEG v1 bytes of the segmented fixture twice: as three
// frozen segments (the initial build and two delta folds), and after a
// further round of appends is compacted with every segment merged into
// one (the re-extracting merge).
func TestArtifactDigests(t *testing.T) {
	ix, _, _ := execRangeFixture(t)
	if got := digestOf(t, ix.WriteBinary); got != digestSSIDX {
		t.Errorf("SSIDX v3 digest %s, want %s", got, digestSSIDX)
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
