package core

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"
)

// Artifact bytes are a compatibility surface: a server must reopen what
// an older build wrote, and the benchmark's pages_per_query and
// space_amp read the tree those bytes describe.  The digests below were
// recorded from the pointer-tree loader (BulkLoad → Freeze →
// AppendArena, staged section by section) before the arena-native
// loader replaced it, over the 200 × 650 fixture of exec_bench_test.go;
// any change to the STR cascade, the arena layout or the section
// framing moves them.
const (
	digestSSIDX         = "cadbaf13ff41ae1023d574304217e84e57916301c33e1b1e6c60909c73be836d"
	digestSSSEGThree    = "b9add808d910f9f5581f71838d01e32e7403bc9c903f874ca9a6edbe6b770a55"
	digestSSSEGMergedTo = "9d653c9b0e66644d146be487df46cedd8b367190aa61d8195d3e64098c4cf2dc"
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
