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
// arena says which it holds in its directory-kind word (0 and 2; the
// arena version stayed 2 and the containers did not move).  The digests
// before these dated from arena version 2 itself (float32 planes, points
// stored once).  digestOneSegment was re-recorded once more when
// WriteBinary went from SSIDX v3 to a one-segment SSSEG: its arena bytes
// were the SSIDX writer's, only the header and the pad before the arena
// moved.  All three were re-recorded when the arena went to version 3:
// the 15-word header lost its three reserved words (12 words, the
// directory kind now word 6) and the feature sample after the root
// bounds went.  The SSSEG header sections did not move; the arena
// sections, the pads before them and the trailer did.  Before that they
// were 01cbcc64…, 4d2b6297… and c1547dda….
const (
	digestOneSegment    = "7b5dc0e7de2638d34678dfe02cb12018aad8c07aba553103a23676de05d2193f"
	digestSSSEGThree    = "928584373eb3bc01bfac063e1eaaf4a1737523cd42e4ded38ac59c1486803183"
	digestSSSEGMergedTo = "0e772d9041b973326dba6bf6b5f71a847045db2b84b6a25535db2265b2c9c20c"
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
	if got := digestOf(t, f.g.WriteBinary); got != digestSSSEGThree {
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
	if got := digestOf(t, f.g.WriteBinary); got != digestSSSEGMergedTo {
		t.Errorf("SSSEG v1 digest (merged) %s, want %s", got, digestSSSEGMergedTo)
	}
}
