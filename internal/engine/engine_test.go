package engine

import (
	"strings"
	"testing"
)

func TestPathKindStringParseRoundTrip(t *testing.T) {
	for _, k := range []PathKind{PathAuto, PathRTree, PathScan} {
		got, err := ParsePathKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParsePathKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	// "trail" named the retired sub-trail probe: unknown, like any other.
	for _, name := range []string{"btree", "trail"} {
		if _, err := ParsePathKind(name); err == nil {
			t.Errorf("ParsePathKind accepted the unknown path %q", name)
		}
	}
	if NumPathKinds != 3 || PathScan != 2 {
		t.Errorf("NumPathKinds = %d, PathScan = %d: wire and metrics indices moved", NumPathKinds, PathScan)
	}
	if s := PathKind(99).String(); !strings.Contains(s, "99") {
		t.Errorf("unknown kind String = %q", s)
	}
}

func TestExplainWriteText(t *testing.T) {
	ex := &Explain{Chosen: PathRTree, Pieces: 1, ActualCandidates: 5, Matches: 2, Segments: []SegmentPlan{
		{Seg: 0, Kind: "frozen", Windows: 40, Chosen: PathRTree, Candidates: 3},
		{Seg: -1, Kind: "delta", Windows: 9, Chosen: PathRTree, Candidates: 2},
	}}
	var b strings.Builder
	if err := ex.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"path=rtree (auto)", "seg 0  frozen windows=40 path=rtree candidates=3",
		"delta  delta  windows=9 path=rtree candidates=2", "candidates: 5; 2 matched", "stages:"} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText output missing %q:\n%s", want, out)
		}
	}
	ex.Chosen, ex.Forced = PathScan, true
	b.Reset()
	if err := ex.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "plan: path=scan (forced)\n") {
		t.Errorf("forced plan renders as:\n%s", b.String())
	}
}
