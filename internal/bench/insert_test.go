package bench

import (
	"fmt"
	"math"
	"regexp"
	"strings"
	"testing"

	"scaleshift/internal/geom"
	"scaleshift/internal/query"
	"scaleshift/internal/seqscan"
	"scaleshift/internal/stock"
	"scaleshift/internal/store"
	"scaleshift/internal/vec"
)

// insertFixture is the store internal/core's one-segment differential
// runs over (20 companies × 300 days, window 32), its insert-built tree,
// and that differential's query: window 40 of sequence 3 read as
// 1.4·v − 3, with ε as fractions of the mean window SE-norm.
func insertFixture(t *testing.T) (*store.Store, *InsertTree, vec.Vector, float64) {
	t.Helper()
	st := store.New()
	scfg := stock.DefaultConfig()
	scfg.Companies, scfg.Days = 20, 300
	if _, err := stock.Populate(st, scfg); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.WindowLen = 32
	tree, err := growInsertTree(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := make(vec.Vector, cfg.WindowLen)
	if err := st.Window(3, 40, len(w), w, nil); err != nil {
		t.Fatal(err)
	}
	scale, err := query.SENormScale(st, cfg.WindowLen, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	return st, tree, vec.Apply(w, 1.4, -3), scale
}

// TestInsertTreeExact holds experiment sets 2 and 3 to the sequential
// scan: under both penetration checks, stored windows searched at ε = 0
// (their self-matches, which only the widening keeps: the arena rounds
// every point off its SE-line) and a disguised window at a tight and a
// loose ε return the scan's rows, (seq, start, Float64bits of the
// distance) for each.
func TestInsertTreeExact(t *testing.T) {
	st, tree, q, scale := insertFixture(t)
	type probe struct {
		name string
		q    vec.Vector
		eps  float64
	}
	probes := []probe{{"tight", q, 0.01 * scale}, {"loose", q, 0.6 * scale}}
	for _, at := range [][2]int{{0, 0}, {3, 40}, {7, 123}, {12, 268}, {19, 200}} {
		w := make(vec.Vector, len(q))
		if err := st.Window(at[0], at[1], len(w), w, nil); err != nil {
			t.Fatal(err)
		}
		probes = append(probes, probe{fmt.Sprintf("self %d:%d", at[0], at[1]), w, 0})
	}
	selfMatches := 0
	for _, strategy := range []geom.Strategy{geom.EnteringExiting, geom.BoundingSpheres} {
		for _, p := range probes {
			want, err := seqscan.Search(st, p.q, p.eps, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			var l Ledger
			got, err := tree.Search(p.q, p.eps, strategy, &l)
			if err != nil {
				t.Fatal(err)
			}
			if p.eps == 0 {
				selfMatches += len(want)
			}
			if len(got) != len(want) || l.Results != len(got) || l.Candidates < len(got) {
				t.Fatalf("%s, %s: %d rows (ledger %+v), the scan %d", strategy, p.name, len(got), l, len(want))
			}
			for i, r := range got {
				if w := want[i]; r.Seq != w.Seq || r.Start != w.Start || math.Float64bits(r.Dist) != math.Float64bits(w.Dist) {
					t.Fatalf("%s, %s: row %d is %+v, the scan's %+v", strategy, p.name, i, r, w)
				}
			}
		}
	}
	if selfMatches == 0 {
		t.Fatal("no stored window matched itself at ε = 0: the probes test nothing")
	}
}

// insertGolden holds the ledgers internal/core's one-segment
// differential recorded for these queries over the insert-built tree
// while that tree was served by core.Index, copied unedited.  The
// pipeline reproduces the counts it shares with core's ledger: index
// nodes, data pages, candidates, false alarms, results, leaf checks and
// penetration tests.
var insertGolden = map[string]string{
	"insert/tight":       "nodes=173 pages=5 cand=99 fa=70 cr=0 res=29 exact=29 leaf=2278 pen={386 0 0} probes=[0 1 0] | chosen=rtree forced=false pieces=1 actual=99",
	"insert/loose":       "nodes=358 pages=12 cand=3525 fa=220 cr=0 res=3305 exact=3305 leaf=4960 pen={386 0 0} probes=[0 1 0] | chosen=rtree forced=false pieces=1 actual=3525",
	"insert/force-rtree": "nodes=243 pages=8 cand=1018 fa=129 cr=0 res=889 exact=889 leaf=3298 pen={386 0 0} probes=[0 1 0] | chosen=rtree forced=true pieces=1 actual=1018",
}

// TestInsertTreeGolden runs set 2 (Entering/Exiting Points) on
// insertGolden's queries: tight, loose, and the forced-tree cell's ε.
func TestInsertTreeGolden(t *testing.T) {
	_, tree, q, scale := insertFixture(t)
	shared := regexp.MustCompile(`(nodes|pages|cand|fa|res|leaf|pen)=(\{[^}]*\}|\S+)`)
	for name, frac := range map[string]float64{"insert/tight": 0.01, "insert/loose": 0.6, "insert/force-rtree": 0.05} {
		var l Ledger
		if _, err := tree.Search(q, frac*scale, geom.EnteringExiting, &l); err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("nodes=%d pages=%d cand=%d fa=%d res=%d leaf=%d pen=%v",
			l.Tree.NodeAccesses, l.DataPages, l.Candidates, l.Candidates-l.Results, l.Results, l.Tree.LeafEntriesChecked, l.Tree.Penetration)
		if want := strings.Join(shared.FindAllString(insertGolden[name], -1), " "); got != want {
			t.Errorf("%s:\n  got  %s\n  want %s", name, got, want)
		}
	}
}

// TestInsertTreeShape: the per-level statistics of the insert-built
// tree's MBRs and the bytes of its in-memory slab, which ssbench
// -experiment shape prints.
func TestInsertTreeShape(t *testing.T) {
	env, err := newWorkload(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	tree, err := env.InsertTree()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := tree.Slab.WriteStats(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "elongation") {
		t.Errorf("stats output malformed:\n%s", b.String())
	}
	levels := 0
	for _, ls := range tree.Slab.Stats() {
		levels += ls.Bytes
	}
	if bytes := tree.Slab.Bytes(); levels == 0 || levels >= bytes {
		t.Errorf("the levels hold %d bytes of a %d-byte slab", levels, bytes)
	}
}
