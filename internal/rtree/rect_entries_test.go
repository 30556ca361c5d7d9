package rtree

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"scaleshift/internal/geom"
	"scaleshift/internal/vec"
)

func TestInsertRectAndLineSearchRects(t *testing.T) {
	r := rand.New(rand.NewSource(70))
	tr := newTestTree(t, 3, SplitRStar)
	rects := make([]geom.Rect, 300)
	for i := range rects {
		rects[i] = randRect(r, 3)
		tr.InsertRect(rects[i], int64(i))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 300 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for q := 0; q < 30; q++ {
		l := vec.Line{P: randVec(r, 3), D: randVec(r, 3)}
		for _, eps := range []float64{0, 1, 4} {
			got := map[int64]bool{}
			for _, it := range frozen(t, tr).LineSearchRects(l, eps, geom.EnteringExiting, nil) {
				got[it.ID] = true
			}
			want := map[int64]bool{}
			for i, rc := range rects {
				if geom.PenetratesEnlarged(geom.EnteringExiting, rc, eps, l, nil) {
					want[int64(i)] = true
				}
			}
			if !sameIDSet(got, want) {
				t.Fatalf("eps=%v: got %d, want %d", eps, len(got), len(want))
			}
		}
	}
}

func TestLineSearchRectsIsSupersetOfPointSemantics(t *testing.T) {
	// For point entries the ε-cube test must admit at least everything
	// the exact L2 test admits (superset: no false dismissal).
	r := rand.New(rand.NewSource(71))
	tr := newTestTree(t, 3, SplitRStar)
	pts := make([]vec.Vector, 300)
	for i := range pts {
		pts[i] = randVec(r, 3)
		tr.Insert(pts[i], int64(i))
	}
	for q := 0; q < 20; q++ {
		l := vec.Line{P: randVec(r, 3), D: randVec(r, 3)}
		eps := 1.5
		exact := idSet(frozen(t, tr).LineSearch(l, eps, geom.EnteringExiting, nil))
		boxed := map[int64]bool{}
		for _, it := range frozen(t, tr).LineSearchRects(l, eps, geom.EnteringExiting, nil) {
			boxed[it.ID] = true
		}
		for id := range exact {
			if !boxed[id] {
				t.Fatalf("box test dismissed an exact match (id %d)", id)
			}
		}
	}
}

func TestDeleteRect(t *testing.T) {
	r := rand.New(rand.NewSource(72))
	tr := newTestTree(t, 2, SplitQuadratic)
	rects := make([]geom.Rect, 150)
	for i := range rects {
		rects[i] = randRect(r, 2)
		tr.InsertRect(rects[i], int64(i))
	}
	for i := 0; i < 100; i++ {
		if !tr.DeleteRect(rects[i], int64(i)) {
			t.Fatalf("DeleteRect %d failed", i)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 50 {
		t.Errorf("Len = %d", tr.Len())
	}
	// Double delete and absent delete fail.
	if tr.DeleteRect(rects[0], 0) {
		t.Error("double DeleteRect succeeded")
	}
	if tr.DeleteRect(randRect(r, 2), 9999) {
		t.Error("absent DeleteRect succeeded")
	}

	// The planner's entry-size statistic follows inserts and deletes
	// through every freeze, mapping and thaw.
	var want float64
	for _, rc := range rects[100:] {
		want += rc.OuterRadius() / 50
	}
	flat, err := tr.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	mapped, _, err := FlatFromArena(flat.AppendArena(nil))
	if err != nil {
		t.Fatal(err)
	}
	thawed, err := mapped.Thaw()
	if err != nil {
		t.Fatal(err)
	}
	for what, got := range map[string]float64{
		"frozen": flat.CostHints().EntryRadius, "mapped": mapped.CostHints().EntryRadius,
		"thawed": frozen(t, thawed).CostHints().EntryRadius,
	} {
		if math.Abs(got-want) > 1e-6*want {
			t.Errorf("%s: EntryRadius = %g, the remaining rects average %g", what, got, want)
		}
	}
}

func TestNearestRectsToLineFunc(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	tr := newTestTree(t, 3, SplitRStar)
	rects := make([]geom.Rect, 200)
	for i := range rects {
		rects[i] = randRect(r, 3)
		tr.InsertRect(rects[i], int64(i))
	}
	l := vec.Line{P: randVec(r, 3), D: randVec(r, 3)}
	var prev float64 = -1
	count := 0
	frozen(t, tr).NearestRectsToLineFunc(l, nil, func(it RectItemDist) bool {
		if it.Dist < prev-1e-9 {
			t.Fatalf("distances not monotone: %v after %v", it.Dist, prev)
		}
		// The stored rect is the inserted one rounded outward to float32s.
		if want := geom.LineRectDist(rects[it.ID], l); it.Dist > want+1e-9 || it.Dist < want-1e-5 {
			t.Fatalf("id %d: dist %v, want %v", it.ID, it.Dist, want)
		}
		prev = it.Dist
		count++
		return count < 50
	})
	if count != 50 {
		t.Fatalf("streamed %d items", count)
	}
}

func TestRectEntriesSerializeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(74))
	tr := newTestTree(t, 3, SplitRStar)
	// Mix point and rect entries.
	for i := 0; i < 120; i++ {
		if i%2 == 0 {
			tr.Insert(randVec(r, 3), int64(i))
		} else {
			tr.InsertRect(randRect(r, 3), int64(i))
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	tr2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Len() != tr.Len() {
		t.Fatalf("size mismatch")
	}
	// A tree mixing both kinds cannot be frozen; the reference descent
	// compares the two builders.
	q := lineQuery{l: vec.Line{P: randVec(r, 3), D: randVec(r, 3)}, eps: 1, strategy: geom.EnteringExiting, rects: true}
	a, _ := refLine(tr.root, q)
	b, _ := refLine(tr2.root, q)
	rectItems := func(es []*entry) (items []RectItem) {
		for _, e := range es {
			items = append(items, RectItem{Rect: e.rect, ID: e.item.ID})
		}
		return items
	}
	if len(a) == 0 || !reflect.DeepEqual(rectItems(a), rectItems(b)) {
		t.Fatalf("results differ after round trip: %d vs %d", len(a), len(b))
	}
	if _, err := tr.Freeze(); err == nil {
		t.Fatal("froze a tree mixing point and rect leaf entries")
	}
}
