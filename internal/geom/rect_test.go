package geom

import (
	"math"
	"math/rand"
	"testing"

	"scaleshift/internal/vec"
)

func randVec(r *rand.Rand, n int) vec.Vector {
	v := make(vec.Vector, n)
	for i := range v {
		v[i] = r.Float64()*20 - 10
	}
	return v
}

// randRect draws a random rectangle of dimension n.
func randRect(r *rand.Rand, n int) Rect {
	a, b := randVec(r, n), randVec(r, n)
	rect := RectFromPoint(a)
	rect.Extend(RectFromPoint(b))
	return rect
}

func TestContains(t *testing.T) {
	r := Rect{L: vec.Vector{0, 0}, H: vec.Vector{2, 2}}
	tests := []struct {
		p    vec.Vector
		want bool
	}{
		{vec.Vector{1, 1}, true},
		{vec.Vector{0, 0}, true}, // boundary
		{vec.Vector{2, 2}, true}, // boundary
		{vec.Vector{3, 1}, false},
		{vec.Vector{1, -0.1}, false},
	}
	for _, tc := range tests {
		if got := r.Contains(tc.p); got != tc.want {
			t.Errorf("Contains(%v) = %v", tc.p, got)
		}
	}
}

func TestContainsRectAndIntersects(t *testing.T) {
	outer := Rect{L: vec.Vector{0, 0}, H: vec.Vector{10, 10}}
	inner := Rect{L: vec.Vector{2, 2}, H: vec.Vector{5, 5}}
	overlap := Rect{L: vec.Vector{8, 8}, H: vec.Vector{12, 12}}
	disjoint := Rect{L: vec.Vector{11, 11}, H: vec.Vector{12, 12}}

	if !outer.ContainsRect(inner) || inner.ContainsRect(outer) {
		t.Error("ContainsRect wrong")
	}
	if !outer.Intersects(overlap) || !overlap.Intersects(outer) {
		t.Error("Intersects wrong for overlap")
	}
	if outer.Intersects(disjoint) {
		t.Error("Intersects wrong for disjoint")
	}
	// Touching edges intersect.
	touch := Rect{L: vec.Vector{10, 0}, H: vec.Vector{12, 10}}
	if !outer.Intersects(touch) {
		t.Error("touching rects should intersect")
	}
}

func TestEnlarge(t *testing.T) {
	r := Rect{L: vec.Vector{0, 0}, H: vec.Vector{2, 2}}
	e := r.Enlarge(0.5)
	if e.L[0] != -0.5 || e.H[1] != 2.5 {
		t.Errorf("Enlarge = %+v", e)
	}
	// ε = 0 must be identity.
	z := r.Enlarge(0)
	if !z.ContainsRect(r) || !r.ContainsRect(z) {
		t.Error("Enlarge(0) not identity")
	}
}

func TestUnionExtend(t *testing.T) {
	a := Rect{L: vec.Vector{0, 0}, H: vec.Vector{1, 1}}
	b := Rect{L: vec.Vector{2, -1}, H: vec.Vector{3, 0.5}}
	u := a.Union(b)
	want := Rect{L: vec.Vector{0, -1}, H: vec.Vector{3, 1}}
	if !u.ContainsRect(want) || !want.ContainsRect(u) {
		t.Errorf("Union = %+v", u)
	}
	c := a
	c.L, c.H = a.L.Clone(), a.H.Clone()
	c.Extend(b)
	if !c.ContainsRect(want) || !want.ContainsRect(c) {
		t.Errorf("Extend = %+v", c)
	}
}

func TestAreaMargin(t *testing.T) {
	r := Rect{L: vec.Vector{0, 0, 0}, H: vec.Vector{2, 3, 4}}
	if got := r.Area(); got != 24 {
		t.Errorf("Area = %v", got)
	}
	if got := r.Margin(); got != 9 {
		t.Errorf("Margin = %v", got)
	}
	p := RectFromPoint(vec.Vector{1, 2})
	if p.Area() != 0 || p.Margin() != 0 {
		t.Error("point rect should have zero area and margin")
	}
}

func TestIntersectionArea(t *testing.T) {
	a := Rect{L: vec.Vector{0, 0}, H: vec.Vector{4, 4}}
	b := Rect{L: vec.Vector{2, 2}, H: vec.Vector{6, 6}}
	if got := a.IntersectionArea(b); got != 4 {
		t.Errorf("IntersectionArea = %v", got)
	}
	c := Rect{L: vec.Vector{5, 5}, H: vec.Vector{6, 6}}
	if got := a.IntersectionArea(c); got != 0 {
		t.Errorf("disjoint IntersectionArea = %v", got)
	}
	// Touching: zero area.
	d := Rect{L: vec.Vector{4, 0}, H: vec.Vector{5, 4}}
	if got := a.IntersectionArea(d); got != 0 {
		t.Errorf("touching IntersectionArea = %v", got)
	}
}

func TestCenterRadii(t *testing.T) {
	r := Rect{L: vec.Vector{0, 0}, H: vec.Vector{4, 2}}
	c := r.Center()
	if c[0] != 2 || c[1] != 1 {
		t.Errorf("Center = %v", c)
	}
	if got, want := r.OuterRadius(), math.Sqrt(5); math.Abs(got-want) > 1e-12 {
		t.Errorf("OuterRadius = %v, want %v", got, want)
	}
	if got := r.InnerRadius(); got != 1 {
		t.Errorf("InnerRadius = %v", got)
	}
	if got := r.InnerRadius(); got > r.OuterRadius() {
		t.Errorf("inner radius %v exceeds outer %v", got, r.OuterRadius())
	}
}

func TestUnionCommutativeMonotoneProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		n := 1 + r.Intn(8)
		a, b := randRect(r, n), randRect(r, n)
		u1, u2 := a.Union(b), b.Union(a)
		if !u1.ContainsRect(u2) || !u2.ContainsRect(u1) {
			t.Fatal("Union not commutative")
		}
		if !u1.ContainsRect(a) || !u1.ContainsRect(b) {
			t.Fatal("Union does not contain operands")
		}
		if u1.Area() < a.Area()-1e-12 || u1.Area() < b.Area()-1e-12 {
			t.Fatal("Union area shrank")
		}
	}
}
