package rstar

import (
	"fmt"

	"scaleshift/internal/geom"
)

// CheckInvariants verifies the structural invariants of the tree and
// returns the first violation found, or nil.  It is O(size) and meant
// for tests and debugging:
//
//   - every non-root node holds between MinEntries and MaxEntries
//     entries; the root holds at most MaxEntries;
//   - every internal entry's rectangle is exactly the MBR of its child;
//   - parent pointers are consistent;
//   - all leaves are at level 0 and levels decrease by one per step;
//   - the recorded size and node count match the actual tree.
func (t *Tree) CheckInvariants() error {
	items, nodes := 0, 0
	var walk func(n *node, isRoot bool) error
	walk = func(n *node, isRoot bool) error {
		nodes += n.pages()
		if n.super > 1 && (t.cfg.SupernodeMaxOverlap <= 0 || n.isLeaf()) {
			return fmt.Errorf("rstar: unexpected supernode at level %d", n.level)
		}
		if len(n.entries) > t.capacity(n) {
			return fmt.Errorf("rstar: node at level %d has %d entries > capacity %d",
				n.level, len(n.entries), t.capacity(n))
		}
		if !isRoot && len(n.entries) < t.cfg.MinEntries {
			return fmt.Errorf("rstar: non-root node at level %d has %d entries < m=%d",
				n.level, len(n.entries), t.cfg.MinEntries)
		}
		if n.isLeaf() {
			items += len(n.entries)
			for _, e := range n.entries {
				if e.child != nil {
					return fmt.Errorf("rstar: leaf entry has a child pointer")
				}
				if e.rect.Dim() != t.cfg.Dim {
					return fmt.Errorf("rstar: leaf rect dimension %d != %d", e.rect.Dim(), t.cfg.Dim)
				}
				if len(e.item.Point) != t.cfg.Dim {
					return fmt.Errorf("rstar: item dimension %d != %d", len(e.item.Point), t.cfg.Dim)
				}
				if !e.rect.Contains(e.item.Point) {
					return fmt.Errorf("rstar: leaf rect does not contain its point")
				}
			}
			return nil
		}
		for _, e := range n.entries {
			if e.child == nil {
				return fmt.Errorf("rstar: internal entry without child at level %d", n.level)
			}
			if e.child.level != n.level-1 {
				return fmt.Errorf("rstar: child level %d under node level %d", e.child.level, n.level)
			}
			if e.child.parent != n {
				return fmt.Errorf("rstar: broken parent pointer at level %d", n.level)
			}
			m := e.child.mbr()
			if !rectsEqual(e.rect, m) {
				return fmt.Errorf("rstar: entry rect %v..%v is not the child MBR %v..%v",
					e.rect.L, e.rect.H, m.L, m.H)
			}
			if err := walk(e.child, false); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, true); err != nil {
		return err
	}
	if items != t.size {
		return fmt.Errorf("rstar: size %d but %d items reachable", t.size, items)
	}
	if nodes != t.nodes {
		return fmt.Errorf("rstar: page count %d but %d pages reachable", t.nodes, nodes)
	}
	return nil
}

func rectsEqual(a, b geom.Rect) bool {
	for i := range a.L {
		if a.L[i] != b.L[i] || a.H[i] != b.H[i] {
			return false
		}
	}
	return len(a.L) == len(b.L)
}
