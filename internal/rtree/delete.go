package rtree

import (
	"math"

	"scaleshift/internal/geom"
	"scaleshift/internal/vec"
)

// Delete removes one item equal to (point, id) and reports whether it
// was found.  When several identical items exist, one is removed.  In a
// tree thawed from an arena, "equal" allows for the rounding the arena
// applied: the caller deletes by the point it inserted, the tree holds
// the float32 nearest it (see Tree.tol).
func (t *Tree) Delete(point vec.Vector, id int64) bool {
	leaf, idx := t.findLeaf(t.root, point, id)
	if leaf == nil {
		return false
	}
	leaf.entries = append(leaf.entries[:idx], leaf.entries[idx+1:]...)
	t.size--
	t.condense(leaf)
	// Shrink the root while it is an internal node with a single child.
	for !t.root.isLeaf() && len(t.root.entries) == 1 {
		t.nodes -= t.root.pages()
		t.root = t.root.entries[0].child
		t.root.parent = nil
	}
	t.shrinkSupernodeIfPossible(t.root)
	return true
}

// findLeaf locates the leaf and entry index holding (point, id), or
// (nil, 0) when absent.
func (t *Tree) findLeaf(n *node, point vec.Vector, id int64) (*node, int) {
	if n.isLeaf() {
		for i, e := range n.entries {
			if e.item.ID != id {
				continue
			}
			if within(e.item.Point, point, t.tol) {
				return n, i
			}
		}
		return nil, 0
	}
	for _, e := range n.entries {
		if containsWithin(e.rect, point, t.tol) {
			if leaf, i := t.findLeaf(e.child, point, id); leaf != nil {
				return leaf, i
			}
		}
	}
	return nil, 0
}

// within reports whether a and b agree to tol in every coordinate
// (exactly, for tol 0).
func within(a, b vec.Vector, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && !(math.Abs(a[i]-b[i]) <= tol) {
			return false
		}
	}
	return true
}

// containsWithin reports whether r, enlarged by tol, contains p.
func containsWithin(r geom.Rect, p vec.Vector, tol float64) bool {
	for i := range p {
		if p[i] < r.L[i]-tol || p[i] > r.H[i]+tol {
			return false
		}
	}
	return true
}

// condense walks from a shrunken leaf to the root, dissolving nodes
// that fell below the minimum fill and re-inserting their entries at
// their original levels (Guttman's CondenseTree).
func (t *Tree) condense(n *node) {
	type orphan struct {
		e     *entry
		level int
	}
	var orphans []orphan

	for n.parent != nil {
		parent := n.parent
		if len(n.entries) < t.cfg.MinEntries {
			// Dissolve n: detach from parent, queue entries for reinsert.
			pe := n.parentEntry()
			for i, e := range parent.entries {
				if e == pe {
					parent.entries = append(parent.entries[:i], parent.entries[i+1:]...)
					break
				}
			}
			for _, e := range n.entries {
				orphans = append(orphans, orphan{e, n.level})
			}
			t.nodes -= n.pages()
		} else {
			t.shrinkSupernodeIfPossible(n)
			pe := n.parentEntry()
			n.mbrInto(&pe.rect)
		}
		n = parent
	}

	t.reinsertDone = make(map[int]bool)
	for _, o := range orphans {
		t.insertEntry(o.e, o.level)
	}
}
