package core

import (
	"context"
	"encoding/binary"

	"scaleshift/internal/rtree"
	"scaleshift/internal/store"
)

// What the external core_test suites read of an index's insides.

// Mapped reports how many artifact files ix's segments are mapped from.
func (ix *Index) Mapped() int { return len(ix.mappings) }

// BoxDirectories reports whether every frozen segment of ix serves a
// direction-box directory, the one kind a build writes.
func (ix *Index) BoxDirectories() bool {
	pin := ix.cell.Acquire()
	defer pin.Release()
	for _, sg := range pin.Value().frozen {
		if !boxArena(sg.flat) {
			return false
		}
	}
	return true
}

// boxArena reports whether f's bytes read back as an arena:
// rtree.FlatFromArena refuses every directory kind but direction boxes.
func boxArena(f *rtree.FlatTree) bool {
	_, err := rtree.FlatFromArena(f.AppendArena(nil))
	return err == nil
}

// FirstArena identifies the arena of ix's first frozen segment, nil
// when there is none: a fold must replace it.
func (ix *Index) FirstArena() any {
	pin := ix.cell.Acquire()
	defer pin.Release()
	if m := pin.Value(); len(m.frozen) > 0 {
		return m.frozen[0].flat
	}
	return nil
}

// DeltaWindows returns the (seq, start) of every window in ix's
// published delta.
func (ix *Index) DeltaWindows() [][2]int {
	pin := ix.cell.Acquire()
	defer pin.Release()
	var out [][2]int
	for _, id := range pin.Value().delta.appendIDs(nil) {
		seq, start := store.DecodeWindowID(id)
		out = append(out, [2]int{seq, start})
	}
	return out
}

// BuildOn builds ix over every window of its store, as Build does, on
// workers goroutines (0: one per CPU).
func (ix *Index) BuildOn(workers int) error {
	return ix.rebuild(context.Background(), workers, ix.allWindows)
}

// ProbeFanoutWidth is the frontier width from which a descent fans out.
const ProbeFanoutWidth = probeFanoutWidth

// FrontierWidths returns, for each frozen segment of ix, the frontier
// width of range query q's descent: what decides whether it fans out.
func (ix *Index) FrontierWidths(q Query) []int {
	pin := ix.cell.Acquire()
	defer pin.Release()
	m := pin.Value()
	sc := acquireScratch()
	defer sc.release()
	eq := buildEngineQuery(sc.seLine(m.fmap, q.Vec), q.Eps, m.slack, q.costs())
	var widths []int
	for _, sg := range m.frozen {
		var p rtree.Probe
		if eq.Segment {
			p = sg.flat.SegmentProbe(eq.Line, eq.TMin, eq.TMax, eq.Eps, nil)
		} else {
			p = sg.flat.LineProbe(eq.Line, eq.Eps, nil)
		}
		tasks, err := p.Frontier(context.Background(), nil, nil)
		p.Release()
		if err != nil {
			panic(err) // a background context does not cancel
		}
		widths = append(widths, len(tasks))
	}
	return widths
}

// CorruptChildRefs publishes ix with every entry of every level-1 node
// of its first frozen segment pointing at node 0, the root: a child
// reference no verified arena holds, which the descent's child check
// turns into a panic in whichever subtree below the frontier it enters.
// The levels the frontier tests stay intact.  The arena is a copy; the
// segment's own is untouched.
func (ix *Index) CorruptChildRefs() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	sg := ix.frozen[0]
	b := sg.flat.AppendArena(nil)
	word := func(i int) int { return int(binary.LittleEndian.Uint64(b[8*i:])) }
	// The arena layout (rtree.FlatTree.WriteArena): a 12-word header —
	// word 1 the dimension, 9 the node count — the root bounds, then the
	// meta, starts, poff and refs arrays.
	dim, nodes := word(1), word(9)
	meta := 12 + 2*dim
	starts := meta + nodes
	refs := starts + 2*(nodes+1)
	for i := 0; i < nodes; i++ {
		if word(meta+i)>>32 != 1 {
			continue
		}
		for e := word(starts + i); e < word(starts+i+1); e++ {
			binary.LittleEndian.PutUint64(b[8*(refs+e):], 0)
		}
	}
	flat, err := rtree.FlatFromArena(b)
	if err != nil {
		return err
	}
	ix.frozen[0] = &frozenSeg{flat: flat, ranges: sg.ranges, count: sg.count}
	ix.publishLocked()
	return nil
}
