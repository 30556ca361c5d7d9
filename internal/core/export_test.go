package core

import (
	"context"

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
		if sg.flat.Directory() != rtree.DirectoryBox {
			return false
		}
	}
	return true
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

// Refold rebuilds ix's arena over the windows it covers, on workers
// goroutines (0: one per CPU), as a fold does.
func (ix *Index) Refold(workers int) error {
	return ix.rebuild(context.Background(), workers, func(next []int) ([]int, error) { return next, nil })
}
