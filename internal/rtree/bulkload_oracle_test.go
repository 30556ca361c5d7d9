package rtree

import (
	"fmt"
	"sort"
	"sync"

	"scaleshift/internal/geom"
)

// sema is a counting semaphore bounding the extra goroutines a
// parallel bulk load may spawn; the calling goroutine is not counted,
// so capacity 0 means fully sequential execution.
type sema chan struct{}

func newSema(extra int) sema {
	if extra < 0 {
		extra = 0
	}
	return make(sema, extra)
}

// tryAcquire takes a worker token without blocking: bulk loading never
// waits for parallelism, it degrades to inline execution.
func (s sema) tryAcquire() bool {
	select {
	case s <- struct{}{}:
		return true
	default:
		return false
	}
}

func (s sema) release() { <-s }

// oracleBulkLoad is the pointer-tree bulk loader BulkLoadFlat replaced,
// kept verbatim as its reference: Sort-Tile-Recursive packing over heap
// entries, one per item, with the leaf-entry construction, the STR sort
// passes, and the per-slab tiling recursion fanned out over at most
// workers goroutines (including the caller; values < 2 mean
// sequential).  Every sort is stable — the parallel path uses a stable
// merge sort, and any two stable sorts under the same comparator
// produce the same permutation — and slab outputs are concatenated in
// slab order.  Freezing its tree gives the arena BulkLoadFlat must
// produce byte for byte.
func oracleBulkLoad(cfg Config, items []Item, workers int) (*Tree, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	t := &Tree{cfg: cfg, root: &node{level: 0}, nodes: 1}
	if len(items) == 0 {
		return t, nil
	}
	for i, it := range items {
		if len(it.Point) != cfg.Dim {
			return nil, fmt.Errorf("rtree: bulk item %d has dimension %d, want %d", i, len(it.Point), cfg.Dim)
		}
	}
	sem := newSema(workers - 1)

	capacity := int(bulkFill * float64(cfg.MaxEntries))
	if capacity < cfg.MinEntries {
		capacity = cfg.MinEntries
	}

	// Leaf level: one entry per item, built in parallel chunks (each
	// chunk writes a disjoint range, so the result is order-exact).
	entries := make([]*entry, len(items))
	buildRange := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p := items[i].Point.Clone()
			entries[i] = &entry{rect: geom.RectFromPoint(p), item: Item{Point: p, ID: items[i].ID}}
		}
	}
	var wg sync.WaitGroup
	const leafChunk = 4096
	for lo := 0; lo < len(items); lo += leafChunk {
		hi := lo + leafChunk
		if hi > len(items) {
			hi = len(items)
		}
		if hi < len(items) && sem.tryAcquire() {
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				defer sem.release()
				buildRange(lo, hi)
			}(lo, hi)
		} else {
			buildRange(lo, hi)
		}
	}
	wg.Wait()

	level := 0
	for len(entries) > cfg.MaxEntries {
		groups := strTile(entries, capacity, cfg.MinEntries, cfg.Dim, 0, sem)
		parents := make([]*entry, len(groups))
		for gi, g := range groups {
			// Copy the group: strTile returns sub-slices of one backing
			// array, and nodes must own their entry slices so later
			// appends cannot clobber a sibling.
			es := make([]*entry, len(g), len(g)+2)
			copy(es, g)
			n := &node{level: level, entries: es}
			for _, e := range g {
				if e.child != nil {
					e.child.parent = n
				}
			}
			t.nodes++
			parents[gi] = &entry{rect: mbrOf(g), child: n}
		}
		entries = parents
		level++
	}
	root := &node{level: level, entries: entries}
	for _, e := range entries {
		if e.child != nil {
			e.child.parent = root
		}
	}
	t.root = root
	t.size = len(items)
	t.rebuildSample()
	return t, nil
}

// strTile partitions entries into groups of at most c (and at least
// minEntries) using recursive sort-tile on the rectangle centers,
// cycling through the dimensions starting at dim.  Slabs recurse on
// disjoint sub-slices, so spare worker tokens from sem run them
// concurrently; outputs are collected in slab order, keeping the
// grouping identical to the sequential tiling.
func strTile(entries []*entry, c, minEntries, dims, dim int, sem sema) [][]*entry {
	if len(entries) <= c {
		return [][]*entry{entries}
	}
	// Number of groups needed and slab count along this dimension.
	groups := (len(entries) + c - 1) / c
	slabs := 1
	for slabs*slabs < groups { // ceil(sqrt) is enough when cycling dims
		slabs++
	}
	d := dim % dims
	sortByDim(entries, d, sem)
	perSlab := (len(entries) + slabs - 1) / slabs
	// Keep each slab a multiple-ish of c so downstream groups fill.
	if r := perSlab % c; r != 0 && perSlab > c {
		perSlab += c - r
	}
	nSlabs := (len(entries) + perSlab - 1) / perSlab
	slabOut := make([][][]*entry, nSlabs)
	var wg sync.WaitGroup
	for si, start := 0, 0; start < len(entries); si, start = si+1, start+perSlab {
		end := start + perSlab
		if end > len(entries) {
			end = len(entries)
		}
		slab := entries[start:end]
		if len(slab) <= c {
			slabOut[si] = [][]*entry{slab}
			continue
		}
		if sem.tryAcquire() {
			wg.Add(1)
			go func(si int, slab []*entry) {
				defer wg.Done()
				defer sem.release()
				slabOut[si] = strTile(slab, c, minEntries, dims, dim+1, sem)
			}(si, slab)
		} else {
			slabOut[si] = strTile(slab, c, minEntries, dims, dim+1, sem)
		}
	}
	wg.Wait()
	var out [][]*entry
	for _, groups := range slabOut {
		out = append(out, groups...)
	}
	// Rebalance any trailing underfull group against its predecessor.
	for i := 1; i < len(out); i++ {
		if len(out[i]) >= minEntries {
			continue
		}
		merged := append(append([]*entry(nil), out[i-1]...), out[i]...)
		half := len(merged) / 2
		if half < minEntries {
			// Merge outright: half < m means merged < 2m <= M+1, so the
			// combined group still fits in one node.
			out[i-1] = merged
			out = append(out[:i], out[i+1:]...)
			i--
			continue
		}
		out[i-1] = merged[:half]
		out[i] = merged[half:]
	}
	return out
}

// sortKey orders entries by rectangle center along dimension d.
func sortKey(e *entry, d int) float64 { return e.rect.L[d] + e.rect.H[d] }

// sortByDim stable-sorts entries by center along dimension d.  Large
// slices with spare worker tokens use a stable parallel merge sort;
// stability makes its output identical to sort.SliceStable's, so the
// tree shape is independent of the worker count.
func sortByDim(entries []*entry, d int, sem sema) {
	if len(entries) < parallelSortCutoff || cap(sem) == 0 {
		sort.SliceStable(entries, func(i, j int) bool {
			return sortKey(entries[i], d) < sortKey(entries[j], d)
		})
		return
	}
	mergeSortByDim(entries, make([]*entry, len(entries)), d, sem)
}

// mergeSortByDim sorts es using aux (same length) as merge scratch.
func mergeSortByDim(es, aux []*entry, d int, sem sema) {
	if len(es) < parallelSortCutoff {
		sort.SliceStable(es, func(i, j int) bool {
			return sortKey(es[i], d) < sortKey(es[j], d)
		})
		return
	}
	mid := len(es) / 2
	if sem.tryAcquire() {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer sem.release()
			mergeSortByDim(es[:mid], aux[:mid], d, sem)
		}()
		mergeSortByDim(es[mid:], aux[mid:], d, sem)
		wg.Wait()
	} else {
		mergeSortByDim(es[:mid], aux[:mid], d, sem)
		mergeSortByDim(es[mid:], aux[mid:], d, sem)
	}
	// Stable merge: ties take the left run, preserving original order.
	copy(aux, es)
	i, j := 0, mid
	for k := range es {
		switch {
		case i >= mid:
			es[k] = aux[j]
			j++
		case j >= len(aux):
			es[k] = aux[i]
			i++
		case sortKey(aux[j], d) < sortKey(aux[i], d):
			es[k] = aux[j]
			j++
		default:
			es[k] = aux[i]
			i++
		}
	}
}
