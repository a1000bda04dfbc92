// Package binpack implements the bin-packing substrate used by the
// mapping-schema approximation algorithms of internal/a2a and internal/x2y.
//
// The bin-packing-based algorithms in "Assignment of Different-Sized Inputs
// in MapReduce" first pack inputs into bins of size q/2 (or q - w for a big
// input of size w) and then combine bins into reducers. This package provides
// the heuristic those constructions are stated with, First-Fit Decreasing.
package binpack

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
)

// Item is one object to pack: an identifier (opaque to this package — the
// mapping-schema algorithms use input IDs) and a size.
type Item struct {
	ID   int
	Size core.Size
}

// Bin is one bin of a packing: the IDs of the items placed in it and their
// total size.
type Bin struct {
	Items []int
	Load  core.Size
}

// Packing is the result of packing a set of items into bins of a fixed
// capacity.
type Packing struct {
	Capacity core.Size
	Bins     []Bin
}

// NumBins returns the number of bins used.
func (p *Packing) NumBins() int { return len(p.Bins) }

// MaxLoad returns the largest bin load.
func (p *Packing) MaxLoad() core.Size {
	var max core.Size
	for _, b := range p.Bins {
		if b.Load > max {
			max = b.Load
		}
	}
	return max
}

// Validate checks that every item appears in exactly one bin and that no bin
// exceeds the capacity. items must be the slice that was packed.
func (p *Packing) Validate(items []Item) error {
	sizes := make(map[int]core.Size, len(items))
	for _, it := range items {
		if _, dup := sizes[it.ID]; dup {
			return fmt.Errorf("binpack: duplicate item ID %d in input", it.ID)
		}
		sizes[it.ID] = it.Size
	}
	seen := make(map[int]bool, len(items))
	for i, b := range p.Bins {
		var load core.Size
		for _, id := range b.Items {
			sz, ok := sizes[id]
			if !ok {
				return fmt.Errorf("binpack: bin %d contains unknown item %d", i, id)
			}
			if seen[id] {
				return fmt.Errorf("binpack: item %d appears in more than one bin", id)
			}
			seen[id] = true
			load += sz
		}
		if load > p.Capacity {
			return fmt.Errorf("binpack: bin %d load %d exceeds capacity %d", i, load, p.Capacity)
		}
		if load != b.Load {
			return fmt.Errorf("binpack: bin %d records load %d but items sum to %d", i, b.Load, load)
		}
	}
	if len(seen) != len(items) {
		return fmt.Errorf("binpack: packed %d of %d items", len(seen), len(items))
	}
	return nil
}

// Policy selects a packing heuristic. FirstFitDecreasing, the zero Policy, is
// the only one.
type Policy int

// FirstFitDecreasing packs the items in order of decreasing size, each into
// the first bin it fits in. This is the heuristic the paper's
// bin-pack-and-pair algorithms assume.
const FirstFitDecreasing Policy = 0

// String implements fmt.Stringer.
func (p Policy) String() string {
	if p == FirstFitDecreasing {
		return "first-fit-decreasing"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ErrItemTooLarge is returned when some item is larger than the bin capacity.
var ErrItemTooLarge = errors.New("binpack: item larger than bin capacity")

// Pack packs the items into bins of the given capacity using the selected
// policy. It returns ErrItemTooLarge if any single item exceeds the capacity,
// and an error for a policy other than FirstFitDecreasing.
//
// Items are packed in order of decreasing size, ties by ascending ID. Items
// that already arrive in that order are packed as given, without a copy or a
// sort, so a caller that packs one item list at many capacities orders it
// once (core.InputSet.IDsBySizeDescending is that order). items is never
// modified.
func Pack(items []Item, capacity core.Size, policy Policy) (*Packing, error) {
	if policy != FirstFitDecreasing {
		return nil, fmt.Errorf("binpack: unknown policy %v", policy)
	}
	ordered, err := decreasing(items, capacity)
	if err != nil {
		return nil, err
	}
	p := &Packing{Capacity: capacity}
	firstFit(ordered, capacity, func(bin int, batch []Item) {
		if bin == len(p.Bins) {
			p.Bins = append(p.Bins, Bin{})
		}
		b := &p.Bins[bin]
		for _, it := range batch {
			b.Items = append(b.Items, it.ID)
			b.Load += it.Size
		}
	})
	return p, nil
}

// Count returns how many bins Pack opens for the items at capacity, with the
// same errors, without placing them: a caller pricing one item list at many
// capacities orders it once and counts each in one pass, allocating only
// the pass's tree.
func Count(items []Item, capacity core.Size) (int, error) {
	ordered, err := decreasing(items, capacity)
	if err != nil {
		return 0, err
	}
	return firstFit(ordered, capacity, nil), nil
}

// decreasing checks every item fits capacity and returns the items in
// First-Fit Decreasing's order, as given when they already are.
func decreasing(items []Item, capacity core.Size) ([]Item, error) {
	for _, it := range items {
		if it.Size > capacity {
			return nil, fmt.Errorf("%w: item %d has size %d > %d", ErrItemTooLarge, it.ID, it.Size, capacity)
		}
		if it.Size <= 0 {
			return nil, fmt.Errorf("binpack: item %d has non-positive size %d", it.ID, it.Size)
		}
	}
	if slices.IsSortedFunc(items, bySizeDecreasing) {
		return items, nil
	}
	ordered := slices.Clone(items)
	slices.SortFunc(ordered, bySizeDecreasing)
	return ordered, nil
}

// ItemsFromInputSet converts an input set into pack items, one per input, in
// ID order.
func ItemsFromInputSet(set *core.InputSet) []Item {
	items := make([]Item, set.Len())
	for i := 0; i < set.Len(); i++ {
		items[i] = Item{ID: i, Size: set.Size(i)}
	}
	return items
}

// ItemsFromIDs converts the identified inputs of a set into pack items.
func ItemsFromIDs(set *core.InputSet, ids []int) []Item {
	items := make([]Item, len(ids))
	for i, id := range ids {
		items[i] = Item{ID: id, Size: set.Size(id)}
	}
	return items
}

// bySizeDecreasing orders items by decreasing size, ties by ascending ID.
// Items that compare equal are identical, so an unstable sort is enough.
func bySizeDecreasing(a, b Item) int {
	if c := cmp.Compare(b.Size, a.Size); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// firstFit places the items, in the given order and each at most capacity,
// into the lowest-numbered bin with room for it, and returns how many bins
// it opens; place, when not nil, is handed each batch of consecutive items
// placed in one bin. A max-tree over the bins' free room (a bin not yet
// opened has all of capacity) finds an item's first fit in O(log bins). An
// item the same size as the one before goes where that one went whenever it
// still fits, since no bin before it has room for the size, so a run of
// equal sizes fills a bin in one step. No more bins open than there are
// items, and at most one first-fit bin is at most half full, so fewer than
// 2·total/capacity + 1 open.
func firstFit(items []Item, capacity core.Size, place func(bin int, batch []Item)) int {
	var total core.Size
	for _, it := range items {
		total = core.AddSat(total, it.Size)
	}
	leaves := 1
	for bound := min(len(items), 2*int(core.CeilDiv(total, capacity))+1); leaves < bound; {
		leaves *= 2
	}
	free := make([]core.Size, 2*leaves)
	for i := range free {
		free[i] = capacity
	}
	opened := 0
	for i := 0; i < len(items); {
		size, node := items[i].Size, 1
		for node < leaves {
			node *= 2
			if free[node] < size {
				node++
			}
		}
		take := 1
		for i+take < len(items) && items[i+take].Size == size && size <= free[node]-core.Size(take)*size {
			take++
		}
		bin := node - leaves
		if place != nil {
			place(bin, items[i:i+take])
		}
		i += take
		opened = max(opened, bin+1)
		free[node] -= core.Size(take) * size
		for node > 1 {
			node /= 2
			free[node] = max(free[2*node], free[2*node+1])
		}
	}
	return opened
}
