// Package binpack implements the bin-packing substrate used by the
// mapping-schema approximation algorithms of internal/a2a and internal/x2y.
//
// The bin-packing-based algorithms in "Assignment of Different-Sized Inputs
// in MapReduce" first pack inputs into bins of size q/2 (or q - w for a big
// input of size w) and then combine bins into reducers. This package provides
// the three decreasing-order heuristics the planner races: First-Fit
// Decreasing (the paper's), Best-Fit Decreasing and Worst-Fit Decreasing.
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

// Policy selects a packing heuristic. Every policy packs the items in order
// of decreasing size; they differ in which open bin an item goes to.
type Policy int

const (
	// FirstFitDecreasing places each item into the first bin it fits in.
	// This is the heuristic the paper's bin-pack-and-pair algorithms assume,
	// and the zero Policy.
	FirstFitDecreasing Policy = iota
	// BestFitDecreasing places each item into the fullest bin it still fits
	// in.
	BestFitDecreasing
	// WorstFitDecreasing places each item into the emptiest bin it fits in;
	// it tends to balance loads.
	WorstFitDecreasing
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case FirstFitDecreasing:
		return "first-fit-decreasing"
	case BestFitDecreasing:
		return "best-fit-decreasing"
	case WorstFitDecreasing:
		return "worst-fit-decreasing"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ErrItemTooLarge is returned when some item is larger than the bin capacity.
var ErrItemTooLarge = errors.New("binpack: item larger than bin capacity")

// Pack packs the items into bins of the given capacity using the selected
// policy. It returns ErrItemTooLarge if any single item exceeds the capacity.
//
// Items are packed in order of decreasing size, ties by ascending ID. Items
// that already arrive in that order are packed as given, without a copy or a
// sort, so a caller that packs one item list at many capacities orders it
// once (core.InputSet.IDsBySizeDescending is that order). items is never
// modified.
func Pack(items []Item, capacity core.Size, policy Policy) (*Packing, error) {
	for _, it := range items {
		if it.Size > capacity {
			return nil, fmt.Errorf("%w: item %d has size %d > %d", ErrItemTooLarge, it.ID, it.Size, capacity)
		}
		if it.Size <= 0 {
			return nil, fmt.Errorf("binpack: item %d has non-positive size %d", it.ID, it.Size)
		}
	}
	ordered := items
	if !slices.IsSortedFunc(items, bySizeDecreasing) {
		ordered = slices.Clone(items)
		slices.SortFunc(ordered, bySizeDecreasing)
	}
	p := &Packing{Capacity: capacity}
	switch policy {
	case FirstFitDecreasing:
		packFirstFit(p, ordered)
	case BestFitDecreasing:
		packBestFit(p, ordered)
	case WorstFitDecreasing:
		packWorstFit(p, ordered)
	default:
		return nil, fmt.Errorf("binpack: unknown policy %v", policy)
	}
	return p, nil
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

func packFirstFit(p *Packing, items []Item) {
	for _, it := range items {
		placed := false
		for b := range p.Bins {
			if p.Bins[b].Load+it.Size <= p.Capacity {
				p.Bins[b].Items = append(p.Bins[b].Items, it.ID)
				p.Bins[b].Load += it.Size
				placed = true
				break
			}
		}
		if !placed {
			p.Bins = append(p.Bins, Bin{Items: []int{it.ID}, Load: it.Size})
		}
	}
}

func packBestFit(p *Packing, items []Item) {
	for _, it := range items {
		best := -1
		var bestResidual core.Size
		for b := range p.Bins {
			residual := p.Capacity - p.Bins[b].Load
			if it.Size <= residual && (best == -1 || residual < bestResidual) {
				best = b
				bestResidual = residual
			}
		}
		if best == -1 {
			p.Bins = append(p.Bins, Bin{Items: []int{it.ID}, Load: it.Size})
			continue
		}
		p.Bins[best].Items = append(p.Bins[best].Items, it.ID)
		p.Bins[best].Load += it.Size
	}
}

func packWorstFit(p *Packing, items []Item) {
	for _, it := range items {
		worst := -1
		var worstResidual core.Size
		for b := range p.Bins {
			residual := p.Capacity - p.Bins[b].Load
			if it.Size <= residual && (worst == -1 || residual > worstResidual) {
				worst = b
				worstResidual = residual
			}
		}
		if worst == -1 {
			p.Bins = append(p.Bins, Bin{Items: []int{it.ID}, Load: it.Size})
			continue
		}
		p.Bins[worst].Items = append(p.Bins[worst].Items, it.ID)
		p.Bins[worst].Load += it.Size
	}
}
