package binpack

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
)

// ErrTooLargeForExact is returned when an exact packing is requested for an
// instance bigger than the configured limit.
var ErrTooLargeForExact = errors.New("binpack: instance too large for the exact solver")

// ExactOptions configures the exact branch-and-bound packer.
type ExactOptions struct {
	// MaxItems caps the instance size the solver accepts; 0 means the default
	// of 24 items. The solver is exponential in the worst case, so callers
	// should keep instances small.
	MaxItems int
	// MaxNodes caps the number of search nodes explored; 0 means the default
	// of 5 million. If the cap is hit the best packing found so far is
	// returned along with ErrNodeBudget.
	MaxNodes int
}

// ErrNodeBudget indicates the exact solver hit its node budget and the result
// is the best packing found so far, not necessarily optimal.
var ErrNodeBudget = errors.New("binpack: exact solver node budget exhausted")

// PackExact computes an optimal packing by branch and bound. Items are
// considered in decreasing size order; the search places each item into every
// existing bin it fits in and into at most one new bin, pruning branches that
// cannot beat the incumbent (using the L2 lower bound on the remaining items)
// and symmetric placements.
func PackExact(items []Item, capacity core.Size, opts ExactOptions) (*Packing, error) {
	if opts.MaxItems == 0 {
		opts.MaxItems = 24
	}
	if opts.MaxNodes == 0 {
		opts.MaxNodes = 5_000_000
	}
	if len(items) > opts.MaxItems {
		return nil, fmt.Errorf("%w: %d items > limit %d", ErrTooLargeForExact, len(items), opts.MaxItems)
	}
	for _, it := range items {
		if it.Size > capacity {
			return nil, fmt.Errorf("%w: item %d has size %d > %d", ErrItemTooLarge, it.ID, it.Size, capacity)
		}
		if it.Size <= 0 {
			return nil, fmt.Errorf("binpack: item %d has non-positive size %d", it.ID, it.Size)
		}
	}
	if len(items) == 0 {
		return &Packing{Capacity: capacity}, nil
	}

	ordered := slices.Clone(items)
	slices.SortFunc(ordered, bySizeDecreasing)

	// Start from the FFD solution as the incumbent upper bound.
	incumbent, err := Pack(items, capacity, FirstFitDecreasing)
	if err != nil {
		return nil, err
	}
	best := incumbent.NumBins()
	bestAssign := assignmentFromPacking(incumbent, ordered)

	lower := BestLowerBound(items, capacity)
	if best == lower {
		return incumbent, nil
	}

	s := &exactState{
		items:    ordered,
		capacity: capacity,
		assign:   make([]int, len(ordered)),
		loads:    make([]core.Size, 0, len(ordered)),
		best:     best,
		bestFit:  bestAssign,
		maxNodes: opts.MaxNodes,
		lower:    lower,
	}
	s.search(0)

	p := &Packing{Capacity: capacity, Policy: FirstFitDecreasing}
	bins := make([]Bin, s.best)
	for idx, b := range s.bestFit {
		bins[b].Items = append(bins[b].Items, ordered[idx].ID)
		bins[b].Load += ordered[idx].Size
	}
	p.Bins = bins
	if s.exhausted {
		return p, ErrNodeBudget
	}
	return p, nil
}

// OptimalBins returns the optimal number of bins for the instance, or the
// heuristic bound plus ErrNodeBudget if the solver could not finish.
func OptimalBins(items []Item, capacity core.Size, opts ExactOptions) (int, error) {
	p, err := PackExact(items, capacity, opts)
	if err != nil {
		return 0, err
	}
	return p.NumBins(), nil
}

type exactState struct {
	items     []Item
	capacity  core.Size
	assign    []int       // assign[i] = bin index of item i (during search)
	loads     []core.Size // current bin loads
	best      int
	bestFit   []int
	nodes     int
	maxNodes  int
	exhausted bool
	lower     int
}

func (s *exactState) search(i int) {
	if s.exhausted || s.best == s.lower {
		return
	}
	s.nodes++
	if s.nodes > s.maxNodes {
		s.exhausted = true
		return
	}
	if i == len(s.items) {
		if len(s.loads) < s.best {
			s.best = len(s.loads)
			s.bestFit = append([]int(nil), s.assign...)
		}
		return
	}
	// Prune: even if all remaining items were packed perfectly we cannot do
	// better than the remaining-size bound.
	var remaining core.Size
	for j := i; j < len(s.items); j++ {
		remaining += s.items[j].Size
	}
	var slack core.Size
	for _, l := range s.loads {
		slack += s.capacity - l
	}
	extraNeeded := 0
	if remaining > slack {
		extraNeeded = int((remaining - slack + s.capacity - 1) / s.capacity)
	}
	if len(s.loads)+extraNeeded >= s.best {
		return
	}

	it := s.items[i]
	// Try existing bins, skipping bins with identical residual capacity
	// (symmetric placements).
	tried := map[core.Size]bool{}
	for b := range s.loads {
		if s.loads[b]+it.Size > s.capacity {
			continue
		}
		if tried[s.loads[b]] {
			continue
		}
		tried[s.loads[b]] = true
		s.loads[b] += it.Size
		s.assign[i] = b
		s.search(i + 1)
		s.loads[b] -= it.Size
	}
	// Try a new bin, but only if that could still beat the incumbent.
	if len(s.loads)+1 < s.best {
		s.loads = append(s.loads, it.Size)
		s.assign[i] = len(s.loads) - 1
		s.search(i + 1)
		s.loads = s.loads[:len(s.loads)-1]
	}
}

// assignmentFromPacking converts a Packing into a per-item bin index aligned
// with the ordered item slice.
func assignmentFromPacking(p *Packing, ordered []Item) []int {
	binOf := map[int]int{}
	for b, bin := range p.Bins {
		for _, id := range bin.Items {
			binOf[id] = b
		}
	}
	out := make([]int, len(ordered))
	for i, it := range ordered {
		out[i] = binOf[it.ID]
	}
	return out
}
