package a2a

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/binpack"
	"repro/internal/core"
)

// ErrHasBigInputs is returned by BinPackPair when some input is larger than
// q/2; such instances must be handled by BigSmallSplit (or Solve, which
// dispatches automatically).
var ErrHasBigInputs = errors.New("a2a: instance has inputs larger than q/2; use BigSmallSplit")

const binPackPairAlgorithm = "a2a/bin-pack-pair/first-fit-decreasing"

// BinPackPair is the paper's bin-packing-based approximation for
// different-sized inputs that are all at most q/2. The inputs are packed into
// bins of capacity floor(q/2) by First-Fit Decreasing; each pair
// of bins is then assigned to one reducer. Every reducer holds two bins of
// load at most q/2 each, so it respects the capacity; every pair of inputs is
// assigned together either because the two inputs share a bin (and the bin
// appears in some reducer) or in the reducer of their two bins.
//
// If the packing uses b bins the schema uses b(b-1)/2 reducers (one reducer
// when b == 1).
func BinPackPair(set *core.InputSet, q core.Size) (*core.MappingSchema, error) {
	if set.Len() == 0 {
		return emptySchema(q, binPackPairAlgorithm), nil
	}
	if err := CheckFeasible(set, q); err != nil {
		return nil, err
	}
	if set.Len() == 1 {
		return emptySchema(q, binPackPairAlgorithm), nil
	}
	half := q / 2
	if set.MaxSize() > half {
		return nil, fmt.Errorf("%w: max input size %d > q/2 = %d", ErrHasBigInputs, set.MaxSize(), half)
	}
	return packPairs(set, q, binpack.ItemsFromInputSet(set))
}

// packPairs builds BinPackPair's schema for the set's items, packing them at
// q/2; items already in First-Fit Decreasing's order are packed as given.
func packPairs(set *core.InputSet, q core.Size, items []binpack.Item) (*core.MappingSchema, error) {
	packing, err := binpack.Pack(items, q/2, binpack.FirstFitDecreasing)
	if err != nil {
		return nil, fmt.Errorf("a2a: packing inputs into q/2 bins: %w", err)
	}
	return pairBins(set, q, binPackPairAlgorithm, packing.Bins), nil
}

// pairBins assembles the schema that assigns every pair of the given bins to
// one reducer (or a single reducer if there is only one bin). Each bin is
// sorted and priced once up front; a reducer is then a linear merge of its
// two bins with the loads pre-summed, instead of a per-reducer re-sort and
// size recomputation — with b bins that turns b(b-1)/2 sorts into b.
func pairBins(set *core.InputSet, q core.Size, algorithm string, bins []binpack.Bin) *core.MappingSchema {
	ms := &core.MappingSchema{Problem: core.ProblemA2A, Capacity: q, Algorithm: algorithm}
	if len(bins) == 1 {
		ms.AddReducerA2A(set, bins[0].Items)
		return ms
	}
	sorted := make([][]int, len(bins))
	loads := make([]core.Size, len(bins))
	for i, bin := range bins {
		ids := append([]int(nil), bin.Items...)
		sort.Ints(ids)
		sorted[i] = ids
		for _, id := range ids {
			loads[i] += set.Size(id)
		}
	}
	ms.Reducers = make([]core.Reducer, 0, len(bins)*(len(bins)-1)/2)
	for a := 0; a < len(bins); a++ {
		for b := a + 1; b < len(bins); b++ {
			ms.Reducers = append(ms.Reducers, core.Reducer{
				Inputs: mergeSortedIDs(sorted[a], sorted[b]),
				Load:   loads[a] + loads[b],
			})
		}
	}
	return ms
}

// mergeSortedIDs merges two ascending, disjoint ID slices into a fresh
// ascending slice.
func mergeSortedIDs(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}
