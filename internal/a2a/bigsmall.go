package a2a

import (
	"fmt"

	"repro/internal/binpack"
	"repro/internal/core"
)

// BigSmallSplit handles A2A instances that contain a "big" input, i.e. an
// input larger than q/2. In any feasible A2A instance at most one input can
// exceed q/2 (two such inputs could never share a reducer), so the algorithm
// is:
//
//  1. Let B be the unique big input. Pack the remaining ("small") inputs
//     into bins of capacity q - w_B and create one reducer {B} ∪ bin per
//     bin; this covers every pair that involves B.
//  2. Cover the pairs among small inputs with BinPackPair (bins of size q/2,
//     every pair of bins in one reducer).
//
// Both packing steps use First-Fit Decreasing. An instance of two or more
// inputs with none above q/2 is an error: Solve serves those.
func BigSmallSplit(set *core.InputSet, q core.Size) (*core.MappingSchema, error) {
	const algorithm = "a2a/big-small-split/first-fit-decreasing"
	if set.Len() == 0 {
		return emptySchema(q, algorithm), nil
	}
	if err := CheckFeasible(set, q); err != nil {
		return nil, err
	}
	if set.Len() == 1 {
		return emptySchema(q, algorithm), nil
	}
	bigIDs, smallIDs := set.SplitBySize(q / 2)
	if len(bigIDs) == 0 {
		return nil, fmt.Errorf("a2a: BigSmallSplit needs an input larger than q/2 = %d; use Solve", q/2)
	}
	// CheckFeasible leaves exactly one big input, and at least one small one.
	big := bigIDs[0]
	bigSize := set.Size(big)
	ms := &core.MappingSchema{Problem: core.ProblemA2A, Capacity: q, Algorithm: algorithm}

	// Both packings come first, so the reducer list is sized once: one
	// reducer per residual bin, one per pair of q/2 bins.
	smallItems := binpack.ItemsFromIDs(set, smallIDs)
	residualPacking, err := binpack.Pack(smallItems, q-bigSize, binpack.FirstFitDecreasing)
	if err != nil {
		return nil, fmt.Errorf("a2a: packing small inputs next to the big input: %w", err)
	}
	var pairs []core.Reducer // step 2: the small-small pairs
	if len(smallIDs) >= 2 {
		halfPacking, err := binpack.Pack(smallItems, q/2, binpack.FirstFitDecreasing)
		if err != nil {
			return nil, fmt.Errorf("a2a: packing small inputs into q/2 bins: %w", err)
		}
		pairs = pairBins(set, q, algorithm, halfPacking.Bins).Reducers
	}
	ms.Reducers = make([]core.Reducer, 0, len(residualPacking.Bins)+len(pairs))

	// Step 1: pair the big input with bins of small inputs that fit in the
	// residual capacity q - w_B.
	for _, bin := range residualPacking.Bins {
		ids := append([]int{big}, bin.Items...)
		ms.AddReducerA2A(set, ids)
	}
	ms.Reducers = append(ms.Reducers, pairs...)
	return ms, nil
}
