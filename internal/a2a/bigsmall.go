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
//  1. If there is no big input, fall back to BinPackPair.
//  2. Otherwise let B be the unique big input. Pack the remaining ("small")
//     inputs into bins of capacity q - w_B and create one reducer {B} ∪ bin
//     per bin; this covers every pair that involves B.
//  3. Cover the pairs among small inputs with BinPackPair (bins of size q/2,
//     every pair of bins in one reducer).
//
// The policy selects the bin-packing heuristic used in both packing steps.
func BigSmallSplit(set *core.InputSet, q core.Size, policy binpack.Policy) (*core.MappingSchema, error) {
	algorithm := "a2a/big-small-split/" + policy.String()
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
		ms, err := BinPackPair(set, q, policy)
		if err != nil {
			return nil, err
		}
		ms.Algorithm = algorithm
		return ms, nil
	}
	if len(bigIDs) > 1 {
		// Unreachable for feasible instances, but guard against callers that
		// skipped CheckFeasible semantics (e.g. q/2 rounding corner cases
		// where two inputs of size exactly q/2+? both count as big).
		return nil, fmt.Errorf("%w: %d inputs exceed q/2; no two of them can share a reducer", core.ErrInfeasible, len(bigIDs))
	}
	big := bigIDs[0]
	bigSize := set.Size(big)

	ms := &core.MappingSchema{Problem: core.ProblemA2A, Capacity: q, Algorithm: algorithm}

	if len(smallIDs) == 0 {
		return ms, nil // a single (big) input: nothing to cover
	}

	// Both packings come first, so the reducer list is sized once: one
	// reducer per residual bin, one per pair of q/2 bins.
	smallItems := binpack.ItemsFromIDs(set, smallIDs)
	residualPacking, err := binpack.Pack(smallItems, q-bigSize, policy)
	if err != nil {
		return nil, fmt.Errorf("a2a: packing small inputs next to the big input: %w", err)
	}
	var halfBins []binpack.Bin
	if len(smallIDs) >= 2 {
		halfPacking, err := binpack.Pack(smallItems, q/2, policy)
		if err != nil {
			return nil, fmt.Errorf("a2a: packing small inputs into q/2 bins: %w", err)
		}
		halfBins = halfPacking.Bins
	}
	ms.Reducers = make([]core.Reducer, 0, len(residualPacking.Bins)+BinPackPairReducerCount(len(halfBins)))

	// Step 2: pair the big input with bins of small inputs that fit in the
	// residual capacity q - w_B.
	for _, bin := range residualPacking.Bins {
		ids := append([]int{big}, bin.Items...)
		ms.AddReducerA2A(set, ids)
	}

	// Step 3: cover the small-small pairs.
	if len(halfBins) > 0 {
		ms.Reducers = append(ms.Reducers, pairBins(set, q, algorithm, halfBins).Reducers...)
	}
	return ms, nil
}
