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
//  2. Cover the pairs among small inputs with Solve over the small inputs
//     alone: an A2A instance with nothing above q/2, so one reducer, the
//     equal-sized dispatch, or the cheapest design over First-Fit-Decreasing
//     bins of floor(q/n), of which BinPackPair's pairs of q/2 bins are n = 2.
//
// Step 1 packs by First-Fit Decreasing. An instance of two or more inputs
// with none above q/2 is an error: Solve serves those.
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

	// Both steps' reducers come first, so the list is sized once: one
	// reducer per residual bin, then the small inputs' own schema.
	smallItems := binpack.ItemsFromIDs(set, smallIDs)
	residualPacking, err := binpack.Pack(smallItems, q-bigSize, binpack.FirstFitDecreasing)
	if err != nil {
		return nil, fmt.Errorf("a2a: packing small inputs next to the big input: %w", err)
	}
	smallReducers, err := solveSmall(set, q, smallIDs)
	if err != nil {
		return nil, err
	}
	ms.Reducers = make([]core.Reducer, 0, len(residualPacking.Bins)+len(smallReducers))

	// Step 1: pair the big input with bins of small inputs that fit in the
	// residual capacity q - w_B.
	for _, bin := range residualPacking.Bins {
		ids := append([]int{big}, bin.Items...)
		ms.AddReducerA2A(set, ids)
	}
	ms.Reducers = append(ms.Reducers, smallReducers...)
	return ms, nil
}

// solveSmall covers the pairs among the inputs smallIDs, ascending and all at
// most q/2: Solve's reducers over them as an instance of their own, each
// member relabelled to its ID in set. The relabelling is monotone, so every
// member list stays ascending.
func solveSmall(set *core.InputSet, q core.Size, smallIDs []int) ([]core.Reducer, error) {
	sizes := make([]core.Size, len(smallIDs))
	for i, id := range smallIDs {
		sizes[i] = set.Size(id)
	}
	small, err := core.NewInputSet(sizes)
	if err != nil {
		return nil, err
	}
	ms, err := Solve(small, q)
	if err != nil {
		return nil, fmt.Errorf("a2a: covering the small inputs' pairs: %w", err)
	}
	for _, r := range ms.Reducers {
		for j, id := range r.Inputs {
			r.Inputs[j] = smallIDs[id]
		}
	}
	return ms.Reducers, nil
}
