package x2y

import (
	"fmt"

	"repro/internal/binpack"
	"repro/internal/core"
)

// BigSmallSplit handles X2Y instances with "big" inputs (size > q/2). In a
// feasible instance big inputs can only occur on one side: a big X input and
// a big Y input could never share a reducer, yet they must. The algorithm is:
//
//  1. Let the big inputs be on side S and the other side be T (every T
//     input then has size <= q - max_S <= q/2). For each big input s in S,
//     pack all of T into bins of capacity q - w_s and create one reducer
//     {s} ∪ bin per bin; this covers every pair involving s.
//  2. Cover the pairs between the small inputs of S and T with GridWithSplit.
//
// Unlike the A2A problem, several big inputs may exist (they never have to
// meet each other), which is exactly the skew-join situation: a handful of
// heavy hitters on one side, many small inputs on the other. Every packing is
// First-Fit Decreasing. An instance with no input above q/2 on either side is
// an error: Solve serves those.
func BigSmallSplit(xs, ys *core.InputSet, q core.Size) (*core.MappingSchema, error) {
	const algorithm = "x2y/big-small-split/first-fit-decreasing"
	if xs.Len() == 0 || ys.Len() == 0 {
		return emptySchema(q, algorithm), nil
	}
	if err := CheckFeasible(xs, ys, q); err != nil {
		return nil, err
	}
	bigX, smallX := xs.SplitBySize(q / 2)
	bigY, smallY := ys.SplitBySize(q / 2)
	if len(bigX) == 0 && len(bigY) == 0 {
		return nil, fmt.Errorf("x2y: BigSmallSplit needs an input larger than q/2 = %d; use Solve", q/2)
	}

	// Normalise so the big inputs are on the X side; flip back at the end.
	// CheckFeasible leaves them on one side only.
	flipped := false
	if len(bigY) > 0 {
		xs, ys = ys, xs
		bigX, smallX = bigY, smallY
		flipped = true
	}

	ms := &core.MappingSchema{Problem: core.ProblemX2Y, Capacity: q, Algorithm: algorithm}
	// Every big input packs the same Y items, only at its own capacity: put
	// them in packing order once.
	yItems := packOrderItems(ys)

	// Step 1: every big X input meets all of Y via residual-capacity bins.
	for _, bx := range bigX {
		residual := q - xs.Size(bx)
		pack, err := binpack.Pack(yItems, residual, binpack.FirstFitDecreasing)
		if err != nil {
			return nil, fmt.Errorf("x2y: packing the opposite side next to big input %d: %w", bx, err)
		}
		for _, bin := range pack.Bins {
			addReducer(ms, xs, ys, []int{bx}, bin.Items, flipped)
		}
	}

	// Step 2: small X inputs meet all of Y via the grid.
	if len(smallX) > 0 {
		smallSet, err := subset(xs, smallX)
		if err != nil {
			return nil, err
		}
		grid, err := GridWithSplit(smallSet, ys, q)
		if err != nil {
			return nil, fmt.Errorf("x2y: grid over the small inputs: %w", err)
		}
		for _, r := range grid.Reducers {
			// Translate the subset's dense IDs back to the original X IDs.
			orig := make([]int, len(r.XInputs))
			for i, id := range r.XInputs {
				orig[i] = smallX[id]
			}
			addReducer(ms, xs, ys, orig, r.YInputs, flipped)
		}
	}
	return ms, nil
}

// addReducer adds a reducer, swapping the sides back when the instance was
// flipped so that big inputs sat on the X side during construction.
func addReducer(ms *core.MappingSchema, xs, ys *core.InputSet, xIDs, yIDs []int, flipped bool) {
	if flipped {
		ms.AddReducerX2Y(ys, xs, yIDs, xIDs)
		return
	}
	ms.AddReducerX2Y(xs, ys, xIDs, yIDs)
}

// subset builds an InputSet from the identified inputs of another set. The
// result uses dense IDs 0..len(ids)-1 in the order of ids.
func subset(set *core.InputSet, ids []int) (*core.InputSet, error) {
	sizes := make([]core.Size, len(ids))
	for i, id := range ids {
		sizes[i] = set.Size(id)
	}
	return core.NewInputSet(sizes)
}
