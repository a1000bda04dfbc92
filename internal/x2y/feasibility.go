package x2y

import (
	"fmt"

	"repro/internal/core"
)

// CheckFeasible reports whether any valid X2Y mapping schema exists: every
// cross pair must fit in one reducer, which holds exactly when the largest X
// input plus the largest Y input is at most q. Empty sides are trivially
// feasible (there is no pair to cover).
func CheckFeasible(xs, ys *core.InputSet, q core.Size) error {
	if xs == nil || ys == nil || xs.Len() == 0 || ys.Len() == 0 {
		return nil
	}
	if xs.MaxSize() > q-ys.MaxSize() {
		return fmt.Errorf("%w: largest X input (%d) plus largest Y input (%d) exceeds q=%d",
			core.ErrInfeasible, xs.MaxSize(), ys.MaxSize(), q)
	}
	return nil
}

// singleReducer assigns everything to one reducer; valid when the combined
// total size fits in q.
func singleReducer(xs, ys *core.InputSet, q core.Size, algorithm string) *core.MappingSchema {
	ms := &core.MappingSchema{Problem: core.ProblemX2Y, Capacity: q, Algorithm: algorithm}
	xIDs := make([]int, xs.Len())
	for i := range xIDs {
		xIDs[i] = i
	}
	yIDs := make([]int, ys.Len())
	for i := range yIDs {
		yIDs[i] = i
	}
	ms.AddReducerX2Y(xs, ys, xIDs, yIDs)
	return ms
}

// emptySchema is the valid schema when one side is empty.
func emptySchema(q core.Size, algorithm string) *core.MappingSchema {
	return &core.MappingSchema{Problem: core.ProblemX2Y, Capacity: q, Algorithm: algorithm}
}
