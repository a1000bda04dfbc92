package a2a

import (
	"fmt"

	"repro/internal/core"
)

// CheckFeasible reports whether any valid A2A mapping schema exists for the
// instance. A schema exists exactly when every pair of inputs fits together
// in one reducer, i.e. when the two largest inputs sum to at most q (or when
// there are fewer than two inputs).
func CheckFeasible(set *core.InputSet, q core.Size) error {
	if set.Len() <= 1 {
		if set.Len() == 1 && set.MaxSize() > q {
			return fmt.Errorf("%w: the only input has size %d > q=%d", core.ErrInfeasible, set.MaxSize(), q)
		}
		return nil
	}
	// Find the two largest sizes.
	var first, second core.Size
	for id := range set.Len() {
		if w := set.Size(id); w > first {
			second = first
			first = w
		} else if w > second {
			second = w
		}
	}
	if first+second > q {
		return fmt.Errorf("%w: the two largest inputs (%d and %d) exceed q=%d together", core.ErrInfeasible, first, second, q)
	}
	return nil
}

// singleReducer builds the trivial schema that assigns every input to one
// reducer; valid whenever the total size fits in q.
func singleReducer(set *core.InputSet, q core.Size, algorithm string) *core.MappingSchema {
	ms := &core.MappingSchema{Problem: core.ProblemA2A, Capacity: q, Algorithm: algorithm}
	all := make([]int, set.Len())
	for i := range all {
		all[i] = i
	}
	ms.AddReducerA2A(set, all)
	return ms
}

// emptySchema is the valid schema for instances with at most one input: no
// pair needs covering, so no reducer is needed.
func emptySchema(q core.Size, algorithm string) *core.MappingSchema {
	return &core.MappingSchema{Problem: core.ProblemA2A, Capacity: q, Algorithm: algorithm}
}
