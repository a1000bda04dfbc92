package a2a

import (
	"errors"
	"fmt"

	"repro/internal/core"
)

// ErrNotEqualSized is returned by EqualSized when the inputs do not all share
// one size.
var ErrNotEqualSized = errors.New("a2a: inputs are not all the same size")

// EqualSized implements the paper's grouping algorithm for the special case
// in which every input has the same size w. Let k = floor(q/w) be the number
// of inputs a reducer can hold. The inputs are split into g = ceil(m / floor(k/2))
// groups of at most floor(k/2) inputs, and every pair of groups is assigned
// to one reducer. Each reducer then holds at most 2*floor(k/2) <= k inputs,
// so it respects the capacity, and every pair of inputs meets either inside
// its group's reducers or in the reducer of its two groups.
//
// When m <= k a single reducer holding everything is returned; when fewer
// than two inputs fit in a reducer and m >= 2 the instance is infeasible.
func EqualSized(set *core.InputSet, q core.Size) (*core.MappingSchema, error) {
	const algorithm = "a2a/equal-sized"
	if set.Len() == 0 {
		return emptySchema(q, algorithm), nil
	}
	w := set.Size(0)
	for i := 1; i < set.Len(); i++ {
		if set.Size(i) != w {
			return nil, fmt.Errorf("%w: input %d has size %d, input 0 has size %d", ErrNotEqualSized, i, set.Size(i), w)
		}
	}
	if err := CheckFeasible(set, q); err != nil {
		return nil, err
	}
	m := set.Len()
	if m == 1 {
		return emptySchema(q, algorithm), nil
	}
	k := int(q / w) // inputs per reducer
	if k >= m {
		return singleReducer(set, q, algorithm), nil
	}
	half := k / 2
	if half < 1 {
		// k == 1: no reducer can hold two inputs, so no pair can ever meet.
		return nil, fmt.Errorf("%w: capacity %d holds only one input of size %d", core.ErrInfeasible, q, w)
	}
	// The groups are consecutive runs of `half` input IDs: group g is
	// [g*half, min((g+1)*half, m)), and m > k >= 2*half makes at least three
	// of them. A reducer is two such runs, the lower group first, so its
	// member list is written once, already ascending, and priced by count.
	numGroups := (m + half - 1) / half
	ms := &core.MappingSchema{
		Problem:   core.ProblemA2A,
		Capacity:  q,
		Algorithm: algorithm,
		Reducers:  make([]core.Reducer, 0, numGroups*(numGroups-1)/2),
	}
	for a := 0; a < numGroups; a++ {
		for b := a + 1; b < numGroups; b++ {
			bEnd := min((b+1)*half, m)
			ids := make([]int, 0, half+bEnd-b*half)
			for id := a * half; id < (a+1)*half; id++ {
				ids = append(ids, id)
			}
			for id := b * half; id < bEnd; id++ {
				ids = append(ids, id)
			}
			ms.Reducers = append(ms.Reducers, core.Reducer{Inputs: ids, Load: core.Size(len(ids)) * w})
		}
	}
	return ms, nil
}

// EqualSizedReducerCount returns the number of reducers EqualSized will use
// for m inputs of size w with capacity q, without building the schema. It
// returns 0 and an error for infeasible instances.
func EqualSizedReducerCount(m int, w, q core.Size) (int, error) {
	if m <= 1 {
		return 0, nil
	}
	if 2*w > q {
		return 0, fmt.Errorf("%w: capacity %d holds fewer than two inputs of size %d", core.ErrInfeasible, q, w)
	}
	k := int(q / w)
	if k >= m {
		return 1, nil
	}
	half := k / 2
	g := (m + half - 1) / half
	if g == 1 {
		return 1, nil
	}
	return g * (g - 1) / 2, nil
}
