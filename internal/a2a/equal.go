package a2a

import (
	"errors"
	"fmt"
	"iter"

	"repro/internal/core"
)

// ErrNotEqualSized is returned by EqualSized and AffinePlane when the inputs
// do not all share one size.
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
	k, done, err := equalSizedInstance(set, q, algorithm)
	if k == 0 {
		return done, err
	}
	// The groups are consecutive runs of `half` input IDs, and m > k >= 2*half
	// makes at least three of them.
	half := k / 2
	g := (set.Len() + half - 1) / half
	return binsOnBlocks(set, q, algorithm, half, g*(g-1)/2, groupPairs(g)), nil
}

// groupPairs yields every pair of g groups, the lower group first.
func groupPairs(g int) iter.Seq[[]int] {
	return func(yield func([]int) bool) {
		pair := make([]int, 2)
		for a := 0; a < g; a++ {
			for b := a + 1; b < g; b++ {
				pair[0], pair[1] = a, b
				if !yield(pair) {
					return
				}
			}
		}
	}
}

// equalSizedInstance checks what EqualSized and AffinePlane both require —
// one size w for every input, and two inputs fitting q — and settles the
// instances that need no design: it returns the finished schema (or the
// error) with k = 0 for those, and k = floor(q/w) for the rest, where
// 2 <= k < m.
func equalSizedInstance(set *core.InputSet, q core.Size, algorithm string) (k int, done *core.MappingSchema, err error) {
	m := set.Len()
	if m == 0 {
		return 0, emptySchema(q, algorithm), nil
	}
	w := set.Size(0)
	for i := 1; i < m; i++ {
		if set.Size(i) != w {
			return 0, nil, fmt.Errorf("%w: input %d has size %d, input 0 has size %d", ErrNotEqualSized, i, set.Size(i), w)
		}
	}
	if err := CheckFeasible(set, q); err != nil {
		return 0, nil, err
	}
	if m == 1 {
		return 0, emptySchema(q, algorithm), nil
	}
	if k = int(q / w); k >= m {
		return 0, singleReducer(set, q, algorithm), nil
	}
	return k, nil, nil
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
	reducers, _ := equalSizedPrice(m, k)
	return reducers, nil
}

// equalSizedPrice is what EqualSized builds for m > k >= 2 inputs at k per
// reducer: C(g, 2) reducers, and g-1 copies of every input.
func equalSizedPrice(m, k int) (reducers, copies int) {
	half := k / 2
	g := (m + half - 1) / half
	return g * (g - 1) / 2, m * (g - 1)
}
