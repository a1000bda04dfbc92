package a2a

import "repro/internal/core"

// PlaneRemainder builds the plane plus a remainder that the equal-sized
// dispatch prices for m equal inputs at q, whether or not it beats the other
// designs, and returns its priced reducers and copies beside it. ok is false
// where no such design ships at most EqualSized's copies.
func PlaneRemainder(set *core.InputSet, q core.Size) (ms *core.MappingSchema, reducers, copies int, ok bool, err error) {
	m, k := set.Len(), int(q/set.Size(0))
	if k < 2 || k >= m {
		return nil, 0, 0, false, nil
	}
	_, groupCopies := equalSizedPrice(m, k)
	pr, ok := bestPlaneRemainder(m, k, groupCopies)
	if !ok {
		return nil, 0, 0, false, nil
	}
	ms, err = planeRemainder(set, q, pr)
	return ms, pr.reducers, pr.copies, true, err
}

// ExactSplitInOrder is ExactSplit taking the inputs in the caller's order,
// as the search did before it took them largest first.
func ExactSplitInOrder(sizes []core.Size, split int, q core.Size, incumbent []core.Reducer, lower, maxNodes int) ([]core.Reducer, int, bool) {
	order := make([]int, len(sizes))
	for id := range order {
		order[id] = id
	}
	return exactSplitIn(order, sizes, split, q, incumbent, lower, maxNodes)
}
