package a2a

import "repro/internal/core"

// Solve computes a mapping schema for an A2A instance, dispatching to the
// appropriate algorithm: when every input has the same size, the equal-sized
// grouping algorithm, the affine plane or the plane plus a remainder,
// whichever prices lowest;
// BigSmallSplit when an input exceeds q/2, and BinPackPair otherwise. It
// returns core.ErrInfeasible (wrapped) when no schema exists.
func Solve(set *core.InputSet, q core.Size) (*core.MappingSchema, error) {
	if err := CheckFeasible(set, q); err != nil {
		return nil, err
	}
	if set.Len() <= 1 {
		return emptySchema(q, "a2a/solve"), nil
	}
	if set.TotalSize() <= q {
		return singleReducer(set, q, "a2a/single-reducer"), nil
	}
	primary, err := solvePrimary(set, q)
	if err != nil {
		return nil, err
	}
	// In the medium-sized-input regime (inputs larger than q/4 but any three
	// still fitting together) the bin-packing and grouping constructions
	// degenerate to one pair per reducer; the Steiner-triple cover packs
	// three inputs per reducer there. Keep the cheaper schema — and build the
	// cover only when its reducer count, known from m alone, says it can be
	// (outside the medium regime it is C(m,2)/3 reducers against a handful).
	if usable, profitable := TripleCoverApplicable(set, q); usable && profitable &&
		tripleCoverReducers(set.Len()) <= primary.NumReducers() {
		triple, err := TripleCover(set, q)
		if err == nil && betterSchema(triple, primary, set) {
			return triple, nil
		}
	}
	return primary, nil
}

// solvePrimary runs the dispatch between the paper's constructive algorithms.
func solvePrimary(set *core.InputSet, q core.Size) (*core.MappingSchema, error) {
	if set.MinSize() == set.MaxSize() {
		return solveEqualSized(set, q)
	}
	if set.MaxSize() > q/2 {
		return BigSmallSplit(set, q)
	}
	return BinPackPair(set, q)
}

// solveEqualSized builds the cheapest of EqualSized, the best full plane and
// the best plane plus a remainder — fewest reducers, then fewest copies —
// among those that ship no more copies than EqualSized. All three are priced
// from m and k alone and only the winner is built, so neither the reducer
// count nor the communication of the equal-sized dispatch is ever worse than
// EqualSized's, and no full plane is cheaper.
func solveEqualSized(set *core.InputSet, q core.Size) (*core.MappingSchema, error) {
	m, k := set.Len(), int(q/set.Size(0))
	if k < 2 || k >= m {
		return EqualSized(set, q)
	}
	best := groupsOrPlane(m, k)
	_, groupCopies := equalSizedPrice(m, k)
	if pr, ok := bestPlaneRemainder(m, k, groupCopies); ok && pr.below(best.price) {
		return planeRemainder(set, q, pr)
	}
	return groupsOrPlaneSchema(set, q, best)
}

// groupsOrPlane prices the equal-sized dispatch without the remainder design
// for m >= 2 inputs at k >= 2 per reducer: one reducer when they all fit, and
// otherwise EqualSized's groups, or the cheapest plane where it is below them
// and ships no more copies.
func groupsOrPlane(m, k int) planePrice {
	if m <= k {
		return planePrice{price: price{1, m}}
	}
	reducers, copies := equalSizedPrice(m, k)
	groups := planePrice{price: price{reducers, copies}}
	if pl, ok := bestPlane(m, k); ok && pl.copies <= copies && pl.below(groups.price) {
		return pl
	}
	return groups
}

// groupsOrPlaneSchema builds what groupsOrPlane priced for set.
func groupsOrPlaneSchema(set *core.InputSet, q core.Size, pr planePrice) (*core.MappingSchema, error) {
	if pr.n == 0 {
		return EqualSized(set, q)
	}
	return planeSchema(set, q, pr), nil
}

// betterSchema reports whether a is strictly better than b: fewer reducers,
// or the same number with less communication.
func betterSchema(a, b *core.MappingSchema, set *core.InputSet) bool {
	ca := core.SchemaCost(a, set.TotalSize())
	cb := core.SchemaCost(b, set.TotalSize())
	if ca.Reducers != cb.Reducers {
		return ca.Reducers < cb.Reducers
	}
	return ca.Communication < cb.Communication
}
