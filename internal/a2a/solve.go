package a2a

import "repro/internal/core"

// Solve computes a mapping schema for an A2A instance, dispatching to the
// appropriate algorithm. When every input has the same size it builds the
// cheapest of the equal-sized grouping algorithm, the affine plane, the plane
// plus a remainder and, at three inputs per reducer, the Steiner-triple cover.
// When an input exceeds q/2 it builds BigSmallSplit, which serves the small
// inputs' own pairs through Solve again. Otherwise it prices the
// n-bin designs over FFD bins of floor(q/n), of which n = 2 is BinPackPair's
// pairs of q/2 bins, and builds the cheapest; n >= 3 needs every input to be
// at most q/3. It returns core.ErrInfeasible (wrapped) when no schema exists.
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
	if err != nil || set.MinSize() == set.MaxSize() {
		return primary, err // the equal-sized dispatch prices the triple cover itself
	}
	// In the medium-sized-input regime (inputs larger than q/4, so q/2 bins
	// hold one each, but any three still fitting together) the bin-packing
	// and grouping constructions degenerate to one pair per reducer; the
	// Steiner-triple cover packs three inputs per reducer there. Keep the
	// cheaper schema — and build the cover only when its reducer count,
	// known from m alone, says it can be (outside the medium regime it is
	// C(m,2)/3 reducers against a handful). TripleCover refuses an instance
	// whose three largest inputs do not fit.
	if set.MaxSize() > q/4 && tripleCoverReducers(set.Len()) <= primary.NumReducers() {
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
	return solveBinned(set, q)
}

// solveEqualSized builds what equalSizedDesign prices for the set: so
// neither the reducer count nor the communication of the equal-sized dispatch
// is ever worse than EqualSized's, and no full plane is cheaper.
func solveEqualSized(set *core.InputSet, q core.Size) (*core.MappingSchema, error) {
	m, k := set.Len(), int(q/set.Size(0))
	if k < 2 || k >= m {
		return EqualSized(set, q)
	}
	return buildEqualSized(set, q, equalSizedDesign(m, k))
}

// equalDesign is a design the equal-sized dispatch lays m > k >= 2 equal
// inputs on at k per reducer, with its price: EqualSized's groups or a plane
// (plane, of order 0 for the groups), the plane plus a remainder (rem, when
// its plane's order is set) or the Steiner-triple cover (triple).
type equalDesign struct {
	price
	plane  planePrice
	rem    remainderPrice
	triple bool
}

// equalSizedDesign prices the equal-sized dispatch for m > k >= 2 inputs at k
// per reducer, from m and k alone: the cheapest of EqualSized, the best full
// plane and the best plane plus a remainder — fewest reducers, then fewest
// copies — among those that ship no more copies than EqualSized; and at
// k = 3, where equal inputs are above q/4 and Solve's triple-cover check
// applies, the triple cover where it is cheaper still. buildEqualSized builds
// exactly what it prices, so the equal-sized dispatch and the designs over
// bins (solveBinned) choose and build through these two functions alone.
func equalSizedDesign(m, k int) equalDesign {
	best := groupsOrPlane(m, k)
	d := equalDesign{price: best.price, plane: best}
	_, groupCopies := equalSizedPrice(m, k)
	if pr, ok := bestPlaneRemainder(m, k, groupCopies); ok && pr.below(d.price) {
		d = equalDesign{price: pr.price, rem: pr}
	}
	if k == 3 {
		if tc := (price{tripleCoverReducers(m), tripleCoverCopies(m)}); tc.below(d.price) {
			d = equalDesign{price: tc, triple: true}
		}
	}
	return d
}

// buildEqualSized builds the design d, priced by equalSizedDesign, for the
// equal inputs of set.
func buildEqualSized(set *core.InputSet, q core.Size, d equalDesign) (*core.MappingSchema, error) {
	switch {
	case d.triple:
		return TripleCover(set, q)
	case d.rem.plane.n > 0:
		return planeRemainder(set, q, d.rem)
	default:
		return groupsOrPlaneSchema(set, q, d.plane)
	}
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
