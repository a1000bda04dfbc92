package a2a

import (
	"repro/internal/binpack"
	"repro/internal/core"
)

// Options configures SolveWithOptions.
type Options struct {
	// Policy is the bin-packing heuristic of BinPackPair and BigSmallSplit.
	// The zero value is binpack.FirstFitDecreasing, the paper's; the planner
	// also races the other two.
	Policy binpack.Policy
}

// Solve computes a mapping schema for an A2A instance, dispatching to the
// appropriate algorithm: when every input has the same size, the equal-sized
// grouping algorithm or the affine plane, whichever prices lower;
// BigSmallSplit when an input exceeds q/2, and BinPackPair otherwise. It
// returns core.ErrInfeasible (wrapped) when no schema exists.
func Solve(set *core.InputSet, q core.Size) (*core.MappingSchema, error) {
	return SolveWithOptions(set, q, Options{})
}

// SolveWithOptions is Solve with explicit options.
func SolveWithOptions(set *core.InputSet, q core.Size, opts Options) (*core.MappingSchema, error) {
	if err := CheckFeasible(set, q); err != nil {
		return nil, err
	}
	if set.Len() <= 1 {
		return emptySchema(q, "a2a/solve"), nil
	}
	if set.TotalSize() <= q {
		return singleReducer(set, q, "a2a/single-reducer"), nil
	}
	primary, err := solvePrimary(set, q, opts)
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
func solvePrimary(set *core.InputSet, q core.Size, opts Options) (*core.MappingSchema, error) {
	if set.MinSize() == set.MaxSize() {
		return solveEqualSized(set, q)
	}
	if set.MaxSize() > q/2 {
		return BigSmallSplit(set, q, opts.Policy)
	}
	return BinPackPair(set, q, opts.Policy)
}

// solveEqualSized builds AffinePlane where its count beats EqualSized's —
// fewer reducers, or as many with less communication — and ships no more
// copies; EqualSized everywhere else. Both are priced from m and k alone and
// only the winner is built, so neither the reducer count nor the
// communication of the equal-sized dispatch is ever worse than EqualSized's.
func solveEqualSized(set *core.InputSet, q core.Size) (*core.MappingSchema, error) {
	m, k := set.Len(), int(q/set.Size(0))
	if k >= 2 && k < m {
		if pl, ok := bestPlane(m, k); ok {
			reducers, copies := equalSizedPrice(m, k)
			if pl.copies <= copies && (pl.reducers < reducers || pl.reducers == reducers && pl.copies < copies) {
				return AffinePlane(set, q)
			}
		}
	}
	return EqualSized(set, q)
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
