package x2y

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/a2a"
	"repro/internal/core"
)

// Solve computes a mapping schema for an X2Y instance, dispatching to
// BigSmallSplit when either side has inputs larger than q/2 and otherwise to
// the grid algorithm over the best split of the capacity between the X and Y
// sides (GridWithSplit, whose first candidate is the paper's even split). It
// returns core.ErrInfeasible (wrapped) when no schema exists.
func Solve(xs, ys *core.InputSet, q core.Size) (*core.MappingSchema, error) {
	if xs.Len() == 0 || ys.Len() == 0 {
		return emptySchema(q, "x2y/solve"), nil
	}
	if err := CheckFeasible(xs, ys, q); err != nil {
		return nil, err
	}
	if xs.TotalSize() <= q-ys.TotalSize() { // compared so no sum can wrap
		return singleReducer(xs, ys, q, "x2y/single-reducer"), nil
	}
	if xs.MaxSize() > q/2 || ys.MaxSize() > q/2 {
		return BigSmallSplit(xs, ys, q)
	}
	return GridWithSplit(xs, ys, q)
}

// Greedy is the coverage-greedy baseline, a2a.GreedySplit over X then Y: it
// seeds each reducer with the first uncovered cross pair and adds the input,
// of either side, that meets the most members of the other side it has not
// met yet, until none does or none fits. Ties go to X, then to the lowest ID.
func Greedy(xs, ys *core.InputSet, q core.Size) (*core.MappingSchema, error) {
	ms := emptySchema(q, "x2y/greedy")
	if xs.Len() == 0 || ys.Len() == 0 {
		return ms, nil
	}
	if err := CheckFeasible(xs, ys, q); err != nil {
		return nil, err
	}
	ms.Reducers = a2a.GreedySplit(slices.Concat(xs.Sizes(), ys.Sizes()), xs.Len(), q)
	return ms, nil
}

// ErrTooLargeForExact is returned when the exact solver is asked to handle an
// instance with more inputs than its configured limit allows.
var ErrTooLargeForExact = errors.New("x2y: instance too large for the exact solver")

// ErrNodeBudget indicates the exact solver stopped at its node budget; the
// returned schema is the best found so far (valid but possibly suboptimal).
var ErrNodeBudget = errors.New("x2y: exact solver node budget exhausted")

// ExactOptions configures Exact as it does a2a.Exact, with MaxInputs capping
// |X| + |Y|.
type ExactOptions = a2a.ExactOptions

// Exact computes a minimum-reducer X2Y mapping schema by branch and bound,
// a2a.ExactSplit over X then Y: it takes each side largest first (by
// descending size, ties by ascending ID), branches on the ways to cover the
// first uncovered cross pair in that order — the largest X input with the
// largest Y input first — prunes against Solve's schema as the incumbent, and
// stops early once it meets LowerBounds. The schema uses the caller's IDs.
func Exact(xs, ys *core.InputSet, q core.Size, opts ExactOptions) (*core.MappingSchema, error) {
	const algorithm = "x2y/exact"
	if opts.MaxInputs == 0 {
		opts.MaxInputs = 12
	}
	if opts.MaxNodes == 0 {
		opts.MaxNodes = 2_000_000
	}
	if limit := min(opts.MaxInputs, a2a.MaxExactInputs); xs.Len()+ys.Len() > limit {
		return nil, fmt.Errorf("%w: %d inputs > limit %d", ErrTooLargeForExact, xs.Len()+ys.Len(), limit)
	}
	if xs.Len() == 0 || ys.Len() == 0 {
		return emptySchema(q, algorithm), nil
	}
	if err := CheckFeasible(xs, ys, q); err != nil {
		return nil, err
	}
	if xs.TotalSize() <= q-ys.TotalSize() {
		return singleReducer(xs, ys, q, algorithm), nil
	}
	incumbent, err := Solve(xs, ys, q)
	if err != nil {
		return nil, err
	}
	ms := emptySchema(q, algorithm)
	var exhausted bool
	ms.Reducers, _, exhausted = a2a.ExactSplit(slices.Concat(xs.Sizes(), ys.Sizes()), xs.Len(), q,
		incumbent.Reducers, LowerBounds(xs, ys, q).Reducers, opts.MaxNodes)
	if exhausted {
		return ms, ErrNodeBudget
	}
	return ms, nil
}
