package x2y

import "repro/internal/core"

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
	if xs.TotalSize()+ys.TotalSize() <= q {
		return singleReducer(xs, ys, q, "x2y/single-reducer"), nil
	}
	if xs.MaxSize() > q/2 || ys.MaxSize() > q/2 {
		return BigSmallSplit(xs, ys, q)
	}
	return GridWithSplit(xs, ys, q)
}
