// Package x2y implements mapping-schema algorithms for the X-to-Y (X2Y)
// problem of "Assignment of Different-Sized Inputs in MapReduce": given two
// disjoint input sets X (sizes w_1..w_m) and Y (sizes w'_1..w'_n) and a
// reducer capacity q, assign inputs to reducers so that every pair with one
// input from X and one from Y shares at least one reducer, no reducer
// receives more than q, and as few reducers (and as little communication) as
// possible are used. Skew join of X(A,B) ⋈ Y(B,C) on a heavy hitter and outer
// products are the motivating applications.
//
// Like the A2A problem, X2Y is NP-complete, so the package provides:
//
//   - GridWithSplit: the bin-packing-based approximation — pack X into bins
//     of size q/2 and Y into bins of size q/2 by First-Fit Decreasing, as the
//     paper states it, and assign every (X-bin, Y-bin) pair to one reducer —
//     with the capacity split between the two sides
//     optimised: the even split is the first candidate, every candidate is
//     packed and priced from the two packings alone (b_x*b_y reducers,
//     b_y*ΣX + b_x*ΣY communication), and only the winner's reducers are
//     built.
//   - BigSmallSplit: the extension for inputs larger than q/2, which can only
//     appear on one side of a feasible instance; each big input is paired
//     with bins of the opposite side packed into its residual capacity.
//   - Greedy: a coverage-greedy baseline.
//   - Exact: a branch-and-bound solver for small instances.
//   - Lower bounds on reducers and communication.
//
// Solve dispatches automatically.
package x2y
