// Package a2a implements mapping-schema algorithms for the All-to-All (A2A)
// problem of "Assignment of Different-Sized Inputs in MapReduce": given m
// inputs with sizes w_1..w_m and a reducer capacity q, assign inputs to
// reducers so that every pair of inputs shares at least one reducer and no
// reducer receives more than q total input, using as few reducers (and hence
// as little map-to-reduce communication) as possible.
//
// The problem is NP-complete, so the package offers:
//
//   - EqualSized: the paper's near-optimal grouping algorithm for the special
//     case where every input has the same size.
//   - BinPackPair: the bin-packing-based approximation — pack inputs into
//     bins of size q/2 with a configurable bin-packing policy, then assign
//     every pair of bins to one reducer.
//   - BigSmallSplit: the extension for inputs larger than q/2 ("big" inputs),
//     which pairs big inputs directly and packs the small inputs into the
//     residual capacity next to each big input.
//   - TripleCover: a Steiner-triple cover for medium inputs (above q/4, any
//     three still fitting), where the bin-packing constructions degenerate
//     to one pair per reducer.
//   - Greedy: a coverage-greedy heuristic used as a baseline.
//   - Exact: a branch-and-bound solver for small instances (at most 64
//     inputs: its state is one machine word per reducer and per input), used
//     to measure approximation ratios.
//   - Lower bounds on the number of reducers and on the communication cost,
//     against which all of the above are reported.
//
// Solve picks the appropriate algorithm for an instance automatically.
//
// Planning cost is the paper's trade-off, so the algorithms decide on counts
// and words and materialise one schema, once: Solve prices TripleCover from
// m alone and builds it only where it can win, Greedy keeps each candidate's
// gain up to date instead of recounting it, Exact applies and undoes a branch
// by mask without allocating. Each keeps the output of the plain
// formulation, which survives in the package's tests as the reference.
package a2a
