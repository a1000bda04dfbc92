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
//   - AffinePlane: the same special case from a block design. With k inputs
//     per reducer, bins of s = floor(k/n) consecutive inputs are the points
//     of the affine plane AG(2, n) and each line with two or more real bins
//     is a reducer, so every input is shipped n+1 times instead of the g-1
//     of EqualSized's g groups of k/2. n is a prime power up to 64 — 2, 3,
//     4, 5, 7, 8, 9, 11, 13, 16, … 61, 64 — over a table-driven GF(n) whose
//     multiplication comes from log/antilog tables of a primitive
//     polynomial found by search. Prime orders alone are not enough: for
//     1,500 inputs at k = 100 the best prime, 19, needs 377 reducers and 20
//     copies where 16 needs 272 and 17.
//   - BinPackPair: the bin-packing-based approximation — pack inputs into
//     bins of size q/2 by First-Fit Decreasing, as the paper states it, then
//     assign every pair of bins to one reducer.
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
// EqualSized, TripleCover and AffinePlane are one builder (binsOnBlocks) fed
// three designs — every pair of groups, Bose triples over single inputs, the
// lines of a plane — which restricts each block to its real points and emits
// its members ascending.
//
// Solve picks the appropriate algorithm for an instance automatically. On
// equal sizes it prices EqualSized and every order of the plane from m and k
// alone, and builds the plane of the cheapest order only when it has fewer
// reducers than EqualSized, or as many with less communication, and never
// more communication; so on no instance is either count worse than
// EqualSized's. Where the bins outnumber the points of every plane, or k is
// too small for the larger orders, EqualSized stays.
//
// Planning cost is the paper's trade-off, so the algorithms decide on counts
// and words and materialise one schema, once: Solve prices TripleCover from
// m alone and builds it only where it can win, Greedy keeps each candidate's
// gain up to date instead of recounting it, Exact applies and undoes a branch
// by mask without allocating. Each keeps the output of the plain
// formulation, which survives in the package's tests as the reference.
package a2a
