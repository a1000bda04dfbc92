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
//     assign every pair of bins to one reducer. Solve generalises it to bins
//     of q/n on a design (below).
//   - BigSmallSplit: the extension for inputs larger than q/2 ("big" inputs),
//     which pairs big inputs directly and packs the small inputs into the
//     residual capacity next to each big input. It needs a big input; Solve
//     dispatches to it on those instances.
//   - TripleCover: a Steiner-triple cover for medium inputs (above q/4, any
//     three still fitting), where the bin-packing constructions degenerate
//     to one pair per reducer.
//   - Greedy: a coverage-greedy heuristic used as a baseline.
//   - Exact: a branch-and-bound solver for small instances (at most 64
//     inputs: its state is one machine word per reducer and per input), used
//     to measure approximation ratios. It takes the inputs largest first, so
//     it branches on the most constrained pair first: on the planner's tiny
//     instances more searches prove their schema optimal within the node
//     budget than in ascending order.
//   - Lower bounds on the number of reducers and on the communication cost,
//     against which all of the above are reported.
//
// Greedy and Exact are also the X2Y problem's, so one coverage greedy and
// one branch and bound serve both: GreedySplit and ExactSplit take the
// sizes of X then Y and the split between them, and start with every pair
// on one side of it already met, so only the cross pairs are left to cover.
// ExactSplit orders X and Y largest first each, keeping X before Y. A split
// of 0 is the A2A pass itself; the package imports nothing of x2y.
//
// EqualSized, TripleCover and AffinePlane are one builder (binsOnBlocks) fed
// three designs — every pair of groups, Bose triples over single inputs, the
// lines of a plane — which restricts each block to its real points and emits
// its members ascending.
//
// Solve picks the appropriate algorithm for an instance automatically. On
// equal sizes it prices three designs from m and k alone and builds only the
// cheapest — fewest reducers, then fewest copies — of those that ship no
// more copies than EqualSized, so on no instance is either count worse than
// EqualSized's:
//
//   - EqualSized's groups;
//   - the plane of the cheapest order;
//   - where the bins outnumber the points of a plane, the plane plus a
//     remainder: the full AG(2, n) over the first n²·s inputs, a grid of
//     bins of a remainder inputs beside bins of k-a plane inputs for the
//     pairs between the two, and, when a is less than the remainder, the
//     groups or a plane over the remainder for its own pairs. Pairs inside
//     one remainder bin then meet more than once, which the executor's owner
//     election already handles. On the benchmark's equal-sized planning
//     shapes (about 2,000 inputs at k = 62, more than AG(2,31)'s 961 bins of
//     two) this takes 1,049–1,262 reducers where EqualSized takes
//     1,953–2,211.
//
// At k = 3 the triple cover is priced beside them, from m alone. One pair of
// functions, equalSizedDesign and buildEqualSized, prices and builds all of
// this.
//
// On different sizes that are all at most q/2, BinPackPair's pairs of q/2
// bins are the case n = 2 of a wider family: pack the inputs by First-Fit
// Decreasing into bins of floor(q/n), take each bin as one unit input, and
// lay the units on the equal-sized dispatch's design at k = n — what Solve
// builds for that many unit inputs at capacity n. Each reducer then holds n
// whole bins, at most q. Solve prices every n from 2 to floor(q/w_max), at
// most 64, from an FFD bin count and the design's count; at n = 2 that
// design is every pair of the B bins, C(B,2) reducers, so one loop prices
// the pairs and the designs alike. It builds only the cheapest, and a design
// only where it beats the pairs on fewer reducers, or on as many and less
// communication than their exact W·(B−1), so the pairs are never built to be
// compared. An n whose bin-count lower bound ceil(W/floor(q/n)) does not
// price below the best so far is not counted. The count is binpack.Count
// over the inputs ordered once, the same pass binpack.Pack runs for the
// build. The builds stay two: BinPackPair merges two sorted bins per
// reducer, and a design deals each input out to the reducers of its bin,
// each the faster on its own shape. So wherever every input is at most q/3
// the design can win: on the benchmark's Zipf planning shapes (about 500
// inputs, 24 bins of q/2) a triple cover over bins of q/3 takes 246 reducers
// and 19 copies of each input where the pairs take 276 and 23, and the
// similarity join's 300 documents at q = 4,000 take 72 reducers on AG(2, 8)
// instead of 112. Inputs above q/2 keep BigSmallSplit, and equal-sized
// inputs their own dispatch.
//
// Planning cost is the paper's trade-off, so the algorithms decide on counts
// and words and materialise one schema, once: Solve prices TripleCover from
// m alone and builds it only where it can win; Greedy holds every
// candidate's gain as bit-sliced counters (core.Gains), so a newcomer bumps
// the gains of all the inputs it has not met by a word-parallel add and the
// best candidate is found by narrowing the fitting ones plane by plane;
// Exact applies and undoes a branch by mask without allocating, and draws
// the reducers a pair can join from per-input and per-level reducer masks
// instead of scanning every open one. Each keeps the output of the plain
// formulation, which survives in the package's tests as the reference.
package a2a
