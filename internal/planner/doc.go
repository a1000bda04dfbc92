// Package planner is the unified facade over the mapping-schema solvers of
// internal/a2a and internal/x2y. A single entry point, Plan, accepts either
// problem kind, runs a portfolio of algorithms in order (the paper's
// constructive dispatch, the coverage-greedy baseline up to 400 inputs, and
// the node-capped exact branch-and-bound, by default up to 12 inputs), and
// returns the schema with the fewest reducers, breaking ties on maximum load.
// Every member is bounded on its own, so the plan is the same for one
// instance whatever the host load; no member runs on after Plan returns.
//
// Because the problems are invariant under input renaming, Plan canonicalizes
// every instance to its sorted size multiset before solving and memoizes the
// canonical solution in a sharded, concurrency-safe LRU cache with
// single-flight deduplication: isomorphic instances — including X2Y instances
// with the sides swapped — are solved once and served by renaming IDs back.
// The cmd/pland HTTP server exposes the same facade over JSON, and the
// simjoin and skewjoin applications plan through it by default.
package planner
