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
// canonical solution in a concurrency-safe LRU cache under one lock, with
// single-flight deduplication: isomorphic instances — including X2Y instances
// with the sides swapped — are solved once and served by renaming IDs back.
// pkg/assign is the public face of this planner, and the cmd/pland HTTP
// server exposes the same facade over JSON.
//
// Each Planner counts in its own pland_planner_* series, registered when New
// builds it: every Plan call that returns lands in exactly one outcome
// (hit, miss, shared, error), and Stats is a view over those series.
// WritePrometheus hands them to a scrape.
package planner
