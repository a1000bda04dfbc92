// Package stream maintains a live mapping schema under churn: inputs arrive,
// grow, shrink, and depart after the plan is made, and a Session keeps the
// paper's invariants standing the whole time without a full re-solve plus
// full re-shuffle per delta.
//
// # The maintenance problem
//
// The offline problem (internal/planner) is: sizes in, mapping schema out.
// The online problem this package solves is: given a valid A2A schema and a
// delta — Add(size), Remove(id), Resize(id, newSize) — produce a valid
// schema again while moving as few bytes as possible. A Session therefore
// has two repair tiers:
//
//   - Local repair, applied synchronously to every delta. An added input is
//     placed into existing reducer slack by a greedy set cover (join the
//     reducers that cover the most still-uncovered co-inputs); whatever
//     remains uncovered is packed with the new input into fresh reducers.
//     A removal deletes the input everywhere and, within the migration
//     budget, merges small reducers back together. A resize that overflows
//     a reducer evicts the resized input from exactly the overflowing
//     reducers and re-covers the pairs that eviction lost.
//
//   - Full rebuild, run by the caller's Rebuild once cumulative drift
//     exceeds the configured threshold (NeedsRebuild). The session
//     snapshots the live sizes, calls the configured ReplanFunc (the
//     portfolio planner, in production wiring) outside the lock on the
//     caller's goroutine, then atomically swaps the new schema in,
//     reconciling any deltas that raced the solve: inputs removed meanwhile
//     are stripped, inputs added or evicted meanwhile are re-covered through
//     the local-repair path, and the swap reports its migration cost (greedy
//     max-byte-overlap matching of old and new reducers; only bytes not
//     already in place count as moved).
//
// # Representation
//
// Each reducer slot holds its members (ascending) and its load; each live
// input has one record, its size and the bitset of slots holding it. Repairs
// keep both sides in step, so "do x and y share a reducer?" is one
// word-parallel intersection. A swap keeps every input's old slots, imports
// each planned reducer whole, and prices the migration from those old slots:
// a new reducer's overlap with an old one is the sum of its members' sizes
// there.
//
// # Invariants
//
// After every delta and after every swap, the session's schema satisfies
// the paper's correctness conditions, machine-checkable with exec.Auditor:
//
//   - every required pair of live inputs shares at least one reducer (and
//     therefore has a unique owning reducer for exactly-once execution);
//   - every reducer load is at most the capacity q.
//
// Deltas that would make the instance infeasible — an input larger than q,
// or two live inputs that cannot fit together in any reducer — are rejected
// without mutating the session.
//
// # Migration budget and drift
//
// Mandatory repair work (restoring coverage) is always performed, whatever
// it costs; a delta whose mandatory movement exceeds MigrationBudget is
// flagged OverBudget in its DeltaReport rather than refused. The budget
// strictly bounds only opportunistic movement: reducer-merge compaction
// after removals. Drift accumulates the bytes of existing inputs re-shipped
// by repairs plus the bytes freed by removals and shrinks, normalized by
// the live bytes; when the ratio passes RebuildThreshold, NeedsRebuild
// reports true and the caller schedules Rebuild on its own pool (cmd/pland
// runs it on its job queue). A session never rebuilds by itself.
//
// Sessions are safe for concurrent use and start no goroutine; every public
// method takes the session lock, and a rebuild holds it only to snapshot and
// to swap, so deltas on other goroutines race the solve. A journaled session
// writes a full-state snapshot every 1,024 deltas, bounding recovery replay.
package stream
