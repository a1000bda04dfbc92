// Package assign is the public SDK of the mapping-schema assignment system:
// a curated facade over the paper's A2A and X2Y planners and the
// schema-driven MapReduce executor. External Go programs embed the system
// through this package alone; everything under internal/ is an
// implementation detail.
//
// The two entry points are Plan and Execute, both configured with
// functional options:
//
//	res, err := assign.Plan(ctx,
//	    assign.A2A([]assign.Size{3, 3, 2, 2, 4, 1}),
//	    assign.Capacity(10))
//
// plans a mapping schema for six inputs under reducer capacity 10, running
// the paper's constructive algorithms, the greedy baseline, and node-capped
// exact search in order, behind a canonicalization cache. The plan for one
// instance is the same whatever the host load. Execute goes one step further and runs the planned schema on the
// in-memory MapReduce engine, invoking the supplied pair logic exactly once
// per required pair and auditing the run against the schema:
//
//	ex, err := assign.Execute(ctx,
//	    assign.Inputs(payloads),
//	    assign.Capacity(1<<20),
//	    assign.Pair(func(a, b assign.Record, emit func([]byte)) error {
//	        // compare a.Data and b.Data, emit results
//	        return nil
//	    }))
//
// A planner that executes the same plan again does not compile it again:
// what the executor derives from a schema alone is kept beside the plan
// cache, from the schema's second execution on, and checked against the
// schema at hand before every reuse.
//
// # Streaming execution
//
// Execute also has a fully streaming form. The Source option feeds input
// records from a RecordSource one at a time (sizes declared up front, so the
// plan is unchanged), and Each streams every output record to a callback as
// it is produced; with Source or Each the execution never materializes its
// input or output:
//
//	ex, err := assign.Execute(ctx,
//	    assign.Source(src, sizes),          // records pulled on demand
//	    assign.Capacity(1<<20),
//	    assign.MemoryBudget(64<<20),        // spill past 64 MiB of shuffle
//	    assign.Pair(comparePair),
//	    assign.Each(func(rec []byte) error { return out.Write(rec) }))
//
// MemoryBudget bounds the bytes of shuffled data held in memory: the reducer
// buffer a copy crosses it in is appended to the run's one spill file in a
// temp directory (SpillDir) and read back at reduce time, so results are
// identical to an unbounded run; the Execution reports SpillRuns,
// SpillPartitions, and SpillBytes. The engine serializes Each's calls, so
// the callback needs no locking, and Each is also how a caller stops early:
// an error it returns fails the run with that error. Contexts are honored
// mid-run too: cancelling the ctx given to Execute stops the map and reduce
// phases promptly. Either way Execute returns once the run has unwound, with
// its spill file removed.
//
// Package-level Plan and Execute share one process-wide planner, so
// isomorphic instances across callers hit a single cache; NewPlanner builds
// an isolated planner when that sharing is unwanted.
//
// A plan need not be one-shot: NewSession opens a live, continuously
// maintained assignment that absorbs Add/Remove/Resize deltas by bounded
// local repair, and reports through NeedsRebuild when cumulative drift calls
// for a full replan. The session starts no goroutine: the caller runs
// Rebuild when and where it chooses:
//
//	sess, err := assign.NewSession(ctx,
//	    assign.A2A(sizes), assign.Capacity(1<<20),
//	    assign.MigrationBudget(4<<20), assign.RebuildThreshold(0.5))
//	id, rep, err := sess.Add(4096)
//	if sess.NeedsRebuild() {
//	    _, err = sess.Rebuild(ctx)
//	}
//
// After any sequence of deltas the session's schema still satisfies the
// paper's invariants: every required pair meets at exactly one owning
// reducer and all loads stay within the capacity.
//
// For talking to a remote pland service instead of planning in-process, see
// the pkg/assign/plandclient subpackage.
//
// # Compatibility contract
//
// Everything exported by pkg/assign and pkg/assign/plandclient is the
// system's stable surface: the option constructors, the Result, Execution,
// Session, and Stats shapes, and the re-exported core
// vocabulary (Size, Problem, MappingSchema, Reducer, Cost, InputSet,
// Record, RecordSource, and the Err* values). These only change compatibly.
// In particular, the slice-based Inputs/Output path is an adapter over the
// same streaming engine as Source/Each — switching between them never
// changes results, counters, or audit verdicts, only what is materialized.
// Session is internal/stream's Session under its SDK name, like the session
// types beside it (SessionStats, SessionSnapshot, SessionState, …), so that
// type's exported methods (Add, Remove, Resize, Len, Stats, Snapshot, State,
// WriteSnapshot, NeedsRebuild, Rebuild and Close) are the SDK's contract,
// and stream exports no other.
//
// Packages under internal/ — the solver implementations, the execution
// engine, the planner cache — carry no compatibility promise beyond what
// pkg/assign re-exports: they may change or disappear in any revision. The
// concrete set of portfolio members (the Winner strings), solver
// tie-breaking, and therefore the exact schema returned for a given
// instance are explicitly NOT part of the contract; only validity (capacity
// respected, every required pair covered) and the reported bounds are.
package assign
