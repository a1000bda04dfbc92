// Package exec turns mapping schemas into running MapReduce jobs.
//
// The algorithm packages (a2a, x2y) and the planner decide, ahead of time,
// which reducers every input must be replicated to so that all required pairs
// of inputs meet under the reducer-capacity bound q. That decision — a
// core.MappingSchema — is only a plan. exec is the execution layer that
// realises it: Run compiles a schema plus user pair logic into a job for its
// MapReduce engine and executes it, and an always-on conformance harness
// proves afterwards that what the planner promised is what the engine
// delivered.
//
// # The schema-to-job compilation contract
//
// Run compiles a Request as follows:
//
//   - Every input payload becomes one engine record, unframed: its index in
//     the stream is its identity — the A2A set in ID order, or the X side
//     then the Y side, so Y input i is record numX+i. There is one input
//     path: records are checked against their declared size as the engine
//     pulls them, whether the request carries slices (with the payload
//     lengths as the declared sizes) or an A2A Source.
//   - The job routes record i to the reducers the schema assigns it, from
//     the schema's inversion (the per-input assignment lists), one copy per
//     assigned reducer. Replication is therefore exactly what the schema
//     declares — no more, no fewer copies — and every byte shuffled is a
//     payload byte.
//   - The reducer maps each copy's index back to its side and ID and invokes
//     the user PairFunc once per required pair it owns. A schema may cover a
//     pair at several reducers; the pair's owner is the lowest-indexed
//     reducer assigned both inputs, so every pair is processed exactly once
//     across the whole job. A reducer owns a pair of its members exactly
//     when their membership rows (the per-input bitsets of reducers) share
//     no lower-indexed reducer. Inputs with identical rows form a class, and
//     that test depends only on the pair's two classes, so each reducer
//     answers it from a bitmap over its member classes, derived once per
//     index, one bit per pair (see "Compiled once"). The bitmap describes
//     the reducer's members, so a reducer whose copies are not exactly its
//     members fails the run, naming itself; the engine's routing never
//     produces one.
//   - The job's engine-level capacity is the largest per-reducer load the
//     compiled assignments produce from the declared sizes — the schema's
//     largest reducer load when those are the schema's sizes. The
//     schema-level capacity q is checked separately by the audit, in the
//     schema's own size units.
//
// # Phases
//
// The engine pulls the run's records one at a time from a Source (so the
// whole input never has to be materialized; a request's slices are read
// through a SliceSource). In the map phase a single goroutine, the reader,
// pulls each record, routes it, and appends a copy to the buffer of every
// reducer the route names, enforcing the engine capacity copy by copy.
// Because one goroutine routes in index order, every buffer holds its copies
// in index order: there is nothing to tag, sort or merge. In the reduce phase
// one worker per processor (GOMAXPROCS) takes the reducers that received a
// copy one after another, runs each one's reduce, and hands its output to
// Request.Sink or collects it into Result.Output, reducer by reducer. The
// context cancels either phase, and Run returns only once the engine's
// goroutines are gone: the Source is not pulled again after that (a Next
// call already in flight is the one thing Run does not wait for). The phases
// are the exec_map and exec_reduce stages of the request's span, inside
// exec_stream.
//
// # Spill to disk
//
// Request.MemoryBudget bounds the bytes of copies held in reducer buffers
// during the map phase. When a copy pushes the total over the budget, the
// buffer it went to is appended to the run's spill file as one run of
// (index, length, data) frames and emptied. A run has one spill file, created
// on its first spill in a private "mr-spill-*" directory under
// Request.SpillDir, holding every run of every reducer back to back, each at
// the offset reserved for it, written through the file's own buffer; it
// costs one descriptor however many reducers spilled. A reducer's copies are then its
// runs, read back in spill order, followed by its buffer — index order again,
// so output is byte-identical to an unbounded run. A run is read back
// defensively: a length prefix the rest of the run cannot hold is an error,
// not an allocation; a run that ends before its recorded length is an error,
// not a shorter run; and a record index that is not one of the records
// pulled is an error, not an index into the schema's tables. Spill volume is
// reported in Counters (SpillRuns, SpillPartitions, SpillBytes), in the
// pland_exec_spill_* metrics, and as one spill event per run in the span. The
// file is closed and the directory removed when Run ends, on every path —
// success, error, or cancellation.
//
// # Measurements
//
// The paper's cost model depends only on the data shipped from mappers to
// reducers and on the load of each reducer. Counters measure exactly that:
// ShuffleBytes is the total of the copies' bytes, and ReducerLoads[r] the
// bytes reducer r received, with nothing added for framing — so they are the
// schema's communication cost and its reducer loads.
//
// # The conformance harness
//
// The Auditor turns the paper's correctness conditions into machine-checked
// invariants. Before the job runs it verifies the schema itself: every
// declared reducer load is within q (ErrOverCapacity) and every required
// pair has an owner (ErrUncoveredPair). While the job runs, every compiled
// reducer checks each pair it processes against the pairs it owns; afterwards
// Run cross-checks that every required pair was processed exactly once
// (ErrUncoveredPair / ErrDuplicatePair), at its owning reducer
// (ErrWrongOwner), and that the per-reducer loads the engine measured equal
// the loads the schema routed (ErrLoadMismatch). Violations are typed and
// aggregated in an AuditError, usable both as a production guard and as a
// test oracle.
//
// The audit is always on, so it is built to cost a healthy run almost
// nothing, and nothing it keeps grows with the pair count. Every
// construction puts whole groups of inputs on reducers, so ownership is kept
// per block of two classes of identical routes: one ascending scan of the
// reducers' member lists marks, for every reducer, the class pairs it meets
// first (its owned blocks) and counts their pairs, and PreCheck's coverage is
// the sum of those counts. The scan also checks that every class a reducer
// holds is there whole, on that side — what makes a block exactly the pairs
// of its two classes — and a reducer holding part of a class fails PreCheck.
// A reducer's owned blocks expand to its owned pairs in the order it
// processes them. Each reduce call walks its pairs' positions in that order
// and checks, at each, that it processes the pair exactly when the position
// is owned, on its own goroutine; a call that agreed to the end sets its
// reducer's clean flag and stores nothing, and one that strayed keeps a log
// of exactly what it processed. The engine runs each task once, and a
// failing reduce call fails the run with its error. The post-run check of a
// healthy run reads one clean flag per reducer and compares any other
// reducer's log with its owned pairs — "every pair once, at its owner,
// nothing else"; a nil or empty log is no clean flag. NoAudit skips the
// post-run check only. The reducers elect owners from class bitmaps derived
// from the membership rows and the owned blocks come from the scan of the
// member lists, so the comparison is a cross-check, not a tautology. Any mismatch replays the
// run pair by pair through a map from pair to the reducers that processed
// it and names every violation; pland_exec_audit_slow_replays_total counts
// those replays (never, for a healthy run). A static check of a schema that
// no run follows needs only coverage: core.ValidateA2A answers it in m²
// bits, and session restores and recovery use it.
//
// # Compiled once
//
// What a run derives from the schema and the instance shape alone — the
// per-input assignments, the membership bitsets, the classes, every
// reducer's election and owned blocks (one bit per pair of its member
// classes each, derived in one pass), PreCheck's verdict — does not depend
// on the payload, so a Compiler, handed over in Request.Compiler, keeps it
// across runs (see Compiler for the key, the admission and the byte bound);
// the reducers read it in every run and none writes it. NoAudit and
// MemoryBudget change what a run does with the index, not the index, and do
// not enter into the key. What depends on the payload — the expected byte
// loads, the engine capacity, the partition hints — is computed per run. A
// nil Compiler compiles per call; each assign.Planner owns one beside its
// plan cache. pland_exec_compile_total{outcome} counts hits, misses and
// uncacheable compilations, pland_exec_compile_cache_bytes what is retained.
package exec
