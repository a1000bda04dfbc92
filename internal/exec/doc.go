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
// the offset reserved for it, written through one pooled buffer; it costs one
// descriptor however many reducers spilled. A reducer's copies are then its
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
// pair has an owner (ErrUncoveredPair). While the job runs, the compiled
// reducers log every processed pair into the run's trace; afterwards Run
// cross-checks that every required pair was processed exactly once
// (ErrUncoveredPair / ErrDuplicatePair), at its owning reducer
// (ErrWrongOwner), and that the per-reducer loads the engine measured equal
// the loads the schema routed (ErrLoadMismatch). Violations are typed and
// aggregated in an AuditError, usable both as a production guard and as a
// test oracle.
//
// The audit is always on, so it is built to cost a healthy run almost
// nothing. PreCheck derives every pair's owner in one ascending sweep over
// the reducers (the first reducer containing a pair owns it) and keeps the
// result as one list of owned pairs per reducer, in the order that reducer
// will process them. A run takes one buffer with an entry per owned pair
// from a pool; each reduce call appends the pairs it processes to its
// reducer's section of it — capped at what the reducer owns, so a reducer
// that processes more grows into a private copy rather than into its
// neighbour — and publishes the log when the call succeeds: no atomics and no
// shared cache line in the per-pair loop. The engine runs each task once, and
// a failing reduce call fails the run with its error. The buffer goes back to
// the pool when the audit is done with it; a Result holds no reference to it.
// The check of a healthy run is then a
// sequence comparison: reducer r's log must equal the sweep's list for r,
// entry for entry and length for length, which is exactly "every pair once,
// at its owner, nothing else". Each section is compared on its reducer's
// goroutine, as the reduce call ends, and the call records the slice it found
// equal; the post-run check takes that verdict while the shard is still that
// slice (same first element, same length) and compares any other shard
// itself, so the comparison runs on every processor instead of on one after
// the reduce phase. NoAudit skips both. The two sides derive owners
// differently — the reducers from class bitmaps derived from the membership
// rows, the auditor from the sweep — so the comparison is a cross-check, not
// a tautology. Any mismatch replays the logs pair by pair, looking every
// required pair up in a map from pair to the reducers whose logs hold it, and
// names every violation; the pland_exec_audit_slow_replays_total counter says
// how often that happens (never, for a healthy run).
//
// PreCheck always sweeps, so it costs eight bytes per covered pair. A static
// check of a schema that no run follows needs only whether every pair is
// covered: core.ValidateA2A answers it in m² bits (12.5 MB against 400 MB at
// 10,000 inputs), and session restores and recovery use it.
//
// # Compiled once
//
// What a run derives from the schema and the instance shape alone — the
// per-input assignments, the membership bitsets, the owner elections by
// class, the owned-pair lists, PreCheck's verdict — does not depend on the
// payload, so a
// Compiler, handed over in Request.Compiler, keeps it across runs. The cache
// is keyed by a hash of the schema's content (problem, capacity, every
// reducer's load and ID lists) and the shape, and a hit counts only after a
// full comparison with the private deep copy of the schema the entry was
// compiled from: callers own the schemas they pass in and may change them
// between runs, and a key is a hint, never evidence. A schema is retained the
// second time it is seen, through a fixed-size table of recently missed
// hashes, so executions that never repeat pay one hash each and leave nothing
// behind. Retained bytes are bounded by an unexported constant, least
// recently used first out; an index larger than the bound, or whose schema
// fails PreCheck, is compiled for its run and never kept. NoAudit and
// MemoryBudget change what a run does with the index, not the index, and do
// not enter into the key. What depends on the payload — the expected byte
// loads, the engine capacity, the partition hints — is computed per run; the
// ID-range check and PreCheck either run or are answered by an entry that
// passed them for the same content and shape. The two derivations of every
// owner are still both made once per retained index: the elections, which
// group the inputs into classes of identical rows and give every reducer a
// bitmap with one bit per pair of its member classes — set when the two
// classes' rows share no reducer below it, one IntersectsBelow per class
// pair — and the sweep's owned-pair lists. The reducers read the bitmaps in
// every run, and every logged pair is still compared with every owned pair.
// A nil Compiler compiles per call; each assign.Planner owns one beside its
// plan cache. pland_exec_compile_total{outcome} counts hits, misses and
// uncacheable compilations, pland_exec_compile_cache_bytes what is retained.
package exec
