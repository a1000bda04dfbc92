// Package mr is the MapReduce engine that runs a mapping schema: it sends
// every input record to the reducers the schema assigns it and runs a reduce
// task per reducer over the copies it received. internal/exec compiles
// schemas into its jobs.
//
// # Jobs
//
// A Job is a reducer count, a Route from a record's index in the source
// stream to its reducers, and a Reduce over one reducer's copies, each an
// index and the record's bytes. There are no keys, no partitioner and no
// mapper: a reducer is a partition, and the schema has already decided
// where every record goes.
//
// # Phases
//
// Run is the one way in. It pulls records one at a time from a Source (so
// the whole input never has to be materialized; a caller holding a slice
// wraps it in a SliceSource). In the map phase a single goroutine, the
// reader, pulls each record, routes it, and appends a copy to the buffer of
// every reducer Route names, enforcing ReducerCapacity copy by copy. Because
// one goroutine routes in index order, every buffer holds its copies in index
// order: there is nothing to tag, sort or merge. In the reduce phase one
// worker per processor (GOMAXPROCS) takes the reducers that received a copy
// one after another, runs each one's Reduce, and writes its output to the
// caller's Sink or into the collected Result.Output. The context cancels either phase, and Run returns only once
// its goroutines are gone: the Source is not pulled again after that (a Next
// call already in flight is the one thing Run does not wait for).
//
// # Spill to disk
//
// StreamOptions.MemoryBudget bounds the bytes of copies held in reducer
// buffers during the map phase. When a copy pushes the total over the
// budget, the buffer it went to is appended to the Run's spill file as one
// run of (index, length, data) frames and emptied. A Run has one spill file,
// created on its first spill in a private "mr-spill-*" directory under
// StreamOptions.SpillDir, holding every run of every reducer back to back,
// each at the offset reserved for it, written through one pooled buffer; it
// costs one descriptor however many reducers spilled. A reducer's copies are
// then its runs, read back in spill order, followed by its buffer — index
// order again, so output is byte-identical to an unbounded run. A run is
// read back defensively: a length prefix the rest of the run cannot hold is
// an error, not an allocation, and a run that ends before its recorded length
// is an error, not a shorter run. Spill volume is reported in Counters
// (SpillRuns, SpillPartitions, SpillBytes) and per run via the OnSpill hook.
// The file is closed and the directory removed when the Run call ends, on
// every path — success, error, or cancellation.
//
// # Measurements
//
// The paper's cost model depends only on the data shipped from mappers to
// reducers and on the load of each reducer. Counters measure exactly that:
// ShuffleBytes is the total of the copies' bytes, and ReducerLoads[r] the
// bytes reducer r received, with nothing added for framing — so for a
// compiled schema they are its communication cost and its reducer loads.
package mr
