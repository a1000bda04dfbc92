// Package mr is the streaming MapReduce engine that executes the paper's
// applications (similarity join and skew join) and everything the exec layer
// plans on top of it.
//
// # Pipeline
//
// A run is a pipeline of bounded-buffer channel stages:
//
//	Source → map workers → per-partition accumulators → reduce → Sink
//
// Run is the one way in. It pulls records one at a time from a Source (so
// the whole input never has to be materialized; a caller holding a slice
// wraps it in a SliceSource), fans them out to MapParallelism map workers —
// one per processor by default — and routes every emitted pair to the
// accumulator goroutine of its reduce partition — one goroutine pipeline per
// partition, with a buffer pre-sized from the job's declared PartitionHints.
// Reduce tasks run as partitions complete, gated by a ReduceParallelism
// semaphore, and write either to the caller's Sink or into the collected
// Result.Output. Every channel operation selects on ctx.Done(), so
// cancellation propagates mid-pipeline without waiting for a stage to drain,
// and Run returns only once its goroutines are gone: the Source is not
// pulled again after that (a Next call already in flight is the one thing
// Run does not wait for).
//
// Records cross the reader → map and map → partition boundaries in chunks of
// up to 64 records (closed early at 64 KiB of payload), so the cost of a
// channel operation is paid per chunk, not per record. The reader fills one
// chunk at a time; each map worker keeps one pending chunk per partition,
// hands it over when it is full, and flushes the partial ones when the input
// ends. Chunking is invisible in the results: pairs are still inserted,
// counted, capacity-checked and charged to the memory budget one at a time,
// and the provenance order below does not depend on how they travelled.
// What is parked between stages stays bounded by StreamOptions.BufferSize:
// channel capacities are counted in chunks and cut accordingly (with the
// default BufferSize of 64 each channel holds one chunk), and a BufferSize
// below the chunk length shrinks the chunks to it.
//
// # Grouping, and spill to disk
//
// There is one grouping path, and it is sort-merge; the engine keeps no hash
// table. A partition appends the pairs it receives to a buffer. At reduce
// time it sorts the buffer by (key, provenance) and walks it, handing each
// run of equal keys to the reducer.
//
// StreamOptions.MemoryBudget bounds the bytes of map output buffered in
// memory across all partitions. When an insert pushes the engine over budget,
// the inserting partition sorts its buffer, appends it as one run
// (uvarint-framed key/value records) to the partition's spill file and starts
// over empty. A partition has one spill file, created on its first spill in a
// private temp directory under StreamOptions.SpillDir and held open until the
// partition is done; where each run lies in it — offset and length — is kept
// in memory. The reduce-time walk is then a k-way merge of the partition's
// runs, each read through its own section of that one descriptor, with the
// sorted remainder — the same code over more cursors — so grouping and output
// are byte-identical to an unbounded run. A sorted run costs no file and no
// descriptor of its own: a Run call holds at most one descriptor per
// partition that spilled, however often it spilled, and the buffers runs are
// written and read through come from a pool, sized to the run (64 KiB at
// most). A run is read back defensively: a length prefix the rest of the run
// cannot hold is an error, not an allocation, and a run that ends before its
// recorded length has been read is an error, not a shorter run. Spill volume
// is reported in Counters (SpillRuns, SpillPartitions, SpillBytes) and
// surfaced per run via the OnSpill hook. The files are closed and the temp
// directory removed when the Run call ends, on every path — success, error,
// or cancellation.
//
// # Determinism
//
// Each map emission carries its provenance: the source record index and the
// emission ordinal. Values within a key group are ordered by that provenance,
// so output is deterministic regardless of MapParallelism, buffering,
// chunking, or how many times a partition spilled.
//
// The paper assumes a production MapReduce stack; its cost model depends only
// on the data shipped from mappers to reducers and on per-reducer load, which
// this engine measures byte-accurately through its Counters.
package mr
