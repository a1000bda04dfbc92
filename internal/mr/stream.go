package mr

import "io"

// Source yields the input records of a job one at a time, so a run never
// needs the whole input materialized. Next returns the next record, or
// io.EOF after the last one. The engine calls Next from a single goroutine
// and starts no call after Run has returned. A call still in flight when the
// run fails or is cancelled is not waited for, and its result is dropped.
type Source interface {
	Next() ([]byte, error)
}

// SourceFunc adapts a function to the Source interface.
type SourceFunc func() ([]byte, error)

// Next implements Source.
func (f SourceFunc) Next() ([]byte, error) { return f() }

// SliceSource streams an in-memory record slice.
type SliceSource struct {
	recs [][]byte
	i    int
}

// NewSliceSource returns a Source over the given records.
func NewSliceSource(recs [][]byte) *SliceSource { return &SliceSource{recs: recs} }

// Next implements Source.
func (s *SliceSource) Next() ([]byte, error) {
	if s.i >= len(s.recs) {
		return nil, io.EOF
	}
	rec := s.recs[s.i]
	s.i++
	return rec, nil
}

// Sink receives the output records of a streaming run as reduce partitions
// produce them, tagged with the partition that emitted them. Records of one
// partition arrive in that partition's deterministic emission order;
// partitions interleave as they complete. The engine serializes Write calls,
// so implementations need no locking. A Write error fails the run.
type Sink interface {
	Write(partition int, rec []byte) error
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(partition int, rec []byte) error

// Write implements Sink.
func (f SinkFunc) Write(partition int, rec []byte) error { return f(partition, rec) }

// StreamOptions tunes one Run call.
type StreamOptions struct {
	// MemoryBudget bounds the bytes of shuffled intermediate pairs the run
	// holds in memory across all partitions (measured in Pair.Size units).
	// When the budget is exceeded, the inserting partition spills its
	// buffer as one sorted run — a section appended to the partition's spill
	// file — and continues; runs are merged back at reduce time. Zero or
	// negative means unbounded: nothing spills.
	//
	// The budget is checked on every inserted pair, however the pair
	// travelled: a budget smaller than one record spills each record into its
	// own run.
	//
	// The budget covers the partition buffers only. Pairs in flight between
	// stages are not charged to it; they are bounded separately (see
	// BufferSize). Each reduce task still materializes one key group at a
	// time, so the peak memory of a run is roughly MemoryBudget + what is in
	// flight + ReduceParallelism x the largest per-partition key group (for
	// schema-driven jobs: the reducer capacity q).
	MemoryBudget int64
	// SpillDir is the directory spill files are written under; "" means the
	// OS temp dir. Each Run call creates (lazily, on first spill) one private
	// "mr-spill-*" subdirectory and removes it when it ends, whatever the
	// outcome. In it every partition that spills keeps one file, open from
	// its first spill until it has been reduced, so a Run holds at most one
	// descriptor per partition, however many runs it spilled.
	SpillDir string
	// BufferSize bounds how many records each channel between pipeline
	// stages parks (the reader → map channel, and every map → partition
	// channel); 0 means a small default (64). Records travel in chunks of up
	// to 64 records or 64 KiB of payload, so a channel's capacity is
	// BufferSize divided by the chunk length, and a BufferSize below 64
	// shrinks the chunks to BufferSize (1 is a record-at-a-time pipeline).
	// Besides the channels, the reader holds one chunk being filled and each
	// map worker one per partition; those are flushed when full and when the
	// input ends. Larger buffers absorb burstier mappers at the cost of
	// memory.
	BufferSize int
	// OnSpill, when non-nil, is invoked after each spilled run with the
	// partition and the bytes the run added to the partition's spill file
	// (metrics hook). Partitions spill concurrently, so it may be called from
	// several goroutines at once.
	OnSpill func(partition int, runBytes int64)
	// OnStage, when non-nil, is invoked at the start of each pipeline phase
	// ("map", "reduce") and the returned function at its end (tracing hook).
	OnStage func(stage string) func()
}

// defaultStageBuffer is the per-channel record bound when
// StreamOptions.BufferSize is unset.
const defaultStageBuffer = 64

func (o *StreamOptions) bufferSize() int {
	if o.BufferSize > 0 {
		return o.BufferSize
	}
	return defaultStageBuffer
}

// stage invokes the OnStage hook, tolerating nil hooks and nil end funcs.
func (o *StreamOptions) stage(name string) func() {
	if o.OnStage == nil {
		return func() {}
	}
	end := o.OnStage(name)
	if end == nil {
		return func() {}
	}
	return end
}
