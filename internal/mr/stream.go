package mr

import "io"

// Source yields the input records of a job one at a time, so a run never
// needs the whole input materialized. Next returns the next record, or
// io.EOF after the last one. The engine calls Next from a single goroutine
// and starts no call after Run has returned. A call still in flight when the
// run fails or is cancelled is not waited for, and its result is dropped.
// The engine keeps the slices Next returns until Run returns, so Next must
// return a fresh slice every call.
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

// Sink receives the output records of a run as reducers produce them,
// tagged with the reducer that emitted them. Records of one reducer arrive in
// the order it emitted them; reducers interleave as they complete. The engine
// serializes Write calls, so implementations need no locking. A Write error
// fails the run.
type Sink interface {
	Write(partition int, rec []byte) error
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(partition int, rec []byte) error

// Write implements Sink.
func (f SinkFunc) Write(partition int, rec []byte) error { return f(partition, rec) }

// StreamOptions tunes one Run call.
type StreamOptions struct {
	// MemoryBudget bounds the bytes of record copies the run holds in
	// reducer buffers during the map phase. When a copy pushes the total
	// over the budget, the buffer of the reducer it went to is appended to
	// the run's spill file as one run and emptied. Zero or negative means
	// unbounded: nothing spills. A budget smaller than one record spills
	// every copy as a run of its own.
	//
	// The budget covers the map phase. At reduce time each running reduce
	// task holds all its reducer's copies at once, as Reduce receives them:
	// at most the reducer capacity, for at most one reducer per processor.
	MemoryBudget int64
	// SpillDir is the directory spill files are written under; "" means the
	// OS temp dir. A Run that spills creates (on its first spill) one
	// private "mr-spill-*" subdirectory holding one file, keeps one
	// descriptor on it, and removes both when it ends, whatever the outcome.
	SpillDir string
	// OnSpill, when non-nil, is invoked after each spilled run with the
	// reducer and the bytes the run added to the spill file (metrics hook).
	// It is called from the routing goroutine, one call at a time.
	OnSpill func(partition int, runBytes int64)
	// OnStage, when non-nil, is invoked at the start of each phase ("map",
	// "reduce") and the returned function at its end (tracing hook).
	OnStage func(stage string) func()
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
