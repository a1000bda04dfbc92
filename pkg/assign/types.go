package assign

import (
	"repro/internal/core"
	"repro/internal/exec"
)

// The core vocabulary of the system, re-exported so SDK callers never import
// internal packages. These aliases are the stable subset of internal/core.
type (
	// Size is the unit of input size and reducer capacity (the paper's w(i)
	// and q). Execute measures sizes in bytes of payload.
	Size = core.Size
	// Problem identifies which mapping-schema problem an instance poses.
	Problem = core.Problem
	// MappingSchema is an assignment of inputs to reducers.
	MappingSchema = core.MappingSchema
	// Reducer is one reducer of a mapping schema.
	Reducer = core.Reducer
	// Cost summarises the price of a mapping schema: reducers,
	// communication, replication rate, and load spread.
	Cost = core.Cost
	// InputSet is an immutable set of input sizes.
	InputSet = core.InputSet
	// Record is one input as the pair logic sees it during Execute: its ID
	// within its input set and its raw bytes.
	Record = exec.Record
	// PairFunc is the per-pair user logic of Execute. It is invoked exactly
	// once per required pair at the pair's owning reducer.
	PairFunc = exec.PairFunc
	// RecordSource streams input records one at a time (Next returns io.EOF
	// after the last record), so an execution never materializes its whole
	// input. Use with the Source option, which says what a run guarantees
	// about a Next call that blocks. The run copies each record, so Next may
	// reuse its buffer.
	RecordSource = exec.Source
	// RecordSourceFunc adapts a function to RecordSource.
	RecordSourceFunc = exec.SourceFunc
)

// Problem values.
const (
	// ProblemA2A is the all-to-all problem: every pair of inputs from a
	// single set must meet at some reducer.
	ProblemA2A = core.ProblemA2A
	// ProblemX2Y is the X-to-Y problem: every cross pair of one X-side and
	// one Y-side input must meet at some reducer.
	ProblemX2Y = core.ProblemX2Y
)

// Stable sentinel errors. Planning and validation failures wrap these;
// test with errors.Is.
var (
	// ErrInfeasible reports that no valid mapping schema exists for the
	// instance (e.g. two inputs that cannot fit together in any reducer).
	ErrInfeasible = core.ErrInfeasible
	// ErrCapacityExceeded reports a reducer load above the capacity q.
	ErrCapacityExceeded = core.ErrCapacityExceeded
	// ErrPairUncovered reports a required pair no reducer covers.
	ErrPairUncovered = core.ErrPairUncovered
	// ErrUnknownInput reports a reducer referencing an input ID outside the
	// instance.
	ErrUnknownInput = core.ErrUnknownInput
	// ErrTotalTooLarge reports input sizes that sum past the largest Size.
	ErrTotalTooLarge = core.ErrTotalTooLarge
)

// NewSliceRecordSource returns a RecordSource over in-memory records — the
// adapter between slice-shaped data and the streaming Source option.
func NewSliceRecordSource(recs [][]byte) RecordSource { return exec.NewSliceSource(recs) }

// NewInputSet builds an immutable input set from sizes. Every size must be
// positive.
func NewInputSet(sizes []Size) (*InputSet, error) { return core.NewInputSet(sizes) }

// MustNewInputSet is NewInputSet that panics on error, for tests and
// examples with known-good literals.
func MustNewInputSet(sizes []Size) *InputSet { return core.MustNewInputSet(sizes) }

// SchemaCost prices a mapping schema against the total input size.
func SchemaCost(ms *MappingSchema, totalInputSize Size) Cost {
	return core.SchemaCost(ms, totalInputSize)
}

// CostWithWorkers is SchemaCost plus a reduce-phase makespan estimate for
// the given number of parallel workers (longest-processing-time greedy
// schedule).
func CostWithWorkers(ms *MappingSchema, totalInputSize Size, workers int) Cost {
	return core.CostWithWorkers(ms, totalInputSize, workers)
}
