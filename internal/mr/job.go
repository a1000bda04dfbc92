package mr

import (
	"errors"
	"fmt"
)

// Record is one copy of an input record as a reducer receives it: the
// record's index in the source stream and its bytes.
type Record struct {
	Index int
	Data  []byte
}

// Job describes one run of a mapping schema: how many reducers there are,
// which reducers every record is copied to, and what a reducer does with the
// copies it received. Each reduce task runs once: the first task that returns
// an error fails the job, which wraps that error.
type Job struct {
	// Name labels the job in errors.
	Name string
	// NumReducers is the number of reducers; it must be positive.
	NumReducers int
	// Route returns the reducers record i of the source is copied to, one
	// copy each. It is called once per record, in index order, from one
	// goroutine; a reducer outside [0, NumReducers) fails the run. Required.
	Route func(i int) []int
	// Reduce runs once per reducer that received at least one copy, with
	// the copies in index order, and emits the reducer's output records.
	// Up to one reduce call per processor (GOMAXPROCS) runs at a time.
	// Required.
	Reduce func(r int, recs []Record, emit func([]byte)) error
	// ReducerCapacity, when positive, makes the engine fail the job if any
	// reducer receives more than this many bytes. It models the paper's
	// reducer capacity q at execution time.
	ReducerCapacity int64
	// PartitionHints optionally pre-sizes each reducer's buffer from the
	// number of copies the schema sends it, indexed by reducer. Missing or
	// short hints are harmless: buffers grow as usual.
	PartitionHints []int
}

// hint returns the reducer's declared copy count, or 0.
func (j *Job) hint(r int) int {
	if r < len(j.PartitionHints) {
		return j.PartitionHints[r]
	}
	return 0
}

// Validation errors.
var (
	ErrNoRoute      = errors.New("mr: job has no route")
	ErrNoReduce     = errors.New("mr: job has no reduce")
	ErrBadReducers  = errors.New("mr: job needs a positive number of reducers")
	ErrOverCapacity = errors.New("mr: reducer exceeds the configured reducer capacity")
)

// validate checks the job configuration.
func (j *Job) validate() error {
	if j.Route == nil {
		return fmt.Errorf("%w (job %q)", ErrNoRoute, j.Name)
	}
	if j.Reduce == nil {
		return fmt.Errorf("%w (job %q)", ErrNoReduce, j.Name)
	}
	if j.NumReducers <= 0 {
		return fmt.Errorf("%w (job %q has %d)", ErrBadReducers, j.Name, j.NumReducers)
	}
	return nil
}
