package mr

import (
	"errors"
	"fmt"
	"hash/fnv"
)

// Pair is one intermediate key/value record emitted by a mapper and consumed
// by a reducer.
type Pair struct {
	Key   string
	Value []byte
}

// Size returns the number of bytes the pair contributes to the shuffle: the
// key plus the value. This is the unit in which the engine's communication
// counters are expressed.
func (p Pair) Size() int { return len(p.Key) + len(p.Value) }

// Mapper transforms one input record into intermediate pairs via emit.
type Mapper interface {
	Map(record []byte, emit func(Pair)) error
}

// Reducer folds all values of one key into zero or more output records via
// emit.
type Reducer interface {
	Reduce(key string, values [][]byte, emit func([]byte)) error
}

// MapperFunc adapts a function to the Mapper interface.
type MapperFunc func(record []byte, emit func(Pair)) error

// Map implements Mapper.
func (f MapperFunc) Map(record []byte, emit func(Pair)) error { return f(record, emit) }

// ReducerFunc adapts a function to the Reducer interface.
type ReducerFunc func(key string, values [][]byte, emit func([]byte)) error

// Reduce implements Reducer.
func (f ReducerFunc) Reduce(key string, values [][]byte, emit func([]byte)) error {
	return f(key, values, emit)
}

// Partitioner maps a key to one of n reduce partitions.
type Partitioner func(key string, n int) int

// HashPartitioner is the default partitioner: FNV-1a hash of the key modulo
// the number of partitions.
func HashPartitioner(key string, n int) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}

// Job describes one MapReduce job. Each map and reduce task runs once: the
// first task that returns an error fails the job, which wraps that error.
type Job struct {
	// Name labels the job in results and errors.
	Name string
	// Mapper and Reducer are required.
	Mapper  Mapper
	Reducer Reducer
	// NumReducers is the number of reduce partitions; it must be positive.
	NumReducers int
	// Partitioner routes keys to partitions; nil means HashPartitioner.
	Partitioner Partitioner
	// MapParallelism and ReduceParallelism bound the number of concurrently
	// running map and reduce tasks. For map tasks 0 means one worker per
	// processor (GOMAXPROCS), never more than the number of partitions; for
	// reduce tasks 0 means the number of partitions (i.e. fully parallel).
	// 1 means sequential execution. Output does not depend on either.
	MapParallelism    int
	ReduceParallelism int
	// ReducerCapacity, when positive, makes the engine fail the job if any
	// reduce partition receives more than this many bytes of input. It
	// models the paper's reducer capacity q at execution time.
	ReducerCapacity int64
	// PartitionHints optionally pre-sizes the per-partition buffers of a run
	// from the planned schema's declared record counts, indexed by partition.
	// Missing or short hints are harmless: buffers grow as usual.
	PartitionHints []PartitionHint
}

// PartitionHint declares the expected size of one reduce partition's input,
// derived from the planned schema.
type PartitionHint struct {
	// Records is the expected number of intermediate records.
	Records int
}

// hint returns the partition's declared hint, or a zero hint.
func (j *Job) hint(p int) PartitionHint {
	if p >= 0 && p < len(j.PartitionHints) {
		return j.PartitionHints[p]
	}
	return PartitionHint{}
}

// Validation errors.
var (
	ErrNoMapper     = errors.New("mr: job has no mapper")
	ErrNoReducer    = errors.New("mr: job has no reducer")
	ErrBadReducers  = errors.New("mr: job needs a positive number of reducers")
	ErrOverCapacity = errors.New("mr: reduce partition exceeds the configured reducer capacity")
)

// validate checks the job configuration.
func (j *Job) validate() error {
	if j.Mapper == nil {
		return fmt.Errorf("%w (job %q)", ErrNoMapper, j.Name)
	}
	if j.Reducer == nil {
		return fmt.Errorf("%w (job %q)", ErrNoReducer, j.Name)
	}
	if j.NumReducers <= 0 {
		return fmt.Errorf("%w (job %q has %d)", ErrBadReducers, j.Name, j.NumReducers)
	}
	return nil
}

func (j *Job) partitioner() Partitioner {
	if j.Partitioner != nil {
		return j.Partitioner
	}
	return HashPartitioner
}
