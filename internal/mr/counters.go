package mr

import (
	"fmt"
	"time"
)

// Counters aggregates the measurements of one job run. Shuffle figures count
// the bytes of the record copies sent to reducers, and nothing else: the
// paper's communication cost, the total amount of data transmitted from the
// map phase to the reduce phase.
type Counters struct {
	// MapInputRecords is the number of records pulled from the source.
	MapInputRecords int64
	// ShuffleRecords and ShuffleBytes describe the copies sent to reducers.
	// ShuffleBytes is the communication cost.
	ShuffleRecords int64
	ShuffleBytes   int64
	// ReduceOutputRecords and ReduceOutputBytes describe the reducer output.
	ReduceOutputRecords int64
	ReduceOutputBytes   int64
	// SpillRuns, SpillPartitions, and SpillBytes describe spill-to-disk
	// activity of a run under a memory budget: how many runs were written,
	// how many distinct reducers spilled at least once, and the total spill
	// file bytes written. All three stay zero for unbounded runs.
	SpillRuns       int64
	SpillPartitions int64
	SpillBytes      int64
	// ReducerLoads holds the shuffle bytes received by each reducer.
	ReducerLoads []int64
	// MaxReducerLoad is the largest entry of ReducerLoads.
	MaxReducerLoad int64
	// MapWall and ReduceWall are the wall-clock durations of the phases.
	MapWall    time.Duration
	ReduceWall time.Duration
}

// LoadImbalance returns MaxReducerLoad divided by the mean reducer load; 1.0
// is perfectly balanced. It returns 0 when nothing was shuffled.
func (c *Counters) LoadImbalance() float64 {
	if len(c.ReducerLoads) == 0 || c.ShuffleBytes == 0 {
		return 0
	}
	mean := float64(c.ShuffleBytes) / float64(len(c.ReducerLoads))
	if mean == 0 {
		return 0
	}
	return float64(c.MaxReducerLoad) / mean
}

// String renders the headline counters.
func (c *Counters) String() string {
	return fmt.Sprintf("mapIn=%d shuffle=%dB reducers=%d maxLoad=%dB out=%d",
		c.MapInputRecords, c.ShuffleBytes, len(c.ReducerLoads), c.MaxReducerLoad, c.ReduceOutputRecords)
}

// Result is the outcome of a job run: the emitted output records grouped by
// reducer, plus counters.
type Result struct {
	// Output holds the emitted records per reducer.
	Output [][][]byte
	// Counters are the run's measurements.
	Counters Counters
}

// FlatOutput returns all output records of all reducers, reducer by reducer.
func (r *Result) FlatOutput() [][]byte {
	var out [][]byte
	for _, part := range r.Output {
		out = append(out, part...)
	}
	return out
}
