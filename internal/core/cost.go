package core

import (
	"fmt"
	"math"
	"sort"
)

// Cost summarises the price of a mapping schema in the terms the paper uses:
// how many reducers it needs, how much data travels from the map phase to the
// reduce phase, how often inputs are replicated, and how well the load is
// spread across reducers (the parallelism side of the tradeoffs).
type Cost struct {
	// Reducers is the number of reducers the schema uses.
	Reducers int
	// Communication is the total amount of data transmitted from the map
	// phase to the reduce phase: the sum of reducer loads, i.e. every copy of
	// every input counts with its full size.
	Communication Size
	// ReplicationRate is Communication divided by the total size of the
	// inputs: the average number of copies made of each unit of data.
	ReplicationRate float64
	// MaxLoad is the largest reducer load. The wall-clock time of the reduce
	// phase is proportional to MaxLoad when every reducer runs in parallel,
	// so a smaller MaxLoad means more effective parallelism.
	MaxLoad Size
	// MinLoad is the smallest reducer load.
	MinLoad Size
	// MeanLoad is the average reducer load.
	MeanLoad float64
	// LoadStdDev is the standard deviation of reducer loads; a measure of
	// skew across reducers.
	LoadStdDev float64
	// Makespan estimates the reduce-phase completion time (in size units of
	// work) when the reducers are scheduled on `workers` parallel workers
	// with a longest-processing-time greedy scheduler. It is filled in by
	// CostWithWorkers; Cost leaves it at zero.
	Makespan Size
	// Workers is the number of parallel workers Makespan was computed for.
	Workers int
}

// SchemaCost computes the cost of a mapping schema. Reducer loads are taken
// from the recorded Load fields (the validators check those against the input
// sets). totalInputSizes are the total sizes of the instance's input sets —
// the one set of an A2A instance, X and Y of an X2Y one — and their sum
// divides the replication rate. Communication saturates at math.MaxInt64;
// MeanLoad and ReplicationRate are computed from float64 sums, so they hold
// past it.
func SchemaCost(ms *MappingSchema, totalInputSizes ...Size) Cost {
	c := Cost{Reducers: len(ms.Reducers)}
	if len(ms.Reducers) == 0 {
		return c
	}
	c.MinLoad = ms.Reducers[0].Load
	var sum float64
	for _, r := range ms.Reducers {
		c.Communication = AddSat(c.Communication, r.Load)
		sum += float64(r.Load)
		if r.Load > c.MaxLoad {
			c.MaxLoad = r.Load
		}
		if r.Load < c.MinLoad {
			c.MinLoad = r.Load
		}
	}
	c.MeanLoad = sum / float64(len(ms.Reducers))
	var sq float64
	for _, r := range ms.Reducers {
		d := float64(r.Load) - c.MeanLoad
		sq += d * d
	}
	c.LoadStdDev = math.Sqrt(sq / float64(len(ms.Reducers)))
	var total float64
	for _, t := range totalInputSizes {
		total += float64(t)
	}
	if total > 0 {
		c.ReplicationRate = sum / total
	}
	return c
}

// AddSat returns a + b for sizes that are not negative, or math.MaxInt64 when
// the sum would pass it.
func AddSat(a, b Size) Size {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// MulSat returns a · b for sizes that are not negative, or math.MaxInt64 when
// the product would pass it.
func MulSat(a, b Size) Size {
	if a != 0 && b > math.MaxInt64/a {
		return math.MaxInt64
	}
	return a * b
}

// CeilDiv returns ⌈a / b⌉ for a ≥ 0 and b > 0, without the overflow of
// (a + b − 1) / b near math.MaxInt64.
func CeilDiv(a, b Size) Size {
	return a/b + min(a%b, 1)
}

// CostWithWorkers computes SchemaCost and additionally estimates the
// reduce-phase makespan when the schema's reducers are executed on the given
// number of parallel workers using a longest-processing-time-first greedy
// schedule.
func CostWithWorkers(ms *MappingSchema, totalInputSize Size, workers int) Cost {
	c := SchemaCost(ms, totalInputSize)
	c.Workers = workers
	c.Makespan = Makespan(ms, workers)
	return c
}

// Makespan estimates the completion time of the reduce phase (in size units
// of work) when the reducers run on `workers` parallel workers, scheduled
// greedily by decreasing load (LPT). With workers >= len(reducers) the
// makespan equals the maximum load; with a single worker it equals the total
// communication.
func Makespan(ms *MappingSchema, workers int) Size {
	if workers <= 0 || len(ms.Reducers) == 0 {
		return 0
	}
	loads := make([]Size, len(ms.Reducers))
	for i, r := range ms.Reducers {
		loads[i] = r.Load
	}
	sort.Slice(loads, func(i, j int) bool { return loads[i] > loads[j] })
	if workers > len(loads) {
		workers = len(loads)
	}
	// Greedy LPT: assign each job to the currently least-loaded worker.
	work := make([]Size, workers)
	for _, l := range loads {
		minIdx := 0
		for w := 1; w < workers; w++ {
			if work[w] < work[minIdx] {
				minIdx = w
			}
		}
		work[minIdx] += l
	}
	var max Size
	for _, w := range work {
		if w > max {
			max = w
		}
	}
	return max
}

// String implements fmt.Stringer, rendering the headline numbers.
func (c Cost) String() string {
	return fmt.Sprintf("reducers=%d comm=%d repl=%.3f maxLoad=%d", c.Reducers, c.Communication, c.ReplicationRate, c.MaxLoad)
}
