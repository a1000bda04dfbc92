package mr

import (
	"fmt"
	"strconv"

	"repro/internal/core"
)

// Mapping-schema-driven jobs: the paper's algorithms decide, ahead of time,
// which reducers every input must be replicated to. SchemaPartitioner and
// ReducerKey make the engine follow such a schema exactly: mappers emit one
// pair per (input, reducer) assignment, keyed by the reducer index, and the
// partitioner routes the pair to exactly that reduce partition.

// ReducerKey encodes a reducer index as a shuffle key.
func ReducerKey(r int) string { return "r" + strconv.Itoa(r) }

// ParseReducerKey decodes a key produced by ReducerKey.
func ParseReducerKey(key string) (int, error) {
	if len(key) < 2 || key[0] != 'r' {
		return 0, fmt.Errorf("mr: %q is not a reducer key", key)
	}
	return strconv.Atoi(key[1:])
}

// SchemaPartitioner routes pairs keyed with ReducerKey to the matching
// partition. Pairs with other keys fall back to the hash partitioner.
func SchemaPartitioner(key string, n int) int {
	if r, err := ParseReducerKey(key); err == nil && r >= 0 && r < n {
		return r
	}
	return HashPartitioner(key, n)
}

// AssignmentsA2A returns, for every input ID of an A2A schema, the list of
// reducer indexes the input must be sent to. Mappers use this to emit one
// copy of the input per assigned reducer.
func AssignmentsA2A(ms *core.MappingSchema, numInputs int) [][]int {
	return assignments(ms.Reducers, numInputs, func(red *core.Reducer) []int { return red.Inputs })
}

// AssignmentsX2Y returns the per-input reducer assignments for an X2Y schema,
// one slice per side.
func AssignmentsX2Y(ms *core.MappingSchema, numX, numY int) (x, y [][]int) {
	return assignments(ms.Reducers, numX, func(red *core.Reducer) []int { return red.XInputs }),
		assignments(ms.Reducers, numY, func(red *core.Reducer) []int { return red.YInputs })
}

// assignments inverts one side of a schema: out[id] lists, in increasing
// order, the reducers whose side holds input id; IDs outside [0, n) are
// skipped. A counting pass sizes every list first, so the lists are cut from
// one backing array instead of being grown one append at a time.
func assignments(reducers []core.Reducer, n int, side func(*core.Reducer) []int) [][]int {
	counts := make([]int, n)
	total := 0
	for r := range reducers {
		for _, id := range side(&reducers[r]) {
			if id >= 0 && id < n {
				counts[id]++
				total++
			}
		}
	}
	out := make([][]int, n)
	backing := make([]int, total)
	for id, c := range counts {
		if c > 0 { // an unassigned input keeps a nil list
			out[id], backing = backing[:0:c], backing[c:]
		}
	}
	for r := range reducers {
		for _, id := range side(&reducers[r]) {
			if id >= 0 && id < n {
				out[id] = append(out[id], r)
			}
		}
	}
	return out
}
