package core

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
)

// Problem identifies which mapping-schema problem a schema solves.
type Problem int

const (
	// ProblemA2A is the all-to-all problem: every pair of inputs from a
	// single set must share at least one reducer.
	ProblemA2A Problem = iota
	// ProblemX2Y is the X-to-Y problem: every pair with one input from X and
	// one input from Y must share at least one reducer.
	ProblemX2Y
)

// String implements fmt.Stringer.
func (p Problem) String() string {
	switch p {
	case ProblemA2A:
		return "A2A"
	case ProblemX2Y:
		return "X2Y"
	default:
		return fmt.Sprintf("Problem(%d)", int(p))
	}
}

// Reducer is one reducer of a mapping schema: the set of input IDs assigned
// to it and their total size (its load). For X2Y schemas, X-side inputs are
// recorded in XInputs and Y-side inputs in YInputs; for A2A schemas only
// Inputs is used.
type Reducer struct {
	// Inputs holds the assigned input IDs for A2A schemas, in ascending
	// order.
	Inputs []int
	// XInputs and YInputs hold the assigned IDs per side for X2Y schemas, in
	// ascending order.
	XInputs []int
	YInputs []int
	// Load is the sum of the sizes of all assigned inputs.
	Load Size
}

// MappingSchema is an assignment of inputs to reducers. It is produced by the
// algorithm packages and validated/priced here.
type MappingSchema struct {
	// Problem says whether the schema solves A2A or X2Y.
	Problem Problem
	// Capacity is the reducer capacity q the schema was built for.
	Capacity Size
	// Reducers is the list of reducers with their assigned inputs.
	Reducers []Reducer
	// Algorithm names the algorithm that produced the schema, for reporting.
	Algorithm string
}

// Validation errors.
var (
	// ErrCapacityExceeded is returned when some reducer's load exceeds q.
	ErrCapacityExceeded = errors.New("core: reducer capacity exceeded")
	// ErrPairUncovered is returned when some required pair of inputs shares
	// no reducer.
	ErrPairUncovered = errors.New("core: required pair not covered by any reducer")
	// ErrUnknownInput is returned when a reducer references an input ID that
	// is not in the input set.
	ErrUnknownInput = errors.New("core: reducer references unknown input")
	// ErrInfeasible is returned by algorithms when no schema can exist, e.g.
	// when two inputs cannot fit together in any reducer.
	ErrInfeasible = errors.New("core: no valid mapping schema exists for this instance")
)

// NumReducers returns the number of reducers used by the schema.
func (ms *MappingSchema) NumReducers() int { return len(ms.Reducers) }

// AddReducerA2A appends an A2A reducer holding the given input IDs, computing
// its load from the input set. The IDs are copied and sorted.
func (ms *MappingSchema) AddReducerA2A(set *InputSet, ids []int) {
	cp := append([]int(nil), ids...)
	sort.Ints(cp)
	var load Size
	for _, id := range cp {
		load += set.Size(id)
	}
	ms.Reducers = append(ms.Reducers, Reducer{Inputs: cp, Load: load})
}

// AddReducerX2Y appends an X2Y reducer holding the given X-side and Y-side
// input IDs, computing its load from the two input sets.
func (ms *MappingSchema) AddReducerX2Y(xs, ys *InputSet, xIDs, yIDs []int) {
	cx := append([]int(nil), xIDs...)
	cy := append([]int(nil), yIDs...)
	sort.Ints(cx)
	sort.Ints(cy)
	var load Size
	for _, id := range cx {
		load += xs.Size(id)
	}
	for _, id := range cy {
		load += ys.Size(id)
	}
	ms.Reducers = append(ms.Reducers, Reducer{XInputs: cx, YInputs: cy, Load: load})
}

// ValidateA2A checks that the schema is a valid solution of the A2A mapping
// schema problem for the given input set: every reducer load is within
// capacity and every pair of distinct inputs shares at least one reducer.
// When the set has a single input, an empty schema is valid (there is no pair
// to cover).
//
// Coverage is kept by rows: row i is a bit set of the inputs j >= i known to
// share a reducer with input i. A reducer with more members than a row has
// words ORs its member mask into the row of each member — at most m/64 words
// a member, where marking its pairs one by one is a bit per co-member; a
// smaller reducer has fewer pairs than that and marks them. The first
// uncovered pair is then the first zero past the diagonal of the first row
// that has one.
func (ms *MappingSchema) ValidateA2A(set *InputSet) error {
	if ms.Problem != ProblemA2A {
		return fmt.Errorf("core: ValidateA2A called on %v schema", ms.Problem)
	}
	m := set.Len()
	words := (m + 63) / 64
	rows := make([]uint64, m*words)
	members := make([]uint64, words)
	for r, red := range ms.Reducers {
		if err := ms.checkLoad(r, red); err != nil {
			return err
		}
		for _, id := range red.Inputs {
			if id < 0 || id >= m {
				return fmt.Errorf("%w: reducer %d references input %d (set has %d inputs)", ErrUnknownInput, r, id, m)
			}
		}
		// Recompute the load from the set to catch stale Load fields.
		var load Size
		for _, id := range red.Inputs {
			load += set.Size(id)
		}
		if load > ms.Capacity {
			return fmt.Errorf("%w: reducer %d holds %d > q=%d", ErrCapacityExceeded, r, load, ms.Capacity)
		}
		if len(red.Inputs) <= words {
			for i, a := range red.Inputs {
				for _, b := range red.Inputs[i+1:] {
					lo, hi := min(a, b), max(a, b)
					rows[lo*words+hi>>6] |= 1 << (hi & 63)
				}
			}
			continue
		}
		last := 0 // the last word of the mask that is not empty
		for _, id := range red.Inputs {
			members[id>>6] |= 1 << (id & 63)
			last = max(last, id>>6)
		}
		for _, id := range red.Inputs {
			row := rows[id*words : (id+1)*words]
			for w := id >> 6; w <= last; w++ {
				row[w] |= members[w]
			}
		}
		for _, id := range red.Inputs {
			members[id>>6] = 0
		}
	}
	for i := 0; i < m; i++ {
		row := rows[i*words : (i+1)*words]
		for w := i >> 6; w < words; w++ {
			missing := ^row[w]
			if w == i>>6 {
				missing &= ^uint64(1) << (i & 63) // only j > i
			}
			if w == words-1 && m&63 != 0 {
				missing &= 1<<(m&63) - 1 // only j < m
			}
			if missing != 0 {
				return fmt.Errorf("%w: pair (%d,%d)", ErrPairUncovered, i, w<<6+bits.TrailingZeros64(missing))
			}
		}
	}
	return nil
}

// ValidateX2Y checks that the schema is a valid solution of the X2Y mapping
// schema problem for the given pair of input sets: every reducer load is
// within capacity and every cross pair (x, y) shares at least one reducer.
func (ms *MappingSchema) ValidateX2Y(xs, ys *InputSet) error {
	if ms.Problem != ProblemX2Y {
		return fmt.Errorf("core: ValidateX2Y called on %v schema", ms.Problem)
	}
	nx, ny := xs.Len(), ys.Len()
	covered := make([]bool, nx*ny)
	for r, red := range ms.Reducers {
		if err := ms.checkLoad(r, red); err != nil {
			return err
		}
		var load Size
		for _, id := range red.XInputs {
			if id < 0 || id >= nx {
				return fmt.Errorf("%w: reducer %d references X input %d (set has %d inputs)", ErrUnknownInput, r, id, nx)
			}
			load += xs.Size(id)
		}
		for _, id := range red.YInputs {
			if id < 0 || id >= ny {
				return fmt.Errorf("%w: reducer %d references Y input %d (set has %d inputs)", ErrUnknownInput, r, id, ny)
			}
			load += ys.Size(id)
		}
		if load > ms.Capacity {
			return fmt.Errorf("%w: reducer %d holds %d > q=%d", ErrCapacityExceeded, r, load, ms.Capacity)
		}
		for _, x := range red.XInputs {
			for _, y := range red.YInputs {
				covered[x*ny+y] = true
			}
		}
	}
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			if !covered[x*ny+y] {
				return fmt.Errorf("%w: pair (x=%d, y=%d)", ErrPairUncovered, x, y)
			}
		}
	}
	return nil
}

// checkLoad verifies the recorded Load against the capacity; the per-set
// recomputation in the validators catches stale loads.
func (ms *MappingSchema) checkLoad(r int, red Reducer) error {
	if red.Load > ms.Capacity {
		return fmt.Errorf("%w: reducer %d records load %d > q=%d", ErrCapacityExceeded, r, red.Load, ms.Capacity)
	}
	return nil
}
