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
func (ms *MappingSchema) ValidateA2A(set *InputSet) error {
	if ms.Problem != ProblemA2A {
		return fmt.Errorf("core: ValidateA2A called on %v schema", ms.Problem)
	}
	return ms.validate(set, set)
}

// ValidateX2Y checks that the schema is a valid solution of the X2Y mapping
// schema problem for the given pair of input sets: every reducer load is
// within capacity and every cross pair (x, y) shares at least one reducer.
func (ms *MappingSchema) ValidateX2Y(xs, ys *InputSet) error {
	if ms.Problem != ProblemX2Y {
		return fmt.Errorf("core: ValidateX2Y called on %v schema", ms.Problem)
	}
	return ms.validate(xs, ys)
}

// validate is the one pass behind ValidateA2A (xs and ys the same set) and
// ValidateX2Y. Per reducer it checks the recorded load, each member against
// its set and the load recomputed from the sets, which catches a stale Load.
//
// Coverage is kept by rows: row i is a bit set of the second side's inputs
// known to share a reducer with input i of the first (for A2A only j > i
// counts). A reducer with more second-side members than a row has words, and
// more than two first-side members, ORs its member mask into the row of each
// first-side member: at most ny/64 words a member, where marking its pairs
// one by one is a bit per co-member, plus setting and clearing the mask, two
// steps per second-side member. A smaller reducer has fewer pairs than that
// and marks them (an X2Y reducer with one input above q/2 is one X beside
// many Ys). The first uncovered pair is then the first zero of the first row
// that has one.
func (ms *MappingSchema) validate(xs, ys *InputSet) error {
	a2a := ms.Problem == ProblemA2A
	nx, ny := xs.Len(), ys.Len()
	words := (ny + 63) / 64
	rows := make([]uint64, nx*words)
	members := make([]uint64, words)
	xName, pair := "X input", "%w: pair (x=%d, y=%d)"
	if a2a {
		xName, pair = "input", "%w: pair (%d,%d)"
	}
	for r, red := range ms.Reducers {
		if red.Load > ms.Capacity {
			return fmt.Errorf("%w: reducer %d records load %d > q=%d", ErrCapacityExceeded, r, red.Load, ms.Capacity)
		}
		first, second := red.XInputs, red.YInputs
		if a2a {
			first, second = red.Inputs, red.Inputs
		}
		var load Size
		for _, id := range first {
			if id < 0 || id >= nx {
				return fmt.Errorf("%w: reducer %d references %s %d (set has %d inputs)", ErrUnknownInput, r, xName, id, nx)
			}
			load += xs.Size(id)
		}
		if !a2a {
			for _, id := range second {
				if id < 0 || id >= ny {
					return fmt.Errorf("%w: reducer %d references Y input %d (set has %d inputs)", ErrUnknownInput, r, id, ny)
				}
				load += ys.Size(id)
			}
		}
		if load > ms.Capacity {
			return fmt.Errorf("%w: reducer %d holds %d > q=%d", ErrCapacityExceeded, r, load, ms.Capacity)
		}
		switch {
		case len(second) > words && len(first) > 2:
			lo, hi := words, 0 // the first and last word of the mask that are not empty
			for _, id := range second {
				members[id>>6] |= 1 << (id & 63)
				lo, hi = min(lo, id>>6), max(hi, id>>6)
			}
			for _, id := range first {
				from := lo
				if a2a {
					from = id >> 6 // the pairs j > id start in id's own word
				}
				row := rows[id*words : (id+1)*words]
				for w := from; w <= hi; w++ {
					row[w] |= members[w]
				}
			}
			for _, id := range second {
				members[id>>6] = 0
			}
		case a2a:
			for i, a := range first {
				for _, b := range first[i+1:] {
					lo, hi := min(a, b), max(a, b)
					rows[lo*words+hi>>6] |= 1 << (hi & 63)
				}
			}
		default:
			for _, x := range first {
				row := rows[x*words : (x+1)*words]
				for _, y := range second {
					row[y>>6] |= 1 << (y & 63)
				}
			}
		}
	}
	var past uint64 // the bits of the last word past the second side's last input
	if ny&63 != 0 {
		past = ^uint64(0) << (ny & 63)
	}
	for i := 0; i < nx; i++ {
		row := rows[i*words : (i+1)*words]
		row[words-1] |= past
		from := 0
		if a2a {
			from = i >> 6
			row[from] |= 2<<(i&63) - 1 // only j > i
		}
		for w := from; w < words; w++ {
			if missing := ^row[w]; missing != 0 {
				return fmt.Errorf(pair, ErrPairUncovered, i, w<<6+bits.TrailingZeros64(missing))
			}
		}
	}
	return nil
}
