package a2a

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/core"
)

// ErrTooLargeForExact is returned when the exact solver is asked to handle an
// instance with more inputs than its configured limit.
var ErrTooLargeForExact = errors.New("a2a: instance too large for the exact solver")

// ErrNodeBudget indicates the exact solver stopped at its node budget; the
// returned schema is the best one found (valid, but possibly not optimal).
var ErrNodeBudget = errors.New("a2a: exact solver node budget exhausted")

// maxExactInputs is the search's hard ceiling: it keeps every set of inputs —
// a reducer's members, the inputs one input is already covered with — in one
// machine word.
const maxExactInputs = 64

// ExactOptions configures the exact solver.
type ExactOptions struct {
	// MaxInputs caps the instance size; 0 means the default of 12. Values
	// above 64 act as 64: the search keeps input sets in one machine word,
	// and an instance with more inputs is ErrTooLargeForExact whatever the
	// option says.
	MaxInputs int
	// MaxNodes caps the number of explored search nodes; 0 means the default
	// of 2 million.
	MaxNodes int
}

// Exact computes a minimum-reducer mapping schema by branch and bound. At
// every node it picks the lexicographically first uncovered pair and branches
// on all ways to cover it: adding the missing input(s) to an existing reducer
// that still has room (reducers in the order they were opened), or opening a
// new reducer with exactly that pair. Branches that cannot beat the incumbent
// (seeded with the best heuristic schema) are pruned.
//
// The search state is one uint64 per reducer (its members) and one per input
// (the inputs it is already covered with); a branch is applied and undone by
// mask and a node allocates nothing, so the cost of a call is its node count
// times a few dozen nanoseconds. That representation is why no instance above
// 64 inputs is attempted.
//
// The A2A mapping schema problem is NP-complete, so Exact is intended for
// small instances: the planner runs it on up to 12 inputs under a
// 200,000-node cap, and the tests hold the heuristics and the lower bounds to its proved
// optimum.
func Exact(set *core.InputSet, q core.Size, opts ExactOptions) (*core.MappingSchema, error) {
	ms, _, err := exact(set, q, opts)
	return ms, err
}

// exact is Exact that also reports how many search nodes it visited.
func exact(set *core.InputSet, q core.Size, opts ExactOptions) (*core.MappingSchema, int, error) {
	const algorithm = "a2a/exact"
	if opts.MaxInputs == 0 {
		opts.MaxInputs = 12
	}
	if opts.MaxNodes == 0 {
		opts.MaxNodes = 2_000_000
	}
	if limit := min(opts.MaxInputs, maxExactInputs); set.Len() > limit {
		return nil, 0, fmt.Errorf("%w: %d inputs > limit %d", ErrTooLargeForExact, set.Len(), limit)
	}
	if set.Len() == 0 {
		return emptySchema(q, algorithm), 0, nil
	}
	if err := CheckFeasible(set, q); err != nil {
		return nil, 0, err
	}
	m := set.Len()
	if m == 1 {
		return emptySchema(q, algorithm), 0, nil
	}
	if set.TotalSize() <= q {
		return singleReducer(set, q, algorithm), 0, nil
	}

	// Incumbent: best heuristic schema available.
	incumbent, err := Solve(set, q)
	if err != nil {
		return nil, 0, err
	}
	best := incumbent.NumReducers()

	// The search never holds more than best reducers, so nothing grows after
	// this.
	s := &wordSearch{
		q:         q,
		sizes:     set.Sizes(),
		full:      ^uint64(0) >> (64 - uint(m)),
		rows:      make([]uint64, m),
		remaining: m * (m - 1) / 2,
		members:   make([]uint64, best),
		loads:     make([]core.Size, best),
		best:      best,
		bestSets:  make([]uint64, best),
		maxNodes:  opts.MaxNodes,
		lower:     LowerBounds(set, q).Reducers,
	}
	for i := range s.rows {
		s.rows[i] = 1 << uint(i)
	}
	for r, red := range incumbent.Reducers {
		for _, id := range red.Inputs {
			s.bestSets[r] |= 1 << uint(id)
		}
	}
	s.search(0)

	ms := &core.MappingSchema{
		Problem:   core.ProblemA2A,
		Capacity:  q,
		Algorithm: algorithm,
		Reducers:  make([]core.Reducer, 0, s.best),
	}
	for _, mask := range s.bestSets[:s.best] {
		red := core.Reducer{Inputs: make([]int, 0, bits.OnesCount64(mask))}
		for ; mask != 0; mask &= mask - 1 {
			id := bits.TrailingZeros64(mask)
			red.Inputs = append(red.Inputs, id)
			red.Load += s.sizes[id]
		}
		ms.Reducers = append(ms.Reducers, red)
	}
	if s.exhausted {
		return ms, s.nodes, ErrNodeBudget
	}
	return ms, s.nodes, nil
}

// wordSearch is the branch and bound's state. Sets of inputs are bit masks
// over the input IDs.
type wordSearch struct {
	q     core.Size
	sizes []core.Size
	full  uint64 // every input

	// rows[i] holds the inputs i is already covered with, and i itself, so a
	// row equal to full has no pair left to cover.
	rows      []uint64
	remaining int // uncovered pairs

	// The open reducers are members[:n] and loads[:n].
	members []uint64
	loads   []core.Size
	n       int

	// bestSets[:best] is the best schema found so far.
	best     int
	bestSets []uint64

	nodes     int
	maxNodes  int
	exhausted bool
	lower     int
}

// search explores the ways to complete the current partial schema. from is a
// row below which every row is full: coverage only grows down a path, so a
// node resumes the first-uncovered scan at its parent's row.
func (s *wordSearch) search(from int) {
	if s.exhausted || s.best == s.lower {
		return
	}
	s.nodes++
	if s.nodes > s.maxNodes {
		s.exhausted = true
		return
	}
	if s.remaining == 0 {
		if s.n < s.best {
			s.best = s.n
			copy(s.bestSets, s.members[:s.n])
		}
		return
	}
	if s.n >= s.best {
		return
	}
	// The lexicographically first uncovered pair: rows are symmetric, so the
	// first row that is not full misses no input below itself.
	i := from
	for s.rows[i] == s.full {
		i++
	}
	j := bits.TrailingZeros64(^s.rows[i])
	bi, bj := uint64(1)<<uint(i), uint64(1)<<uint(j)
	wi, wj := s.sizes[i], s.sizes[j]

	// Option A: place the pair into an existing reducer.
	members, loads := s.members[:s.n], s.loads[:s.n]
	for r, was := range members {
		var extra core.Size
		switch was & (bi | bj) {
		case bi | bj:
			continue // the pair would already be covered; cannot happen
		case bi:
			extra = wj
		case bj:
			extra = wi
		default:
			extra = wi + wj
		}
		if loads[r]+extra > s.q {
			continue
		}
		var metI, metJ uint64
		now := was
		if now&bi == 0 {
			metI = s.join(i, now)
			now |= bi
		}
		if now&bj == 0 {
			metJ = s.join(j, now)
			now |= bj
		}
		members[r] = now
		loads[r] += extra

		s.search(i)

		members[r] = was
		loads[r] -= extra
		s.leave(j, metJ)
		s.leave(i, metI)
	}

	// Option B: open a new reducer with exactly this pair.
	if s.n+1 < s.best && wi+wj <= s.q {
		s.members[s.n] = bi | bj
		s.loads[s.n] = wi + wj
		s.n++
		s.join(j, bi)
		s.search(i)
		s.leave(j, bi)
		s.n--
	}
}

// join covers input a with every one of members it is not covered with yet
// and returns those, for leave to undo.
func (s *wordSearch) join(a int, members uint64) uint64 {
	met := members &^ s.rows[a]
	s.rows[a] |= met
	ba := uint64(1) << uint(a)
	for w := met; w != 0; w &= w - 1 {
		s.rows[bits.TrailingZeros64(w)] |= ba
	}
	s.remaining -= bits.OnesCount64(met)
	return met
}

// leave undoes the join of a that returned met.
func (s *wordSearch) leave(a int, met uint64) {
	s.rows[a] &^= met
	ba := uint64(1) << uint(a)
	for w := met; w != 0; w &= w - 1 {
		s.rows[bits.TrailingZeros64(w)] &^= ba
	}
	s.remaining += bits.OnesCount64(met)
}
