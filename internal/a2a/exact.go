package a2a

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/core"
)

// ErrTooLargeForExact is returned when the exact solver is asked to handle an
// instance with more inputs than its configured limit.
var ErrTooLargeForExact = errors.New("a2a: instance too large for the exact solver")

// ErrNodeBudget indicates the exact solver stopped at its node budget; the
// returned schema is the best one found (valid, but possibly not optimal).
var ErrNodeBudget = errors.New("a2a: exact solver node budget exhausted")

// MaxExactInputs is the search's hard ceiling: it keeps every set of inputs —
// a reducer's members, the inputs one input is already covered with — in one
// machine word.
const MaxExactInputs = 64

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

// Exact computes a minimum-reducer mapping schema by branch and bound. It
// takes the inputs largest first (by descending size, ties by ascending ID)
// and at every node picks the first uncovered pair in that order, so it
// starts from the two largest inputs, the pair with the fewest ways to be
// covered. It branches on all ways to cover the pair: adding the missing
// input(s) to an existing reducer that still has room (reducers in the order
// they were opened), or opening a new reducer with exactly that pair.
// Branches that cannot beat the incumbent (seeded with the best heuristic
// schema) are pruned, and the search stops once it meets LowerBounds. The
// schema uses the caller's input IDs whatever the order searched.
//
// The search state is one uint64 per reducer (its members) and one per input
// (the inputs it is already covered with); a branch is applied and undone by
// mask and a node allocates nothing. The existing reducers a pair can join
// come from masks over the reducers too — per input, the open reducers
// holding it; per level, those with room for exactly the smallest level
// distinct sizes — so a node looks at the reducers it branches on, not at
// every open one, in the same order a scan would. Only reducers past the
// 64th, which no search of the planner's 12 inputs opens, are scanned. The
// input sets are why no instance above 64 inputs is attempted.
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
	if limit := min(opts.MaxInputs, MaxExactInputs); set.Len() > limit {
		return nil, 0, fmt.Errorf("%w: %d inputs > limit %d", ErrTooLargeForExact, set.Len(), limit)
	}
	if set.Len() == 0 {
		return emptySchema(q, algorithm), 0, nil
	}
	if err := CheckFeasible(set, q); err != nil {
		return nil, 0, err
	}
	if set.Len() == 1 {
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
	reducers, nodes, exhausted := ExactSplit(set.Sizes(), 0, q, incumbent.Reducers, LowerBounds(set, q).Reducers, opts.MaxNodes)
	ms := emptySchema(q, algorithm)
	ms.Reducers = reducers
	if exhausted {
		return ms, nodes, ErrNodeBudget
	}
	return ms, nodes, nil
}

// ExactSplit is Exact's search over the inputs of the given sizes, from an
// incumbent schema's reducers, stopping early at lower reducers. A split of
// 0 covers every pair; a positive one starts with the pairs on one side of
// it met, as GreedySplit describes, for the X2Y instance of X = sizes[:split]
// and Y = sizes[split:], whose incumbent lists XInputs and YInputs. The
// caller has checked that there are at most MaxExactInputs inputs and that
// every required pair fits in q. It returns the best schema's reducers, the
// nodes it visited, and whether maxNodes ran out first.
//
// The search takes the inputs largest first: each side of the split (the
// whole set when split is 0) by descending size, ties by ascending ID, so
// the first uncovered pair it branches on is the most constrained one. The
// incumbent is relabelled to that order and the schema found is mapped back
// to the caller's IDs.
func ExactSplit(sizes []core.Size, split int, q core.Size, incumbent []core.Reducer, lower, maxNodes int) ([]core.Reducer, int, bool) {
	return exactSplitIn(largestFirst(sizes, split), sizes, split, q, incumbent, lower, maxNodes)
}

// largestFirst is the order ExactSplit searches the inputs in: order[p] is
// the caller's ID of the p-th input taken.
func largestFirst(sizes []core.Size, split int) []int {
	order := make([]int, len(sizes))
	for id := range order {
		order[id] = id
	}
	descending := func(a, b int) int { return cmp.Compare(sizes[b], sizes[a]) }
	slices.SortStableFunc(order[:split], descending)
	slices.SortStableFunc(order[split:], descending)
	return order
}

// exactSplitIn is ExactSplit taking the inputs in the given order, which
// keeps X before Y.
func exactSplitIn(order []int, sizes []core.Size, split int, q core.Size, incumbent []core.Reducer, lower, maxNodes int) ([]core.Reducer, int, bool) {
	m, best := len(sizes), len(incumbent)
	// pos[id] is the place of the caller's input id in order.
	searched, pos := make([]core.Size, m), make([]int, m)
	for p, id := range order {
		searched[p], pos[id] = sizes[id], p
	}
	// The search never holds more than best reducers, so nothing grows after
	// this.
	s := &wordSearch{
		q:         q,
		sizes:     searched,
		full:      ^uint64(0) >> (64 - uint(m)),
		rows:      make([]uint64, m+1),
		members:   make([]uint64, best),
		loads:     make([]core.Size, best),
		holds:     make([]uint64, m),
		at:        make([]uint64, m+1),
		level:     make([]int, min(best, maskedReducers)),
		rank:      make([]int, m),
		pairLevel: make([]int, m*m),
		best:      best,
		bestSets:  make([]uint64, best),
		maxNodes:  maxNodes,
		lower:     lower,
	}
	xSide := uint64(1)<<uint(split) - 1
	for i := range m {
		switch {
		case split == 0:
			s.rows[i] = 1 << uint(i)
		case i < split:
			s.rows[i] = xSide
		default:
			s.rows[i] = s.full &^ xSide
		}
	}
	s.ranked = slices.Clone(searched)
	slices.Sort(s.ranked)
	s.ranked = slices.Compact(s.ranked)
	for i, w := range searched {
		s.rank[i], _ = slices.BinarySearch(s.ranked, w)
	}
	for i, wi := range searched {
		for j, wj := range searched {
			s.pairLevel[i*m+j] = s.levelAt(q-wi-wj, len(s.ranked))
		}
	}
	for r, red := range incumbent {
		for _, id := range red.Inputs {
			s.bestSets[r] |= 1 << uint(pos[id])
		}
		for _, id := range red.XInputs {
			s.bestSets[r] |= 1 << uint(pos[id])
		}
		for _, id := range red.YInputs {
			s.bestSets[r] |= 1 << uint(pos[split+id])
		}
	}
	s.search(0)

	reducers := make([]core.Reducer, 0, s.best)
	for _, mask := range s.bestSets[:s.best] {
		ids := make([]int, 0, bits.OnesCount64(mask))
		var load core.Size
		for ; mask != 0; mask &= mask - 1 {
			id := order[bits.TrailingZeros64(mask)]
			ids = append(ids, id)
			load += sizes[id]
		}
		slices.Sort(ids)
		reducers = append(reducers, splitReducer(ids, split, load))
	}
	return reducers, s.nodes, s.exhausted
}

// maskedReducers is how many reducers the search's reducer masks cover: one
// machine word. Reducers past it are scanned.
const maskedReducers = 64

// wordSearch is the branch and bound's state. Sets of inputs are bit masks
// over the input IDs, sets of reducers bit masks over the first
// maskedReducers reducer indexes.
type wordSearch struct {
	q     core.Size
	sizes []core.Size
	full  uint64 // every input

	// rows[i] holds the inputs i is already covered with, and i itself, so a
	// row equal to full has no pair left to cover; rows[m] is empty.
	rows []uint64

	// The open reducers are members[:n] and loads[:n].
	members []uint64
	loads   []core.Size
	n       int

	// holds[x] is the masked open reducers input x is a member of. ranked
	// lists the distinct sizes ascending and rank[x] is the place of x's size
	// in it; a masked open reducer r has room for exactly the first level[r]
	// of them, and at[l] is the masked open reducers at level l, so the
	// reducers with room for x are those at levels above rank[x].
	// pairLevel[i*m+j] is the level of a reducer holding just i and j.
	holds     []uint64
	at        []uint64
	level     []int
	rank      []int
	ranked    []core.Size
	pairLevel []int

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
	// The lexicographically first uncovered pair: rows are symmetric, so the
	// first row that is not full misses no input below itself. The row past
	// the last input is never full.
	i := from
	for s.rows[i] == s.full {
		i++
	}
	if i == len(s.sizes) {
		if s.n < s.best {
			s.best = s.n
			copy(s.bestSets, s.members[:s.n])
		}
		return
	}
	if s.n >= s.best {
		return
	}
	j := bits.TrailingZeros64(^s.rows[i])

	// Option A: place the pair into an existing reducer, taking the
	// reducers in ascending order as a scan of every open one would. Among
	// the masked ones the candidates are those that hold one of the two and
	// have room for the other, and those that hold neither and have room for
	// both: room for the larger, then a look at the load. A reducer has room
	// for the sizes of the ranks below its level.
	ri, rj := s.rank[i], s.rank[j]
	small, large := min(ri, rj), max(ri, rj)
	var roomLarge uint64
	level := len(s.ranked)
	for ; level > large; level-- {
		roomLarge |= s.at[level]
	}
	roomSmall := roomLarge
	for ; level > small; level-- {
		roomSmall |= s.at[level]
	}
	roomI, roomJ := roomSmall, roomLarge
	if ri == large {
		roomI, roomJ = roomLarge, roomSmall
	}
	holdsI, holdsJ := s.holds[i], s.holds[j]
	both := roomLarge &^ (holdsI | holdsJ)
	for c, room := both, s.q-s.sizes[i]-s.sizes[j]; c != 0; c &= c - 1 {
		if r := bits.TrailingZeros64(c); s.loads[r] > room {
			both &^= 1 << uint(r)
		}
	}
	for cands := holdsI&^holdsJ&roomJ | holdsJ&^holdsI&roomI | both; cands != 0; cands &= cands - 1 {
		s.place(bits.TrailingZeros64(cands), i, j)
	}
	for r := maskedReducers; r < s.n; r++ {
		s.place(r, i, j)
	}

	// Option B: open a new reducer with exactly this pair.
	bi, bj := uint64(1)<<uint(i), uint64(1)<<uint(j)
	if wi, wj := s.sizes[i], s.sizes[j]; s.n+1 < s.best && wi+wj <= s.q {
		r := s.n
		s.members[r] = bi | bj
		s.loads[r] = wi + wj
		s.n++
		masked, bit := r < maskedReducers, uint64(1)<<uint(r&63)
		if masked {
			s.holds[i] |= bit
			s.holds[j] |= bit
			s.level[r] = s.pairLevel[i*len(s.sizes)+j]
			s.at[s.level[r]] |= bit
		}
		s.join(j, bi)
		s.search(i)
		s.leave(j, bi)
		if masked {
			s.at[s.level[r]] &^= bit
			s.holds[i] &^= bit
			s.holds[j] &^= bit
		}
		s.n--
	}
}

// place explores the branch that adds the pair (i, j) to open reducer r, if
// it has room for them (which the masks already showed for a masked r).
func (s *wordSearch) place(r, i, j int) {
	bi, bj := uint64(1)<<uint(i), uint64(1)<<uint(j)
	was := s.members[r]
	var extra core.Size
	switch was & (bi | bj) {
	case bi:
		extra = s.sizes[j]
	case bj:
		extra = s.sizes[i]
	default:
		extra = s.sizes[i] + s.sizes[j]
	}
	if extra > s.q-s.loads[r] {
		return
	}
	var metI, metJ uint64
	if was&bi == 0 {
		metI = s.join(i, was)
	}
	if was&bj == 0 {
		metJ = s.join(j, was|bi)
	}
	s.members[r] = was | bi | bj
	s.loads[r] += extra
	masked, bit := r < maskedReducers, uint64(1)<<uint(r&63)
	var level int
	if masked {
		level = s.level[r]
		s.holds[i] |= bit
		s.holds[j] |= bit
		s.setLevel(r, level, s.levelAt(s.q-s.loads[r], level))
	}

	s.search(i)

	if masked {
		s.setLevel(r, s.level[r], level)
		if was&bi == 0 {
			s.holds[i] &^= bit
		}
		if was&bj == 0 {
			s.holds[j] &^= bit
		}
	}
	s.members[r] = was
	s.loads[r] -= extra
	s.leave(j, metJ)
	s.leave(i, metI)
}

// levelAt counts the ranked sizes that fit in room, given that no more than
// the first from do.
func (s *wordSearch) levelAt(room core.Size, from int) int {
	for from > 0 && s.ranked[from-1] > room {
		from--
	}
	return from
}

// setLevel moves masked reducer r from level from to level to.
func (s *wordSearch) setLevel(r, from, to int) {
	bit := uint64(1) << uint(r)
	s.at[from] &^= bit
	s.at[to] |= bit
	s.level[r] = to
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
	return met
}

// leave undoes the join of a that returned met.
func (s *wordSearch) leave(a int, met uint64) {
	s.rows[a] &^= met
	ba := uint64(1) << uint(a)
	for w := met; w != 0; w &= w - 1 {
		s.rows[bits.TrailingZeros64(w)] &^= ba
	}
}
