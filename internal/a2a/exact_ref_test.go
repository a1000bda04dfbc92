package a2a

import (
	"fmt"
	"sort"

	"repro/internal/core"
)

// The exact search as it was before it moved onto machine words: member
// lists, a linear membership scan and allocated undo lists, on the shared
// coverage bitset rows. It is kept as the reference TestExactMatchesReference
// holds Exact to — same schema, same node count, same ErrNodeBudget verdict
// for every budget — and has no input ceiling of its own. It takes the
// inputs in ID order; refExactLargestFirst runs it on the order Exact
// searches in.

// refExactLargestFirst is refExact on the instance relabelled largest first,
// ties by ascending ID, seeded with Solve's schema of the caller's instance
// relabelled the same way, with the schema mapped back to the caller's IDs.
func refExactLargestFirst(set *core.InputSet, q core.Size, opts ExactOptions) (*core.MappingSchema, int, error) {
	order := make([]int, set.Len())
	for id := range order {
		order[id] = id
	}
	sort.SliceStable(order, func(a, b int) bool { return set.Size(order[a]) > set.Size(order[b]) })
	sizes, pos := make([]core.Size, len(order)), make([]int, len(order))
	for p, id := range order {
		sizes[p], pos[id] = set.Size(id), p
	}
	seed := func() (*core.MappingSchema, error) {
		ms, err := Solve(set, q)
		if err == nil {
			relabel(ms, pos)
		}
		return ms, err
	}
	ms, nodes, err := refExact(core.MustNewInputSet(sizes), q, opts, seed)
	if ms != nil {
		relabel(ms, order)
	}
	return ms, nodes, err
}

// relabel renames every reducer's input id to to[id], keeping each reducer's
// inputs ascending.
func relabel(ms *core.MappingSchema, to []int) {
	for _, r := range ms.Reducers {
		for k, id := range r.Inputs {
			r.Inputs[k] = to[id]
		}
		sort.Ints(r.Inputs)
	}
}

// refExact is the former Exact, seeded with the schema of set that seed
// returns where Exact takes Solve's; it also reports the nodes it visited.
func refExact(set *core.InputSet, q core.Size, opts ExactOptions, seed func() (*core.MappingSchema, error)) (*core.MappingSchema, int, error) {
	const algorithm = "a2a/exact"
	if opts.MaxInputs == 0 {
		opts.MaxInputs = 12
	}
	if opts.MaxNodes == 0 {
		opts.MaxNodes = 2_000_000
	}
	if set.Len() > opts.MaxInputs {
		return nil, 0, fmt.Errorf("%w: %d inputs > limit %d", ErrTooLargeForExact, set.Len(), opts.MaxInputs)
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
	incumbent, err := seed()
	if err != nil {
		return nil, 0, err
	}
	best := incumbent.NumReducers()
	bestReducers := cloneReducerSets(incumbent)

	bounds := LowerBounds(set, q)

	s := &exactSearch{
		set:      set,
		q:        q,
		m:        m,
		best:     best,
		bestSets: bestReducers,
		maxNodes: opts.MaxNodes,
		lower:    bounds.Reducers,
	}
	s.search(newCoverage(m, 0), nil, nil)

	ms := &core.MappingSchema{Problem: core.ProblemA2A, Capacity: q, Algorithm: algorithm}
	for _, ids := range s.bestSets {
		ms.AddReducerA2A(set, ids)
	}
	if s.exhausted {
		return ms, s.nodes, ErrNodeBudget
	}
	return ms, s.nodes, nil
}

type exactSearch struct {
	set       *core.InputSet
	q         core.Size
	m         int
	best      int
	bestSets  [][]int
	nodes     int
	maxNodes  int
	exhausted bool
	lower     int
}

// search explores assignments. reducers holds the current reducer member
// lists; loads the matching loads. cov tracks covered pairs and is mutated
// in place with explicit undo.
func (s *exactSearch) search(cov *coverage, reducers [][]int, loads []core.Size) {
	if s.exhausted || s.best == s.lower {
		return
	}
	s.nodes++
	if s.nodes > s.maxNodes {
		s.exhausted = true
		return
	}
	if cov.remaining == 0 {
		if len(reducers) < s.best {
			s.best = len(reducers)
			s.bestSets = make([][]int, len(reducers))
			for i, r := range reducers {
				s.bestSets[i] = append([]int(nil), r...)
			}
		}
		return
	}
	if len(reducers) >= s.best {
		return
	}
	i, j := cov.firstUncoveredFrom(0, 1)
	wi, wj := s.set.Size(i), s.set.Size(j)

	// Option A: place the pair into an existing reducer.
	for r := range reducers {
		hasI, hasJ := contains(reducers[r], i), contains(reducers[r], j)
		var extra core.Size
		switch {
		case hasI && hasJ:
			continue // the pair would already be covered; cannot happen
		case hasI:
			extra = wj
		case hasJ:
			extra = wi
		default:
			extra = wi + wj
		}
		if loads[r]+extra > s.q {
			continue
		}
		// Apply.
		added := make([]int, 0, 2)
		if !hasI {
			added = append(added, i)
		}
		if !hasJ {
			added = append(added, j)
		}
		newlyCovered := applyAdd(cov, reducers[r], added)
		reducers[r] = append(reducers[r], added...)
		loads[r] += extra

		s.search(cov, reducers, loads)

		// Undo.
		reducers[r] = reducers[r][:len(reducers[r])-len(added)]
		loads[r] -= extra
		undoCover(cov, newlyCovered)
	}

	// Option B: open a new reducer with exactly this pair.
	if len(reducers)+1 < s.best && wi+wj <= s.q {
		cov.cover(i, j)
		reducers = append(reducers, []int{i, j})
		loads = append(loads, wi+wj)
		s.search(cov, reducers, loads)
		cov.uncover(i, j)
		// The appended slices are local to this call frame; nothing to undo.
	}
}

// applyAdd covers every new pair formed by the added inputs with the existing
// members (and with each other) and returns the list of pairs that were newly
// covered so they can be undone.
func applyAdd(cov *coverage, members []int, added []int) [][2]int {
	var newly [][2]int
	for _, a := range added {
		for _, b := range members {
			if !cov.covered(a, b) {
				cov.cover(a, b)
				newly = append(newly, [2]int{a, b})
			}
		}
	}
	if len(added) == 2 {
		a, b := added[0], added[1]
		if !cov.covered(a, b) {
			cov.cover(a, b)
			newly = append(newly, [2]int{a, b})
		}
	}
	return newly
}

func undoCover(cov *coverage, pairs [][2]int) {
	for _, p := range pairs {
		cov.uncover(p[0], p[1])
	}
}

func contains(ids []int, x int) bool {
	for _, id := range ids {
		if id == x {
			return true
		}
	}
	return false
}

func cloneReducerSets(ms *core.MappingSchema) [][]int {
	out := make([][]int, len(ms.Reducers))
	for i, r := range ms.Reducers {
		out[i] = append([]int(nil), r.Inputs...)
	}
	return out
}

// cover, covered and uncover are the coverage operations only the reference
// formulations need: covering one pair, a membership test and the revert of
// a cover call.

func (c *coverage) cover(i, j int) {
	if i == j || c.rows[i].Contains(j) {
		return
	}
	c.rows[i].Add(j)
	c.rows[j].Add(i)
	c.remaining--
}

func (c *coverage) covered(i, j int) bool {
	if i == j {
		return true
	}
	return c.rows[i].Contains(j)
}

// uncover reverts a cover call. It does not adjust the scan cursor, so
// callers that uncover must use firstUncoveredFrom rather than firstUncovered.
func (c *coverage) uncover(i, j int) {
	if i == j || !c.rows[i].Contains(j) {
		return
	}
	c.rows[i].Remove(j)
	c.rows[j].Remove(i)
	c.remaining++
}
