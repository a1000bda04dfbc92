package a2a

import (
	"cmp"
	"slices"

	"repro/internal/core"
)

// Greedy is a coverage-greedy baseline for the A2A problem. It repeatedly
// opens a reducer seeded with the lexicographically first uncovered pair and
// then keeps adding the input that covers the most still-uncovered pairs with
// the reducer's current members (among the inputs that still fit), until no
// addition covers a new pair. It always produces a valid schema for feasible
// instances but offers no approximation guarantee; the paper's algorithms are
// compared against it.
func Greedy(set *core.InputSet, q core.Size) (*core.MappingSchema, error) {
	const algorithm = "a2a/greedy"
	if set.Len() == 0 {
		return emptySchema(q, algorithm), nil
	}
	if err := CheckFeasible(set, q); err != nil {
		return nil, err
	}
	ms := emptySchema(q, algorithm)
	ms.Reducers = GreedySplit(set.Sizes(), 0, q)
	return ms, nil
}

// GreedySplit is Greedy's pass over the inputs of the given sizes. A split
// of 0 covers every pair, as A2A asks. A positive split marks every pair on
// one side of it — two inputs below split, or two at or above it — met
// before the first step, so only the pairs across it are covered: the X2Y
// instance of X = sizes[:split] and Y = sizes[split:], whose reducers come
// back with XInputs below split and YInputs counted from it. The first
// uncovered pair is then the first (x, y), and a tie for the best gain goes
// to the lower index, so to X before Y. The caller has checked that every
// required pair fits in q.
func GreedySplit(sizes []core.Size, split int, q core.Size) []core.Reducer {
	m := len(sizes)
	cov := newCoverage(m, split)
	var reducers []core.Reducer

	// gains holds, for every outsider x, how many of the open reducer's
	// members x is not yet covered with — what adding x would newly cover. A
	// joining input only meets members, so no outsider's row changes, and the
	// one thing that moves is that every x still uncovered with the newcomer
	// gains one. (Members' counters go stale; they are never candidates.) For
	// the same reason the members' pairs are covered once, as the reducer
	// closes.
	var gains core.Gains
	gains.Reset(m, m)
	// fits holds the outsiders that still fit beside the open reducer's load.
	// As the load grows they leave it largest first, equal sizes together so
	// their order does not matter: bySize[:tooBig] are out.
	fits := core.GetCoverSet(m)
	memberSet := core.GetCoverSet(m)
	defer core.PutCoverSet(fits)
	defer core.PutCoverSet(memberSet)
	bySize := make([]int, m)
	for i := range bySize {
		bySize[i] = i
	}
	slices.SortFunc(bySize, func(a, b int) int { return cmp.Compare(sizes[b], sizes[a]) })
	var members []int
	for cov.remaining > 0 {
		i, j := cov.firstUncovered()
		members = append(members[:0], i, j)
		memberSet.Clear()
		memberSet.Add(i)
		memberSet.Add(j)
		load := sizes[i] + sizes[j]
		fits.Fill()
		fits.Remove(i)
		fits.Remove(j)
		gains.Clear()
		gains.Bump(cov.row(i))
		gains.Bump(cov.row(j))
		for tooBig := 0; ; {
			for ; tooBig < m && sizes[bySize[tooBig]] > q-load; tooBig++ {
				fits.Remove(bySize[tooBig])
			}
			best, gain := gains.Best(fits)
			if gain == 0 {
				break
			}
			members = append(members, best)
			memberSet.Add(best)
			fits.Remove(best)
			load += sizes[best]
			gains.Bump(cov.row(best))
		}
		cov.coverAll(members, memberSet)
		reducers = append(reducers, splitReducer(memberSet.AppendTo(make([]int, 0, len(members))), split, load))
	}
	return reducers
}

// splitReducer is the reducer holding the ascending inputs ids at load:
// Inputs when split is 0, else XInputs below split and YInputs, counted from
// split, at or above it. The two sides share ids' array.
func splitReducer(ids []int, split int, load core.Size) core.Reducer {
	if split == 0 {
		return core.Reducer{Inputs: ids, Load: load}
	}
	cut, _ := slices.BinarySearch(ids, split)
	ys := ids[cut:]
	for k := range ys {
		ys[k] -= split
	}
	return core.Reducer{XInputs: ids[:cut:cut], YInputs: ys, Load: load}
}

// coverage tracks which unordered pairs of 0..m-1 are already covered, as
// one symmetric bitset row per input: rows[i] holds every j already covered
// with i. Rows make the first-uncovered scans, and Greedy's bump of every
// input a newcomer is still uncovered with, word-at-a-time.
type coverage struct {
	m         int
	rows      []core.CoverSet
	remaining int
	// cursor speeds up firstUncovered scans: pairs before it are covered.
	cursorI, cursorJ int
}

// newCoverage starts with no pair of 0..m-1 covered, or, for a positive
// split, every pair on one side of it, as GreedySplit describes.
func newCoverage(m, split int) *coverage {
	rows := make([]core.CoverSet, m)
	for i := range rows {
		rows[i].Reset(m)
	}
	c := &coverage{m: m, rows: rows, remaining: m * (m - 1) / 2, cursorJ: 1}
	if split > 0 {
		// Each row takes its side's mask word by word, less itself.
		x, y := core.NewCoverSet(m), core.NewCoverSet(m)
		y.Fill()
		for i := range split {
			x.Add(i)
			y.Remove(i)
		}
		for i := range rows {
			side := y
			if i < split {
				side = x
			}
			rows[i].Union(side)
			rows[i].Remove(i)
		}
		c.remaining = split * (m - split)
	}
	return c
}

// row exposes input i's covered-with row for bitset queries.
func (c *coverage) row(i int) *core.CoverSet { return &c.rows[i] }

// coverAll covers every pair of members, whose set is memberSet.
func (c *coverage) coverAll(members []int, memberSet *core.CoverSet) {
	added := 0
	for _, y := range members {
		// The union also adds y itself, which its row never holds.
		added += c.rows[y].Union(memberSet) - 1
		c.rows[y].Remove(y)
	}
	c.remaining -= added / 2
}

// firstUncoveredFrom scans for the first uncovered pair at or after (i0, j0)
// in lexicographic order, without using the cursor.
func (c *coverage) firstUncoveredFrom(i0, j0 int) (int, int) {
	i, j := i0, j0
	for i < c.m {
		if j < i+1 {
			j = i + 1
		}
		if next := c.rows[i].NextAbsent(j); next < c.m {
			return i, next
		}
		i++
		j = i + 1
	}
	return 0, 1
}

// firstUncovered returns the lexicographically first uncovered pair. It must
// only be called when remaining > 0.
func (c *coverage) firstUncovered() (int, int) {
	i, j := c.firstUncoveredFrom(c.cursorI, c.cursorJ)
	c.cursorI, c.cursorJ = i, j
	return i, j
}
