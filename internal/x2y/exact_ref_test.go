package x2y

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
)

// refExact is Exact as it was before it ran a2a's branch and bound over X
// then Y: its own search over a covered flag per cross pair, with reducers
// as ID slices and every branch recounting the pairs it newly covers. It is
// the reference TestExactMatchesReference and FuzzExactMatchesReference hold
// Exact to, seeded with the schema of (xs, ys) that seed returns where Exact
// takes Solve's.
func refExact(xs, ys *core.InputSet, q core.Size, opts ExactOptions, seed func() (*core.MappingSchema, error)) (*core.MappingSchema, error) {
	const algorithm = "x2y/exact"
	if opts.MaxInputs == 0 {
		opts.MaxInputs = 12
	}
	if opts.MaxNodes == 0 {
		opts.MaxNodes = 2_000_000
	}
	if xs.Len()+ys.Len() > opts.MaxInputs {
		return nil, fmt.Errorf("%w: %d inputs > limit %d", ErrTooLargeForExact, xs.Len()+ys.Len(), opts.MaxInputs)
	}
	if xs.Len() == 0 || ys.Len() == 0 {
		return emptySchema(q, algorithm), nil
	}
	if err := CheckFeasible(xs, ys, q); err != nil {
		return nil, err
	}
	if xs.TotalSize()+ys.TotalSize() <= q {
		return singleReducer(xs, ys, q, algorithm), nil
	}

	incumbent, err := seed()
	if err != nil {
		return nil, err
	}
	s := &refSearch{
		xs: xs, ys: ys, q: q,
		nx: xs.Len(), ny: ys.Len(),
		best:     incumbent.NumReducers(),
		bestRed:  make([]refReducer, len(incumbent.Reducers)),
		maxNodes: opts.MaxNodes,
		lower:    LowerBounds(xs, ys, q).Reducers,
	}
	for i, r := range incumbent.Reducers {
		s.bestRed[i] = refReducer{x: append([]int(nil), r.XInputs...), y: append([]int(nil), r.YInputs...), load: r.Load}
	}
	covered := make([]bool, s.nx*s.ny)
	s.search(covered, s.nx*s.ny, nil)

	ms := &core.MappingSchema{Problem: core.ProblemX2Y, Capacity: q, Algorithm: algorithm}
	for _, r := range s.bestRed {
		ms.AddReducerX2Y(xs, ys, r.x, r.y)
	}
	if s.exhausted {
		return ms, ErrNodeBudget
	}
	return ms, nil
}

type refReducer struct {
	x, y []int
	load core.Size
}

type refSearch struct {
	xs, ys    *core.InputSet
	q         core.Size
	nx, ny    int
	best      int
	bestRed   []refReducer
	nodes     int
	maxNodes  int
	exhausted bool
	lower     int
}

func (s *refSearch) search(covered []bool, remaining int, reducers []refReducer) {
	if s.exhausted || s.best == s.lower {
		return
	}
	s.nodes++
	if s.nodes > s.maxNodes {
		s.exhausted = true
		return
	}
	if remaining == 0 {
		if len(reducers) < s.best {
			s.best = len(reducers)
			s.bestRed = make([]refReducer, len(reducers))
			for i, r := range reducers {
				s.bestRed[i] = refReducer{x: append([]int(nil), r.x...), y: append([]int(nil), r.y...), load: r.load}
			}
		}
		return
	}
	if len(reducers) >= s.best {
		return
	}
	// First uncovered cross pair.
	idx := 0
	for covered[idx] {
		idx++
	}
	px, py := idx/s.ny, idx%s.ny
	wx, wy := s.xs.Size(px), s.ys.Size(py)

	// Option A: cover inside an existing reducer.
	for r := range reducers {
		hasX := slicesContains(reducers[r].x, px)
		hasY := slicesContains(reducers[r].y, py)
		var extra core.Size
		switch {
		case hasX && hasY:
			continue
		case hasX:
			extra = wy
		case hasY:
			extra = wx
		default:
			extra = wx + wy
		}
		if reducers[r].load+extra > s.q {
			continue
		}
		var newly []int
		if !hasX {
			reducers[r].x = append(reducers[r].x, px)
		}
		if !hasY {
			reducers[r].y = append(reducers[r].y, py)
		}
		for _, x := range reducers[r].x {
			for _, y := range reducers[r].y {
				i := x*s.ny + y
				if !covered[i] {
					covered[i] = true
					newly = append(newly, i)
				}
			}
		}
		reducers[r].load += extra

		s.search(covered, remaining-len(newly), reducers)

		reducers[r].load -= extra
		for _, i := range newly {
			covered[i] = false
		}
		if !hasY {
			reducers[r].y = reducers[r].y[:len(reducers[r].y)-1]
		}
		if !hasX {
			reducers[r].x = reducers[r].x[:len(reducers[r].x)-1]
		}
	}

	// Option B: open a new reducer with exactly this pair.
	if len(reducers)+1 < s.best && wx+wy <= s.q {
		covered[idx] = true
		reducers = append(reducers, refReducer{x: []int{px}, y: []int{py}, load: wx + wy})
		s.search(covered, remaining-1, reducers)
		covered[idx] = false
	}
}

func slicesContains(ids []int, v int) bool {
	for _, id := range ids {
		if id == v {
			return true
		}
	}
	return false
}

// largestFirst relabels one side largest first, ties by ascending ID: it
// returns the relabelled side, order (order[p] is the ID of its p-th input)
// and pos, order's inverse.
func largestFirst(set *core.InputSet) (*core.InputSet, []int, []int) {
	order := make([]int, set.Len())
	for id := range order {
		order[id] = id
	}
	sort.SliceStable(order, func(a, b int) bool { return set.Size(order[a]) > set.Size(order[b]) })
	sizes, pos := make([]core.Size, len(order)), make([]int, len(order))
	for p, id := range order {
		sizes[p], pos[id] = set.Size(id), p
	}
	return core.MustNewInputSet(sizes), order, pos
}

// refExactLargestFirst is refExact on each side relabelled largest first,
// the order Exact searches in, seeded with Solve's schema of the caller's
// instance relabelled the same way, with the schema mapped back to the
// caller's IDs.
func refExactLargestFirst(xs, ys *core.InputSet, q core.Size, opts ExactOptions) (*core.MappingSchema, error) {
	px, orderX, posX := largestFirst(xs)
	py, orderY, posY := largestFirst(ys)
	seed := func() (*core.MappingSchema, error) {
		ms, err := Solve(xs, ys, q)
		if err == nil {
			relabel(ms, posX, posY)
		}
		return ms, err
	}
	ms, err := refExact(px, py, q, opts, seed)
	if ms != nil {
		relabel(ms, orderX, orderY)
	}
	return ms, err
}

// relabel renames every reducer's X input id to toX[id] and Y input id to
// toY[id], keeping each side's inputs ascending.
func relabel(ms *core.MappingSchema, toX, toY []int) {
	for _, r := range ms.Reducers {
		for k, id := range r.XInputs {
			r.XInputs[k] = toX[id]
		}
		for k, id := range r.YInputs {
			r.YInputs[k] = toY[id]
		}
		sort.Ints(r.XInputs)
		sort.Ints(r.YInputs)
	}
}

// checkExactMatchesReference fails t unless Exact returns the schema and
// error of refExact over the same largest-first order at the node budget
// maxNodes.
func checkExactMatchesReference(t *testing.T, xs, ys *core.InputSet, q core.Size, maxNodes int) error {
	t.Helper()
	opts := ExactOptions{MaxNodes: maxNodes}
	got, gotErr := Exact(xs, ys, q, opts)
	want, wantErr := refExactLargestFirst(xs, ys, q, opts)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("x=%v y=%v q=%d budget %d: err = %v, reference %v", xs.Sizes(), ys.Sizes(), q, maxNodes, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("x=%v y=%v q=%d budget %d: schema differs from the reference (%d reducers, reference %d)",
			xs.Sizes(), ys.Sizes(), q, maxNodes, got.NumReducers(), want.NumReducers())
	}
	return gotErr
}

// exactBudgets are the node budgets the reference checks cycle through: one
// that stops almost at once, one that stops mid-search, and the planner's.
var exactBudgets = [...]int{10, 1_000, 200_000}

// TestExactMatchesReference holds the shared search to x2y's own on the same
// largest-first order: the first uncovered pair, the order the existing
// reducers are tried in and the point a budget runs out are the same, so the
// schema and the error are too.
func TestExactMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	exhausted, trials := 0, 3_000
	if testing.Short() {
		trials = 300
	}
	for trial := range trials {
		q := core.Size(8 + rng.Intn(40))
		nx := 1 + rng.Intn(11)
		ny := 1 + rng.Intn(12-nx)
		draw := func(n int) *core.InputSet {
			sizes := make([]core.Size, n)
			for i := range sizes {
				sizes[i] = 1 + core.Size(rng.Int63n(int64(q*3/5))) // a few above q/2
			}
			return core.MustNewInputSet(sizes)
		}
		if checkExactMatchesReference(t, draw(nx), draw(ny), q, exactBudgets[trial%len(exactBudgets)]) != nil {
			exhausted++
		}
	}
	t.Logf("%d of %d instances stopped at their budget or were infeasible on both paths", exhausted, trials)
}

// FuzzExactMatchesReference feeds arbitrary byte strings as the two sides'
// sizes, one byte as the capacity and one as the choice of budget: Exact must
// return the reference's schema, or its error, over the same largest-first
// order.
func FuzzExactMatchesReference(f *testing.F) {
	f.Add([]byte{3, 2, 4}, []byte{1, 5, 2, 2}, byte(10), byte(2))
	f.Add([]byte{1, 1, 1, 1, 1}, []byte{1, 1, 1, 1, 1, 1}, byte(3), byte(1))
	f.Add([]byte{9}, []byte{9}, byte(8), byte(0))
	f.Add([]byte{30, 2, 2}, []byte{4, 4, 4, 4, 4, 4}, byte(40), byte(2))
	f.Fuzz(func(t *testing.T, rawX, rawY []byte, qRaw, budget byte) {
		q := core.Size(qRaw)%60 + 2
		side := func(raw []byte) *core.InputSet {
			sizes := make([]core.Size, len(raw))
			for i, b := range raw {
				sizes[i] = core.Size(b)%(q+q/8) + 1 // some above q/2, a few above q
			}
			set, _ := core.NewInputSet(sizes)
			return set
		}
		if len(rawX)+len(rawY) > 12 {
			return
		}
		xs, ys := side(rawX), side(rawY)
		if xs == nil || ys == nil {
			return
		}
		checkExactMatchesReference(t, xs, ys, q, exactBudgets[int(budget)%len(exactBudgets)])
	})
}
