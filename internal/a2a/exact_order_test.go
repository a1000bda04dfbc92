package a2a_test

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/a2a"
	"repro/internal/core"
	"repro/internal/x2y"
)

// orderTally sums one search order's results over a family of draws.
type orderTally struct {
	reducers, exhausted int
}

func (o *orderTally) add(reducers int, exhausted bool) {
	o.reducers += reducers
	if exhausted {
		o.exhausted++
	}
}

// tinySide draws n sizes in [q/8, q/2], ascending as the planner's canonical
// instance hands them to the search.
func tinySide(rng *rand.Rand, n int, q core.Size) []core.Size {
	sizes := make([]core.Size, n)
	for i := range sizes {
		sizes[i] = q/8 + core.Size(rng.Intn(int(q/2-q/8)+1))
	}
	slices.Sort(sizes)
	return sizes
}

// TestLargestFirstBeatsCallerOrder pins what taking the inputs largest first
// buys at the planner's limits (12 inputs, 200,000 nodes) over the order the
// planner passes them in, ascending: on plan_cold's tiny regime (the recipe
// and seed of BenchmarkA2AExactTiny) and on X2Y draws of 3–6 sizes a side
// from the same range, no draw is served more reducers and fewer searches
// run to the node budget. Each draw's old result is ExactSplit over the
// ascending order, or the one reducer Exact returns without a search when
// everything fits.
func TestLargestFirstBeatsCallerOrder(t *testing.T) {
	const maxNodes = 200_000
	opts := a2a.ExactOptions{MaxInputs: 12, MaxNodes: maxNodes}
	a2aDraws, x2yDraws := 200, 300
	if testing.Short() {
		a2aDraws, x2yDraws = 50, 50
	}
	check := func(family string, draw int, sizes []core.Size, got *core.MappingSchema, gotExhausted bool, old []core.Reducer, oldExhausted bool, now, before *orderTally) {
		t.Helper()
		if got.NumReducers() > len(old) {
			t.Errorf("%s draw %d, sizes=%v q=%d: %d reducers largest first, %d in ascending order", family, draw, sizes, got.Capacity, got.NumReducers(), len(old))
		}
		now.add(got.NumReducers(), gotExhausted)
		before.add(len(old), oldExhausted)
	}
	report := func(family string, draws int, now, before orderTally) {
		t.Helper()
		t.Logf("%s, %d draws: Σ reducers %d ascending, %d largest first; %d and %d ran to the node budget",
			family, draws, before.reducers, now.reducers, before.exhausted, now.exhausted)
		if now.exhausted >= before.exhausted {
			t.Errorf("%s: %d searches ran to the node budget largest first, %d in ascending order", family, now.exhausted, before.exhausted)
		}
	}

	var now, before orderTally
	rng := rand.New(rand.NewSource(1))
	for draw := range a2aDraws {
		q := core.Size(24 + rng.Intn(40))
		sizes := tinySide(rng, 8+rng.Intn(5), q)
		set := core.MustNewInputSet(sizes)
		got, err := a2a.Exact(set, q, opts)
		if err != nil && !errors.Is(err, a2a.ErrNodeBudget) {
			t.Fatalf("sizes=%v q=%d: %v", sizes, q, err)
		}
		if verr := got.ValidateA2A(set); verr != nil {
			t.Fatalf("sizes=%v q=%d: %v", sizes, q, verr)
		}
		old, oldExhausted := got.Reducers, false
		if set.TotalSize() > q {
			incumbent, err := a2a.Solve(set, q)
			if err != nil {
				t.Fatal(err)
			}
			old, _, oldExhausted = a2a.ExactSplitInOrder(sizes, 0, q, incumbent.Reducers, a2a.LowerBounds(set, q).Reducers, maxNodes)
		}
		check("A2A", draw, sizes, got, errors.Is(err, a2a.ErrNodeBudget), old, oldExhausted, &now, &before)
	}
	report("A2A", a2aDraws, now, before)

	now, before = orderTally{}, orderTally{}
	rng = rand.New(rand.NewSource(2))
	for draw := range x2yDraws {
		q := core.Size(24 + rng.Intn(40))
		x := tinySide(rng, 3+rng.Intn(4), q)
		y := tinySide(rng, 3+rng.Intn(4), q)
		xs, ys := core.MustNewInputSet(x), core.MustNewInputSet(y)
		got, err := x2y.Exact(xs, ys, q, opts)
		if err != nil && !errors.Is(err, x2y.ErrNodeBudget) {
			t.Fatalf("x=%v y=%v q=%d: %v", x, y, q, err)
		}
		if verr := got.ValidateX2Y(xs, ys); verr != nil {
			t.Fatalf("x=%v y=%v q=%d: %v", x, y, q, verr)
		}
		old, oldExhausted := got.Reducers, false
		if xs.TotalSize()+ys.TotalSize() > q {
			incumbent, err := x2y.Solve(xs, ys, q)
			if err != nil {
				t.Fatal(err)
			}
			old, _, oldExhausted = a2a.ExactSplitInOrder(slices.Concat(x, y), len(x), q, incumbent.Reducers, x2y.LowerBounds(xs, ys, q).Reducers, maxNodes)
		}
		check("X2Y", draw, slices.Concat(x, y), got, errors.Is(err, x2y.ErrNodeBudget), old, oldExhausted, &now, &before)
	}
	report("X2Y", x2yDraws, now, before)
}
