package a2a

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
)

func TestExactSingleReducerWhenEverythingFits(t *testing.T) {
	set := core.MustNewInputSet([]core.Size{2, 3, 4})
	ms, err := Exact(set, 10, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ms.NumReducers() != 1 {
		t.Errorf("reducers = %d, want 1", ms.NumReducers())
	}
	if err := ms.ValidateA2A(set); err != nil {
		t.Errorf("ValidateA2A: %v", err)
	}
}

func TestExactKnownOptimum(t *testing.T) {
	// 4 unit inputs, q = 2: each reducer covers exactly one pair, so the
	// optimum is C(4,2) = 6 reducers.
	set, _ := core.UniformInputSet(4, 1)
	ms, err := Exact(set, 2, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ms.NumReducers() != 6 {
		t.Errorf("reducers = %d, want 6", ms.NumReducers())
	}
	if err := ms.ValidateA2A(set); err != nil {
		t.Errorf("ValidateA2A: %v", err)
	}
}

func TestExactKnownOptimumTriples(t *testing.T) {
	// 6 unit inputs, q = 3: a reducer covers at most 3 pairs, 15 pairs total,
	// so at least 5 reducers; a resolvable design on 6 points achieves... the
	// exact solver must find the true optimum, which is at least 5 and at
	// most 7 (the paper's grouping algorithm would use C(6,2)/... here we
	// just check optimality against a brute lower bound and validity).
	set, _ := core.UniformInputSet(6, 1)
	ms, err := Exact(set, 3, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.ValidateA2A(set); err != nil {
		t.Fatalf("ValidateA2A: %v", err)
	}
	lb := LowerBounds(set, 3)
	if ms.NumReducers() < lb.Reducers {
		t.Errorf("exact solution %d below lower bound %d", ms.NumReducers(), lb.Reducers)
	}
	// Heuristics can never beat the exact solver.
	heur, err := Solve(set, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ms.NumReducers() > heur.NumReducers() {
		t.Errorf("exact %d reducers worse than heuristic %d", ms.NumReducers(), heur.NumReducers())
	}
}

func TestExactTooLarge(t *testing.T) {
	set, _ := core.UniformInputSet(40, 1)
	if _, err := Exact(set, 4, ExactOptions{}); !errors.Is(err, ErrTooLargeForExact) {
		t.Errorf("Exact = %v, want ErrTooLargeForExact", err)
	}
}

func TestExactInfeasible(t *testing.T) {
	set := core.MustNewInputSet([]core.Size{8, 8})
	if _, err := Exact(set, 10, ExactOptions{}); !errors.Is(err, core.ErrInfeasible) {
		t.Errorf("Exact = %v, want ErrInfeasible", err)
	}
}

func TestExactDegenerate(t *testing.T) {
	set := core.MustNewInputSet([]core.Size{5})
	ms, err := Exact(set, 10, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ms.NumReducers() != 0 {
		t.Errorf("single input: %d reducers, want 0", ms.NumReducers())
	}
}

func TestExactNodeBudget(t *testing.T) {
	set, _ := core.UniformInputSet(10, 1)
	ms, err := Exact(set, 4, ExactOptions{MaxNodes: 10})
	if err != nil && !errors.Is(err, ErrNodeBudget) {
		t.Fatalf("Exact = %v, want nil or ErrNodeBudget", err)
	}
	// Whatever came back must still be a valid schema (the incumbent).
	if verr := ms.ValidateA2A(set); verr != nil {
		t.Errorf("budget-limited schema invalid: %v", verr)
	}
}

func TestExactNeverWorseThanHeuristics(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 15; trial++ {
		m := 4 + rng.Intn(5) // 4..8 inputs keeps the search fast
		q := core.Size(8 + rng.Intn(10))
		sizes := make([]core.Size, m)
		for i := range sizes {
			sizes[i] = core.Size(1 + rng.Int63n(int64(q)/2))
		}
		set := core.MustNewInputSet(sizes)
		exact, err := Exact(set, q, ExactOptions{})
		if err != nil && !errors.Is(err, ErrNodeBudget) {
			t.Fatalf("sizes=%v q=%d: %v", sizes, q, err)
		}
		if verr := exact.ValidateA2A(set); verr != nil {
			t.Fatalf("exact invalid for sizes=%v q=%d: %v", sizes, q, verr)
		}
		heur, err := Solve(set, q)
		if err != nil {
			t.Fatal(err)
		}
		if exact.NumReducers() > heur.NumReducers() {
			t.Errorf("sizes=%v q=%d: exact %d > heuristic %d", sizes, q, exact.NumReducers(), heur.NumReducers())
		}
		greedy, err := Greedy(set, q)
		if err != nil {
			t.Fatal(err)
		}
		if exact.NumReducers() > greedy.NumReducers() {
			t.Errorf("sizes=%v q=%d: exact %d > greedy %d", sizes, q, exact.NumReducers(), greedy.NumReducers())
		}
		lb := LowerBounds(set, q)
		if exact.NumReducers() < lb.Reducers {
			t.Errorf("sizes=%v q=%d: exact %d below lower bound %d", sizes, q, exact.NumReducers(), lb.Reducers)
		}
	}
}

// exactShapes draws the instances the equivalence tests run on: a mix of
// loose small sets, equal-sized sets, sets with one big input, and the
// benchmark's tiny regime (q in [24, 64), 8-12 sizes from q/8 to q/2), where
// the search runs deepest.
func exactShapes(rng *rand.Rand, n int) (sets []*core.InputSet, qs []core.Size) {
	for len(sets) < n {
		var q core.Size
		var sizes []core.Size
		switch len(sets) % 4 {
		case 0: // the tiny regime
			q = core.Size(24 + rng.Intn(40))
			sizes = make([]core.Size, 8+rng.Intn(5))
			for i := range sizes {
				sizes[i] = q/8 + core.Size(rng.Intn(int(q/2-q/8)+1))
			}
		case 1: // small inputs, several per reducer
			q = core.Size(8 + rng.Intn(24))
			sizes = make([]core.Size, 3+rng.Intn(9))
			for i := range sizes {
				sizes[i] = core.Size(1 + rng.Int63n(int64(q)/2))
			}
		case 2: // equal sizes
			w := core.Size(1 + rng.Intn(5))
			q = w * core.Size(2+rng.Intn(4))
			sizes = make([]core.Size, 4+rng.Intn(8))
			for i := range sizes {
				sizes[i] = w
			}
		case 3: // one input above q/2
			q = core.Size(16 + rng.Intn(32))
			sizes = make([]core.Size, 4+rng.Intn(8))
			big := q/2 + 1 + core.Size(rng.Intn(int(q/8)))
			for i := range sizes {
				sizes[i] = core.Size(1 + rng.Int63n(int64(q-big)))
			}
			sizes[rng.Intn(len(sizes))] = big
		}
		sets = append(sets, core.MustNewInputSet(sizes))
		qs = append(qs, q)
	}
	return sets, qs
}

// TestExactMatchesReference is the licence for the word-parallel search: for
// every budget it returns the reference search's schema, visits the same
// number of nodes and gives the same ErrNodeBudget verdict, the reference
// taking the inputs in the same largest-first order. The planner's
// 200,000-node budget costs the reference up to 0.1 s an instance, so it runs
// on every ninth instance (all four shapes) and is left out of -short runs;
// the full 1,000 x 4 product takes 30 s and passed when this was written.
func TestExactMatchesReference(t *testing.T) {
	sets, qs := exactShapes(rand.New(rand.NewSource(17)), 1000)
	exhausted := 0
	for n, set := range sets {
		budgets := []int{10, 137, 5_000}
		if n%9 == 0 && !testing.Short() {
			budgets = append(budgets, 200_000)
		}
		for _, budget := range budgets {
			opts := ExactOptions{MaxNodes: budget}
			want, wantNodes, wantErr := refExactLargestFirst(set, qs[n], opts)
			got, gotNodes, gotErr := exact(set, qs[n], opts)
			if !errors.Is(gotErr, wantErr) || !errors.Is(wantErr, gotErr) {
				t.Fatalf("sizes=%v q=%d budget=%d: err = %v, reference %v", set.Sizes(), qs[n], budget, gotErr, wantErr)
			}
			if gotNodes != wantNodes {
				t.Fatalf("sizes=%v q=%d budget=%d: visited %d nodes, reference %d", set.Sizes(), qs[n], budget, gotNodes, wantNodes)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("sizes=%v q=%d budget=%d: schema differs from the reference\n got %+v\nwant %+v", set.Sizes(), qs[n], budget, got, want)
			}
			if errors.Is(gotErr, ErrNodeBudget) {
				exhausted++
			}
		}
	}
	if exhausted < len(sets)/2 {
		t.Errorf("only %d runs over %d instances hit the node budget; the instances are too easy to exercise it", exhausted, len(sets))
	}
}

// TestExactInputCeiling pins the one-word representation's limit: 64 inputs
// are searched (and still match the reference), 65 are ErrTooLargeForExact
// however large MaxInputs is.
func TestExactInputCeiling(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	sizes := make([]core.Size, 65)
	for i := range sizes {
		sizes[i] = core.Size(1 + rng.Intn(6))
	}
	opts := ExactOptions{MaxInputs: 1000, MaxNodes: 20_000}

	set := core.MustNewInputSet(sizes[:64])
	want, wantNodes, wantErr := refExactLargestFirst(set, 24, opts)
	got, gotNodes, gotErr := exact(set, 24, opts)
	if !errors.Is(wantErr, ErrNodeBudget) {
		t.Fatalf("reference err = %v, want ErrNodeBudget so that the search ran", wantErr)
	}
	if !errors.Is(gotErr, ErrNodeBudget) || gotNodes != wantNodes || !reflect.DeepEqual(got, want) {
		t.Errorf("64 inputs: err=%v nodes=%d, reference err=%v nodes=%d, schemas equal: %v",
			gotErr, gotNodes, wantErr, wantNodes, reflect.DeepEqual(got, want))
	}
	if err := got.ValidateA2A(set); err != nil {
		t.Errorf("64 inputs: %v", err)
	}

	if _, err := Exact(core.MustNewInputSet(sizes), 24, opts); !errors.Is(err, ErrTooLargeForExact) {
		t.Errorf("65 inputs: err = %v, want ErrTooLargeForExact", err)
	}
}

// TestExactAllocationsIndependentOfNodes checks that a search node allocates
// nothing: one call allocates the same at a 1,000-node budget as at 200,000,
// on instances that exhaust both and keep the same schema. The counts are
// equal in a plain run; under the race detector the runtime's own background
// allocations land in the longer call, a handful however long it runs, so the
// test allows 16 where one allocation per node would add 199,000.
func TestExactAllocationsIndependentOfNodes(t *testing.T) {
	sets, qs := exactShapes(rand.New(rand.NewSource(23)), 40)
	checked := 0
	for n := 0; n < len(sets); n += 4 { // the tiny regime
		set, q := sets[n], qs[n]
		small, _, errSmall := exact(set, q, ExactOptions{MaxNodes: 1_000})
		large, nodes, errLarge := exact(set, q, ExactOptions{MaxNodes: 200_000})
		if !errors.Is(errSmall, ErrNodeBudget) || !errors.Is(errLarge, ErrNodeBudget) ||
			small.NumReducers() != large.NumReducers() {
			continue // the result's own allocations differ
		}
		checked++
		allocs := func(maxNodes int) float64 {
			return testing.AllocsPerRun(5, func() {
				_, _ = Exact(set, q, ExactOptions{MaxNodes: maxNodes})
			})
		}
		if a, b := allocs(1_000), allocs(200_000); math.Abs(b-a) > 16 {
			t.Errorf("sizes=%v q=%d: %v allocs at 1,000 nodes, %v at 200,000 (%d visited)", set.Sizes(), q, a, b, nodes)
		}
	}
	if checked < 3 {
		t.Fatalf("only %d instances exhausted both budgets with the same reducer count", checked)
	}
}
