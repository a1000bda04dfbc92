package x2y

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func TestSolveDispatchesGrid(t *testing.T) {
	xs := core.MustNewInputSet([]core.Size{3, 2, 4, 3, 2, 4})
	ys := core.MustNewInputSet([]core.Size{5, 4, 3, 5, 4, 3})
	ms, err := Solve(xs, ys, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ms.Algorithm, "grid") {
		t.Errorf("algorithm = %q, want grid dispatch", ms.Algorithm)
	}
	if err := ms.ValidateX2Y(xs, ys); err != nil {
		t.Errorf("ValidateX2Y: %v", err)
	}
}

func TestSolveDispatchesBigSmall(t *testing.T) {
	xs := core.MustNewInputSet([]core.Size{9, 2, 2})
	ys := core.MustNewInputSet([]core.Size{1, 1, 2, 1, 1, 2})
	ms, err := Solve(xs, ys, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ms.Algorithm, "big-small") {
		t.Errorf("algorithm = %q, want big-small dispatch", ms.Algorithm)
	}
	if err := ms.ValidateX2Y(xs, ys); err != nil {
		t.Errorf("ValidateX2Y: %v", err)
	}
}

func TestSolveSingleReducer(t *testing.T) {
	xs := core.MustNewInputSet([]core.Size{1, 2})
	ys := core.MustNewInputSet([]core.Size{1, 2})
	ms, err := Solve(xs, ys, 100)
	if err != nil {
		t.Fatal(err)
	}
	if ms.NumReducers() != 1 {
		t.Errorf("reducers = %d, want 1", ms.NumReducers())
	}
}

func TestSolveInfeasible(t *testing.T) {
	xs := core.MustNewInputSet([]core.Size{9})
	ys := core.MustNewInputSet([]core.Size{9})
	if _, err := Solve(xs, ys, 12); !errors.Is(err, core.ErrInfeasible) {
		t.Errorf("Solve = %v, want ErrInfeasible", err)
	}
}

func TestSolveEmptySide(t *testing.T) {
	xs := core.MustNewInputSet([]core.Size{2})
	ms, err := Solve(xs, &core.InputSet{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ms.NumReducers() != 0 {
		t.Errorf("empty side: %d reducers, want 0", ms.NumReducers())
	}
}

func TestGreedyValidAndCovering(t *testing.T) {
	xs := core.MustNewInputSet([]core.Size{3, 1, 4})
	ys := core.MustNewInputSet([]core.Size{2, 2, 5, 1})
	ms, err := Greedy(xs, ys, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.ValidateX2Y(xs, ys); err != nil {
		t.Errorf("ValidateX2Y: %v", err)
	}
}

func TestGreedyInfeasible(t *testing.T) {
	xs := core.MustNewInputSet([]core.Size{9})
	ys := core.MustNewInputSet([]core.Size{9})
	if _, err := Greedy(xs, ys, 10); !errors.Is(err, core.ErrInfeasible) {
		t.Errorf("Greedy = %v, want ErrInfeasible", err)
	}
}

func TestGreedyEmptySide(t *testing.T) {
	xs := core.MustNewInputSet([]core.Size{1})
	ms, err := Greedy(xs, &core.InputSet{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ms.NumReducers() != 0 {
		t.Errorf("empty side: %d reducers, want 0", ms.NumReducers())
	}
}

func TestGreedyRandomValid(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 25; trial++ {
		nx, ny := 1+rng.Intn(12), 1+rng.Intn(12)
		q := core.Size(16 + rng.Intn(30))
		xSizes := make([]core.Size, nx)
		ySizes := make([]core.Size, ny)
		for i := range xSizes {
			xSizes[i] = core.Size(1 + rng.Int63n(int64(q/2)))
		}
		for i := range ySizes {
			ySizes[i] = core.Size(1 + rng.Int63n(int64(q/2)))
		}
		xs := core.MustNewInputSet(xSizes)
		ys := core.MustNewInputSet(ySizes)
		ms, err := Greedy(xs, ys, q)
		if err != nil {
			t.Fatalf("x=%v y=%v q=%d: %v", xSizes, ySizes, q, err)
		}
		if err := ms.ValidateX2Y(xs, ys); err != nil {
			t.Fatalf("x=%v y=%v q=%d invalid: %v", xSizes, ySizes, q, err)
		}
	}
}

func TestExactKnownOptimum(t *testing.T) {
	// 2 X inputs and 2 Y inputs of size 1 with q=2: each reducer covers one
	// pair, so the optimum is 4.
	xs, _ := core.UniformInputSet(2, 1)
	ys, _ := core.UniformInputSet(2, 1)
	ms, err := Exact(xs, ys, 2, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ms.NumReducers() != 4 {
		t.Errorf("reducers = %d, want 4", ms.NumReducers())
	}
	if err := ms.ValidateX2Y(xs, ys); err != nil {
		t.Errorf("ValidateX2Y: %v", err)
	}
}

func TestExactSingleReducer(t *testing.T) {
	xs := core.MustNewInputSet([]core.Size{1, 1})
	ys := core.MustNewInputSet([]core.Size{1, 1})
	ms, err := Exact(xs, ys, 10, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ms.NumReducers() != 1 {
		t.Errorf("reducers = %d, want 1", ms.NumReducers())
	}
}

func TestExactTooLarge(t *testing.T) {
	xs, _ := core.UniformInputSet(10, 1)
	ys, _ := core.UniformInputSet(10, 1)
	if _, err := Exact(xs, ys, 4, ExactOptions{}); !errors.Is(err, ErrTooLargeForExact) {
		t.Errorf("Exact = %v, want ErrTooLargeForExact", err)
	}
}

func TestExactInfeasible(t *testing.T) {
	xs := core.MustNewInputSet([]core.Size{9})
	ys := core.MustNewInputSet([]core.Size{9})
	if _, err := Exact(xs, ys, 10, ExactOptions{}); !errors.Is(err, core.ErrInfeasible) {
		t.Errorf("Exact = %v, want ErrInfeasible", err)
	}
}

func TestExactEmptySide(t *testing.T) {
	xs := core.MustNewInputSet([]core.Size{2})
	ms, err := Exact(xs, &core.InputSet{}, 10, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ms.NumReducers() != 0 {
		t.Errorf("empty side: %d reducers, want 0", ms.NumReducers())
	}
}

func TestExactNodeBudgetStillValid(t *testing.T) {
	xs, _ := core.UniformInputSet(5, 1)
	ys, _ := core.UniformInputSet(5, 1)
	ms, err := Exact(xs, ys, 3, ExactOptions{MaxNodes: 10})
	if err != nil && !errors.Is(err, ErrNodeBudget) {
		t.Fatalf("Exact = %v", err)
	}
	if verr := ms.ValidateX2Y(xs, ys); verr != nil {
		t.Errorf("budget-limited schema invalid: %v", verr)
	}
}

// TestExactNeverWorseThanHeuristics is the bound-validity check a new X2Y
// lower bound must pass: on 500 draws of up to 12 inputs, the exact schema
// is valid, no worse than Solve's, and never below LowerBounds. The search
// runs under the planner's node budget; a schema cut short by it is still a
// valid schema, so the bound must hold for it too.
func TestExactNeverWorseThanHeuristics(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	proved := 0
	const trials = 500
	for trial := 0; trial < trials; trial++ {
		nx := 1 + rng.Intn(11)
		ny := 1 + rng.Intn(12-nx)
		q := core.Size(6 + rng.Intn(30))
		xSizes := make([]core.Size, nx)
		ySizes := make([]core.Size, ny)
		for i := range xSizes {
			xSizes[i] = core.Size(1 + rng.Int63n(int64(q)/2))
		}
		for i := range ySizes {
			ySizes[i] = core.Size(1 + rng.Int63n(int64(q)/2))
		}
		xs := core.MustNewInputSet(xSizes)
		ys := core.MustNewInputSet(ySizes)
		exact, err := Exact(xs, ys, q, ExactOptions{MaxNodes: 200_000})
		if err == nil {
			proved++
		} else if !errors.Is(err, ErrNodeBudget) {
			t.Fatalf("x=%v y=%v q=%d: %v", xSizes, ySizes, q, err)
		}
		if verr := exact.ValidateX2Y(xs, ys); verr != nil {
			t.Fatalf("exact invalid: %v", verr)
		}
		heur, err := Solve(xs, ys, q)
		if err != nil {
			t.Fatal(err)
		}
		if exact.NumReducers() > heur.NumReducers() {
			t.Errorf("x=%v y=%v q=%d: exact %d > heuristic %d", xSizes, ySizes, q, exact.NumReducers(), heur.NumReducers())
		}
		lb := LowerBounds(xs, ys, q)
		if exact.NumReducers() < lb.Reducers {
			t.Errorf("x=%v y=%v q=%d: exact %d below lower bound %d", xSizes, ySizes, q, exact.NumReducers(), lb.Reducers)
		}
	}
	t.Logf("%d of %d draws proved optimal within the budget", proved, trials)
}

func TestLowerBoundsBasics(t *testing.T) {
	xs, _ := core.UniformInputSet(4, 1)
	ys, _ := core.UniformInputSet(4, 1)
	b := LowerBounds(xs, ys, 2)
	// Each input can meet only one opposite input per reducer: 16 pairs, 1
	// per reducer.
	if b.Reducers != 16 {
		t.Errorf("Reducers = %d, want 16", b.Reducers)
	}
	if b.MaxXPerReducer != 1 || b.MaxYPerReducer != 1 {
		t.Errorf("per-reducer maxima = %d/%d, want 1/1", b.MaxXPerReducer, b.MaxYPerReducer)
	}
	if b.Communication != 32 {
		t.Errorf("Communication = %d, want 32 (each of 8 inputs replicated 4 times)", b.Communication)
	}
	if b.Replication != 4 {
		t.Errorf("Replication = %v, want 4", b.Replication)
	}
}

func TestLowerBoundsEmpty(t *testing.T) {
	xs := core.MustNewInputSet([]core.Size{1})
	if b := LowerBounds(xs, &core.InputSet{}, 10); b.Reducers != 0 || b.Communication != 0 {
		t.Errorf("bounds with an empty side = %+v", b)
	}
}

func TestCheckFeasibleNilSides(t *testing.T) {
	if err := CheckFeasible(nil, nil, 10); err != nil {
		t.Errorf("CheckFeasible(nil, nil) = %v, want nil", err)
	}
}

// Property: Solve always yields a valid schema at or above the lower bound
// for random feasible instances.
func TestSolveAlwaysValidProperty(t *testing.T) {
	f := func(xRaw, yRaw []uint8, qRaw uint8) bool {
		if len(xRaw) == 0 || len(yRaw) == 0 {
			return true
		}
		if len(xRaw) > 30 {
			xRaw = xRaw[:30]
		}
		if len(yRaw) > 30 {
			yRaw = yRaw[:30]
		}
		q := core.Size(qRaw%80) + 8
		xSizes := make([]core.Size, len(xRaw))
		for i, r := range xRaw {
			xSizes[i] = core.Size(r)%(q/2) + 1
		}
		ySizes := make([]core.Size, len(yRaw))
		for i, r := range yRaw {
			ySizes[i] = core.Size(r)%(q/2) + 1
		}
		xs := core.MustNewInputSet(xSizes)
		ys := core.MustNewInputSet(ySizes)
		ms, err := Solve(xs, ys, q)
		if err != nil {
			return false
		}
		if err := ms.ValidateX2Y(xs, ys); err != nil {
			return false
		}
		lb := LowerBounds(xs, ys, q)
		return ms.NumReducers() >= lb.Reducers
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
