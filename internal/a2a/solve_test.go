package a2a

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/workload"
)

func TestSolveDispatchesEqualSized(t *testing.T) {
	set, _ := core.UniformInputSet(20, 2)
	ms, err := Solve(set, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ms.Algorithm, "equal-sized") {
		t.Errorf("algorithm = %q, want equal-sized dispatch", ms.Algorithm)
	}
	if err := ms.ValidateA2A(set); err != nil {
		t.Errorf("ValidateA2A: %v", err)
	}
}

func TestSolveDispatchesBigSmall(t *testing.T) {
	set := core.MustNewInputSet([]core.Size{7, 2, 2, 1, 3})
	ms, err := Solve(set, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ms.Algorithm, "big-small") {
		t.Errorf("algorithm = %q, want big-small dispatch", ms.Algorithm)
	}
	if err := ms.ValidateA2A(set); err != nil {
		t.Errorf("ValidateA2A: %v", err)
	}
}

func TestSolveDispatchesBinPackPair(t *testing.T) {
	set := core.MustNewInputSet([]core.Size{5, 4, 3, 2, 5, 4, 3, 2})
	ms, err := Solve(set, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ms.Algorithm, "bin-pack-pair") {
		t.Errorf("algorithm = %q, want bin-pack-pair dispatch", ms.Algorithm)
	}
	if err := ms.ValidateA2A(set); err != nil {
		t.Errorf("ValidateA2A: %v", err)
	}
}

func TestSolveSingleReducerShortCircuit(t *testing.T) {
	set := core.MustNewInputSet([]core.Size{1, 2, 3})
	ms, err := Solve(set, 100)
	if err != nil {
		t.Fatal(err)
	}
	if ms.NumReducers() != 1 {
		t.Errorf("reducers = %d, want 1", ms.NumReducers())
	}
}

func TestSolveInfeasible(t *testing.T) {
	set := core.MustNewInputSet([]core.Size{8, 8, 1})
	if _, err := Solve(set, 10); !errors.Is(err, core.ErrInfeasible) {
		t.Errorf("Solve = %v, want ErrInfeasible", err)
	}
}

// Property: for random feasible instances, Solve always produces a schema
// that validates, never beats the lower bound, and whose communication equals
// the sum of reducer loads.
func TestSolveAlwaysValidProperty(t *testing.T) {
	f := func(raw []uint8, qRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 60 {
			raw = raw[:60]
		}
		q := core.Size(qRaw%100) + 8
		sizes := make([]core.Size, len(raw))
		for i, r := range raw {
			sizes[i] = core.Size(r)%(q/2) + 1
		}
		set := core.MustNewInputSet(sizes)
		ms, err := Solve(set, q)
		if err != nil {
			return false
		}
		if err := ms.ValidateA2A(set); err != nil {
			return false
		}
		lb := LowerBounds(set, q)
		if ms.NumReducers() < lb.Reducers && set.Len() > 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestSolveTradesReducersForParallelism asserts the paper's capacity
// tradeoffs on Zipf sizes: as q grows, Solve never uses more reducers and
// never ships more data (fewer copies per input), and its largest reducer
// load never shrinks (less parallelism).
func TestSolveTradesReducersForParallelism(t *testing.T) {
	spec := workload.SizeSpec{Dist: workload.Zipf, Min: 1, Max: 30, Skew: 1.5}
	for _, seed := range []int64{1, 2, 3, 7, 42} {
		set, err := workload.InputSet(spec, 1000, seed)
		if err != nil {
			t.Fatal(err)
		}
		var prev core.Cost
		for i, q := range []core.Size{64, 96, 128, 192, 256, 384, 512} {
			ms, err := Solve(set, q)
			if err != nil {
				t.Fatalf("seed=%d q=%d: %v", seed, q, err)
			}
			cost := core.CostWithWorkers(ms, set.TotalSize(), 32)
			if i > 0 {
				if cost.Reducers > prev.Reducers {
					t.Errorf("seed=%d q=%d: %d reducers, more than %d at the smaller q", seed, q, cost.Reducers, prev.Reducers)
				}
				if cost.Communication > prev.Communication {
					t.Errorf("seed=%d q=%d: communication %d, more than %d at the smaller q", seed, q, cost.Communication, prev.Communication)
				}
				if cost.MaxLoad < prev.MaxLoad {
					t.Errorf("seed=%d q=%d: max load %d, less than %d at the smaller q", seed, q, cost.MaxLoad, prev.MaxLoad)
				}
			}
			prev = cost
		}
	}
}

func TestLowerBoundsBasics(t *testing.T) {
	set, _ := core.UniformInputSet(10, 1)
	b := LowerBounds(set, 4)
	if b.MaxInputsPerReducer != 4 {
		t.Errorf("MaxInputsPerReducer = %d, want 4", b.MaxInputsPerReducer)
	}
	// 45 pairs, 6 per reducer => at least 8 reducers.
	if b.Reducers < 8 {
		t.Errorf("Reducers = %d, want >= 8", b.Reducers)
	}
	// Each input must reach 9 others with 3 units of room => 3 replicas each.
	if b.Communication != 30 {
		t.Errorf("Communication = %d, want 30", b.Communication)
	}
	if b.Replication != 3 {
		t.Errorf("Replication = %v, want 3", b.Replication)
	}
}

func TestLowerBoundsDegenerate(t *testing.T) {
	single := core.MustNewInputSet([]core.Size{5})
	if b := LowerBounds(single, 10); b.Reducers != 0 || b.Communication != 0 {
		t.Errorf("bounds for one input = %+v, want zeros", b)
	}
	// An input that cannot meet anything (w == q) still yields a finite bound.
	set := core.MustNewInputSet([]core.Size{10, 1})
	b := LowerBounds(set, 10)
	if b.Communication == 0 {
		t.Error("communication bound should be positive")
	}
}

func TestEqualSizedLowerBoundMatchesGeneralBound(t *testing.T) {
	for _, tc := range []struct {
		m int
		w core.Size
		q core.Size
	}{{10, 1, 4}, {50, 2, 12}, {7, 3, 9}} {
		set, _ := core.UniformInputSet(tc.m, tc.w)
		general := LowerBounds(set, tc.q)
		special := EqualSizedLowerBound(tc.m, tc.w, tc.q)
		if special.Reducers < general.Reducers {
			t.Errorf("m=%d w=%d q=%d: specialised bound %d weaker than general %d",
				tc.m, tc.w, tc.q, special.Reducers, general.Reducers)
		}
		if special.Communication < general.Communication {
			t.Errorf("m=%d w=%d q=%d: specialised comm bound %d weaker than general %d",
				tc.m, tc.w, tc.q, special.Communication, general.Communication)
		}
	}
}

func TestEqualSizedLowerBoundDegenerate(t *testing.T) {
	if b := EqualSizedLowerBound(1, 5, 10); b.Reducers != 0 {
		t.Errorf("single input bound = %+v", b)
	}
	if b := EqualSizedLowerBound(5, 6, 10); b.Reducers != 0 {
		t.Errorf("infeasible bound should be zero, got %+v", b)
	}
}

func TestLowerBoundsNeverExceedExactOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 10; trial++ {
		m := 4 + rng.Intn(4)
		q := core.Size(8 + rng.Intn(8))
		sizes := make([]core.Size, m)
		for i := range sizes {
			sizes[i] = core.Size(1 + rng.Int63n(int64(q)/2))
		}
		set := core.MustNewInputSet(sizes)
		exact, err := Exact(set, q, ExactOptions{})
		if err != nil && !errors.Is(err, ErrNodeBudget) {
			t.Fatal(err)
		}
		lb := LowerBounds(set, q)
		if lb.Reducers > exact.NumReducers() {
			t.Errorf("sizes=%v q=%d: lower bound %d exceeds optimum %d", sizes, q, lb.Reducers, exact.NumReducers())
		}
		cost := core.SchemaCost(exact, set.TotalSize())
		if lb.Communication > cost.Communication {
			t.Errorf("sizes=%v q=%d: comm bound %d exceeds optimum's communication %d", sizes, q, lb.Communication, cost.Communication)
		}
	}
}
