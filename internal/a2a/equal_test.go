package a2a

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
)

func TestEqualSizedSingleReducerWhenAllFit(t *testing.T) {
	set, _ := core.UniformInputSet(4, 2)
	ms, err := EqualSized(set, 10)
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

func TestEqualSizedGrouping(t *testing.T) {
	// 8 unit inputs, q=4 => k=4, groups of 2 => 4 groups => C(4,2)=6 reducers.
	set, _ := core.UniformInputSet(8, 1)
	ms, err := EqualSized(set, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ms.NumReducers() != 6 {
		t.Errorf("reducers = %d, want 6", ms.NumReducers())
	}
	if err := ms.ValidateA2A(set); err != nil {
		t.Errorf("ValidateA2A: %v", err)
	}
	want, err := EqualSizedReducerCount(8, 1, 4)
	if err != nil || want != 6 {
		t.Errorf("EqualSizedReducerCount = %d, %v; want 6", want, err)
	}
}

func TestEqualSizedOddCapacity(t *testing.T) {
	// q=5, w=1 => k=5, groups of 2; 10 inputs => 5 groups => 10 reducers.
	set, _ := core.UniformInputSet(10, 1)
	ms, err := EqualSized(set, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.ValidateA2A(set); err != nil {
		t.Errorf("ValidateA2A: %v", err)
	}
	if got, _ := EqualSizedReducerCount(10, 1, 5); got != ms.NumReducers() {
		t.Errorf("predicted %d reducers, built %d", got, ms.NumReducers())
	}
}

func TestEqualSizedRejectsMixedSizes(t *testing.T) {
	set := core.MustNewInputSet([]core.Size{1, 2, 1})
	if _, err := EqualSized(set, 10); !errors.Is(err, ErrNotEqualSized) {
		t.Errorf("EqualSized on mixed sizes = %v, want ErrNotEqualSized", err)
	}
}

func TestEqualSizedInfeasible(t *testing.T) {
	// Two inputs of size 3 with q=5 cannot meet.
	set, _ := core.UniformInputSet(2, 3)
	if _, err := EqualSized(set, 5); !errors.Is(err, core.ErrInfeasible) {
		t.Errorf("EqualSized = %v, want ErrInfeasible", err)
	}
	if _, err := EqualSizedReducerCount(2, 3, 5); !errors.Is(err, core.ErrInfeasible) {
		t.Errorf("EqualSizedReducerCount = %v, want ErrInfeasible", err)
	}
}

func TestEqualSizedDegenerateInstances(t *testing.T) {
	set, _ := core.UniformInputSet(1, 3)
	ms, err := EqualSized(set, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ms.NumReducers() != 0 {
		t.Errorf("single input should need no reducer, got %d", ms.NumReducers())
	}
	if n, err := EqualSizedReducerCount(1, 3, 3); err != nil || n != 0 {
		t.Errorf("EqualSizedReducerCount(1) = %d, %v", n, err)
	}
}

func TestEqualSizedCountMatchesConstructionSweep(t *testing.T) {
	for _, m := range []int{2, 3, 5, 9, 16, 31} {
		for _, q := range []core.Size{2, 3, 4, 7, 10, 33} {
			set, _ := core.UniformInputSet(m, 1)
			ms, err := EqualSized(set, q)
			if err != nil {
				t.Fatalf("m=%d q=%d: %v", m, q, err)
			}
			if err := ms.ValidateA2A(set); err != nil {
				t.Fatalf("m=%d q=%d invalid: %v", m, q, err)
			}
			want, err := EqualSizedReducerCount(m, 1, q)
			if err != nil {
				t.Fatalf("m=%d q=%d count: %v", m, q, err)
			}
			if ms.NumReducers() != want {
				t.Errorf("m=%d q=%d: built %d reducers, predicted %d", m, q, ms.NumReducers(), want)
			}
		}
	}
}

func TestEqualSizedNearLowerBound(t *testing.T) {
	// The grouping algorithm should stay within a small constant factor of
	// the pair-counting lower bound (asymptotically ~4x when using groups of
	// k/2; the paper's analysis).
	set, _ := core.UniformInputSet(64, 1)
	q := core.Size(8)
	ms, err := EqualSized(set, q)
	if err != nil {
		t.Fatal(err)
	}
	lb := EqualSizedLowerBound(64, 1, q)
	if lb.Reducers == 0 {
		t.Fatal("lower bound should be positive")
	}
	ratio := float64(ms.NumReducers()) / float64(lb.Reducers)
	if ratio > 4.5 {
		t.Errorf("equal-sized algorithm used %d reducers, %.2fx the lower bound %d", ms.NumReducers(), ratio, lb.Reducers)
	}
}

// TestEqualSizedMatchesGroupPairReference rebuilds the schema the slow way —
// materialised groups, one AddReducerA2A (copy, sort, re-price) per pair of
// groups — and expects EqualSized's directly written reducers to be the same.
func TestEqualSizedMatchesGroupPairReference(t *testing.T) {
	for m := 2; m <= 60; m++ {
		for _, w := range []core.Size{1, 3} {
			for k := 2; k < m; k++ {
				q := core.Size(k)*w + w/2
				set, _ := core.UniformInputSet(m, w)
				got, err := EqualSized(set, q)
				if err != nil {
					t.Fatalf("m=%d w=%d q=%d: %v", m, w, q, err)
				}
				half := k / 2
				groups := make([][]int, (m+half-1)/half)
				for i := 0; i < m; i++ {
					groups[i/half] = append(groups[i/half], i)
				}
				want := &core.MappingSchema{Problem: core.ProblemA2A, Capacity: q, Algorithm: "a2a/equal-sized"}
				for a := range groups {
					for b := a + 1; b < len(groups); b++ {
						want.AddReducerA2A(set, append(append([]int(nil), groups[a]...), groups[b]...))
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("m=%d w=%d q=%d: schema differs from the group-pair reference", m, w, q)
				}
			}
		}
	}
}
