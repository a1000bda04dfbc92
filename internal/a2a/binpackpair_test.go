package a2a

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/binpack"
	"repro/internal/core"
)

// policies lists every packing heuristic.
var policies = []binpack.Policy{binpack.FirstFitDecreasing, binpack.BestFitDecreasing, binpack.WorstFitDecreasing}

func TestBinPackPairSmallInstance(t *testing.T) {
	set := core.MustNewInputSet([]core.Size{3, 3, 2, 2, 4, 1})
	q := core.Size(10)
	ms, err := BinPackPair(set, q, binpack.FirstFitDecreasing)
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.ValidateA2A(set); err != nil {
		t.Errorf("ValidateA2A: %v", err)
	}
}

func TestBinPackPairRejectsBigInputs(t *testing.T) {
	set := core.MustNewInputSet([]core.Size{6, 2, 2})
	if _, err := BinPackPair(set, 10, binpack.FirstFitDecreasing); !errors.Is(err, ErrHasBigInputs) {
		t.Errorf("BinPackPair = %v, want ErrHasBigInputs", err)
	}
}

func TestBinPackPairInfeasible(t *testing.T) {
	set := core.MustNewInputSet([]core.Size{7, 7})
	if _, err := BinPackPair(set, 10, binpack.FirstFitDecreasing); !errors.Is(err, core.ErrInfeasible) {
		t.Errorf("BinPackPair = %v, want ErrInfeasible", err)
	}
}

func TestBinPackPairSingleBin(t *testing.T) {
	// All inputs fit in one q/2 bin: a single reducer suffices.
	set := core.MustNewInputSet([]core.Size{1, 1, 2})
	ms, err := BinPackPair(set, 10, binpack.FirstFitDecreasing)
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

func TestBinPackPairDegenerate(t *testing.T) {
	set := core.MustNewInputSet([]core.Size{4})
	ms, err := BinPackPair(set, 10, binpack.FirstFitDecreasing)
	if err != nil {
		t.Fatal(err)
	}
	if ms.NumReducers() != 0 {
		t.Errorf("single input should need no reducer, got %d", ms.NumReducers())
	}
}

func TestBinPackPairReducerCount(t *testing.T) {
	if BinPackPairReducerCount(0) != 0 || BinPackPairReducerCount(1) != 1 {
		t.Error("degenerate bin counts wrong")
	}
	if BinPackPairReducerCount(5) != 10 {
		t.Errorf("BinPackPairReducerCount(5) = %d, want 10", BinPackPairReducerCount(5))
	}
}

func TestBinPackPairAllPoliciesValid(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		m := 2 + rng.Intn(40)
		q := core.Size(20 + rng.Intn(60))
		sizes := make([]core.Size, m)
		for i := range sizes {
			sizes[i] = core.Size(1 + rng.Int63n(int64(q/2)))
		}
		set := core.MustNewInputSet(sizes)
		for _, pol := range policies {
			ms, err := BinPackPair(set, q, pol)
			if err != nil {
				t.Fatalf("policy %v: %v", pol, err)
			}
			if err := ms.ValidateA2A(set); err != nil {
				t.Fatalf("policy %v produced invalid schema: %v", pol, err)
			}
		}
	}
}

func TestBinPackPairRespectsPredictedReducerCount(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		m := 4 + rng.Intn(60)
		q := core.Size(30 + rng.Intn(50))
		sizes := make([]core.Size, m)
		for i := range sizes {
			sizes[i] = core.Size(1 + rng.Int63n(int64(q/2)))
		}
		set := core.MustNewInputSet(sizes)
		packing, err := binpack.Pack(binpack.ItemsFromInputSet(set), q/2, binpack.FirstFitDecreasing)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := BinPackPair(set, q, binpack.FirstFitDecreasing)
		if err != nil {
			t.Fatal(err)
		}
		if want := BinPackPairReducerCount(packing.NumBins()); ms.NumReducers() != want {
			t.Errorf("reducers = %d, want %d for %d bins", ms.NumReducers(), want, packing.NumBins())
		}
	}
}

func TestBinPackPairNeverBelowLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 20; trial++ {
		m := 4 + rng.Intn(30)
		q := core.Size(20 + rng.Intn(40))
		sizes := make([]core.Size, m)
		for i := range sizes {
			sizes[i] = core.Size(1 + rng.Int63n(int64(q/2)))
		}
		set := core.MustNewInputSet(sizes)
		ms, err := BinPackPair(set, q, binpack.FirstFitDecreasing)
		if err != nil {
			t.Fatal(err)
		}
		lb := LowerBounds(set, q)
		if ms.NumReducers() < lb.Reducers {
			t.Fatalf("schema uses %d reducers, below lower bound %d", ms.NumReducers(), lb.Reducers)
		}
		cost := core.SchemaCost(ms, set.TotalSize())
		if cost.Communication < lb.Communication {
			t.Fatalf("communication %d below lower bound %d", cost.Communication, lb.Communication)
		}
	}
}
