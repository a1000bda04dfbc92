package a2a

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/binpack"
	"repro/internal/core"
)

func TestBinPackPairSmallInstance(t *testing.T) {
	set := core.MustNewInputSet([]core.Size{3, 3, 2, 2, 4, 1})
	q := core.Size(10)
	ms, err := BinPackPair(set, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.ValidateA2A(set); err != nil {
		t.Errorf("ValidateA2A: %v", err)
	}
}

func TestBinPackPairRejectsBigInputs(t *testing.T) {
	set := core.MustNewInputSet([]core.Size{6, 2, 2})
	if _, err := BinPackPair(set, 10); !errors.Is(err, ErrHasBigInputs) {
		t.Errorf("BinPackPair = %v, want ErrHasBigInputs", err)
	}
}

func TestBinPackPairInfeasible(t *testing.T) {
	set := core.MustNewInputSet([]core.Size{7, 7})
	if _, err := BinPackPair(set, 10); !errors.Is(err, core.ErrInfeasible) {
		t.Errorf("BinPackPair = %v, want ErrInfeasible", err)
	}
}

func TestBinPackPairSingleBin(t *testing.T) {
	// All inputs fit in one q/2 bin: a single reducer suffices.
	set := core.MustNewInputSet([]core.Size{1, 1, 2})
	ms, err := BinPackPair(set, 10)
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
	ms, err := BinPackPair(set, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ms.NumReducers() != 0 {
		t.Errorf("single input should need no reducer, got %d", ms.NumReducers())
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
		ms, err := BinPackPair(set, q)
		if err != nil {
			t.Fatal(err)
		}
		// One reducer per pair of bins, or one for a single bin.
		if b := packing.NumBins(); ms.NumReducers() != max(1, b*(b-1)/2) {
			t.Errorf("reducers = %d for %d bins", ms.NumReducers(), b)
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
		ms, err := BinPackPair(set, q)
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
