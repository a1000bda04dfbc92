package a2a

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
)

func TestBigSmallSplitWithOneBigInput(t *testing.T) {
	// Input 0 has size 7 > q/2 = 5; the rest are small.
	set := core.MustNewInputSet([]core.Size{7, 2, 3, 1, 2})
	q := core.Size(10)
	ms, err := BigSmallSplit(set, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.ValidateA2A(set); err != nil {
		t.Errorf("ValidateA2A: %v", err)
	}
}

func TestBigSmallSplitFallsBackWithoutBigInputs(t *testing.T) {
	set := core.MustNewInputSet([]core.Size{3, 3, 2, 2})
	ms, err := BigSmallSplit(set, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.ValidateA2A(set); err != nil {
		t.Errorf("ValidateA2A: %v", err)
	}
	bpp, err := BinPackPair(set, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ms.NumReducers() != bpp.NumReducers() {
		t.Errorf("fallback used %d reducers, BinPackPair %d", ms.NumReducers(), bpp.NumReducers())
	}
}

func TestBigSmallSplitInfeasibleTwoBig(t *testing.T) {
	set := core.MustNewInputSet([]core.Size{6, 6, 1})
	if _, err := BigSmallSplit(set, 10); !errors.Is(err, core.ErrInfeasible) {
		t.Errorf("BigSmallSplit = %v, want ErrInfeasible", err)
	}
}

func TestBigSmallSplitSingleBigInputOnly(t *testing.T) {
	set := core.MustNewInputSet([]core.Size{9})
	ms, err := BigSmallSplit(set, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ms.NumReducers() != 0 {
		t.Errorf("one input needs no reducer, got %d", ms.NumReducers())
	}
}

func TestBigSmallSplitBigInputMeetsEverySmall(t *testing.T) {
	set := core.MustNewInputSet([]core.Size{8, 1, 1, 1, 2, 1})
	q := core.Size(10)
	ms, err := BigSmallSplit(set, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.ValidateA2A(set); err != nil {
		t.Fatalf("ValidateA2A: %v", err)
	}
	// The big input (ID 0) must appear in at least ceil(smallTotal/(q-w0))
	// reducers.
	counts := make([]int, set.Len())
	for _, r := range ms.Reducers {
		for _, id := range r.Inputs {
			counts[id]++
		}
	}
	smallTotal := set.TotalSize() - set.Size(0)
	room := q - set.Size(0)
	minReplicas := int((smallTotal + room - 1) / room)
	if counts[0] < minReplicas {
		t.Errorf("big input replicated %d times, needs at least %d", counts[0], minReplicas)
	}
}

func TestBigSmallSplitRandomInstancesValid(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		q := core.Size(20 + rng.Intn(60))
		m := 2 + rng.Intn(30)
		sizes := make([]core.Size, m)
		// One potentially big input, the rest small enough to pair with it.
		big := q/2 + 1 + core.Size(rng.Int63n(int64(q/4)))
		sizes[0] = big
		for i := 1; i < m; i++ {
			maxSmall := q - big
			if maxSmall > q/2 {
				maxSmall = q / 2
			}
			sizes[i] = core.Size(1 + rng.Int63n(int64(maxSmall)))
		}
		set := core.MustNewInputSet(sizes)
		ms, err := BigSmallSplit(set, q)
		if err != nil {
			t.Fatalf("q=%d sizes=%v: %v", q, sizes, err)
		}
		if err := ms.ValidateA2A(set); err != nil {
			t.Fatalf("q=%d sizes=%v invalid: %v", q, sizes, err)
		}
	}
}
