package a2a

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/binpack"
	"repro/internal/core"
	"repro/internal/workload"
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

// TestBigSmallSplitRefusesWithoutBigInputs: with no input above q/2 there is
// nothing for BigSmallSplit to split, and the error points at Solve, which
// serves every instance.
func TestBigSmallSplitRefusesWithoutBigInputs(t *testing.T) {
	set := core.MustNewInputSet([]core.Size{3, 3, 2, 2})
	ms, err := BigSmallSplit(set, 10)
	if err == nil || !strings.Contains(err.Error(), "use Solve") {
		t.Fatalf("BigSmallSplit = %v, %v; want an error naming Solve", ms, err)
	}
	// One input alone needs no reducer, big or not.
	if ms, err := BigSmallSplit(core.MustNewInputSet([]core.Size{3}), 10); err != nil || ms.NumReducers() != 0 {
		t.Errorf("one small input: %v, %v", ms, err)
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

// refBigSmallSplit is BigSmallSplit as the paper states it: step 1's residual
// bins beside the big input, and BinPackPair's every pair of q/2 bins over the
// small inputs for their own pairs.
func refBigSmallSplit(set *core.InputSet, q core.Size) (*core.MappingSchema, error) {
	bigIDs, smallIDs := set.SplitBySize(q / 2)
	big := bigIDs[0]
	residual, err := binpack.Pack(binpack.ItemsFromIDs(set, smallIDs), q-set.Size(big), binpack.FirstFitDecreasing)
	if err != nil {
		return nil, err
	}
	ms := &core.MappingSchema{Problem: core.ProblemA2A, Capacity: q, Algorithm: "a2a/big-small-split/first-fit-decreasing"}
	for _, bin := range residual.Bins {
		ms.AddReducerA2A(set, append([]int{big}, bin.Items...))
	}
	sizes := make([]core.Size, len(smallIDs))
	for i, id := range smallIDs {
		sizes[i] = set.Size(id)
	}
	pairs, err := BinPackPair(core.MustNewInputSet(sizes), q)
	if err != nil {
		return nil, err
	}
	for _, r := range pairs.Reducers {
		ids := make([]int, len(r.Inputs))
		for j, id := range r.Inputs {
			ids[j] = smallIDs[id]
		}
		ms.AddReducerA2A(set, ids)
	}
	return ms, nil
}

// TestBigSmallSplitNeverAbovePairs: on 1,200 draws of one input in
// (q/2, 5q/8] beside small inputs, uniform or Zipf and capped at q/40, q/8 or
// q - w_big, that fill 3 to 32 bins of q/2, BigSmallSplit is valid and never
// above refBigSmallSplit: no more reducers, and no more communication where
// it has as many. Its step 2 must beat the pairs on at least 40% of the
// draws.
func TestBigSmallSplitNeverAbovePairs(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const draws = 1200
	better, reducers, refReducers := 0, 0, 0
	for trial := 0; trial < draws; trial++ {
		q := core.Size(80 + rng.Intn(520))
		big := q/2 + 1 + core.Size(rng.Int63n(int64(q/8)))
		spec := workload.SizeSpec{Dist: workload.Uniform, Min: 1, Max: [...]core.Size{q / 40, q / 8, q - big}[trial%3]}
		if trial%2 == 1 {
			spec.Dist, spec.Skew = workload.Zipf, 1.5
		}
		pool, err := workload.Sizes(spec, 8000, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		sizes, fill := []core.Size{big}, core.Size(3+rng.Intn(30))*(q/2)
		for _, w := range pool {
			if fill -= w; fill < 0 {
				break
			}
			sizes = append(sizes, w)
		}
		set := core.MustNewInputSet(sizes)
		ms, err := BigSmallSplit(set, q)
		if err != nil {
			t.Fatalf("m=%d q=%d: %v", set.Len(), q, err)
		}
		if err := ms.ValidateA2A(set); err != nil {
			t.Fatalf("m=%d q=%d: %v", set.Len(), q, err)
		}
		ref, err := refBigSmallSplit(set, q)
		if err != nil {
			t.Fatal(err)
		}
		if betterSchema(ref, ms, set) {
			t.Fatalf("m=%d q=%d: %d reducers and communication %d, the pairs %d and %d", set.Len(), q,
				ms.NumReducers(), core.SchemaCost(ms).Communication, ref.NumReducers(), core.SchemaCost(ref).Communication)
		}
		if betterSchema(ms, ref, set) {
			better++
		}
		reducers += ms.NumReducers()
		refReducers += ref.NumReducers()
	}
	t.Logf("better than the pairs on %d of %d draws; %d reducers against %d", better, draws, reducers, refReducers)
	if better*10 < draws*4 {
		t.Fatalf("better than the pairs on %d of %d draws, want 40%%", better, draws)
	}
}
