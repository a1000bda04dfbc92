package a2a

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

func TestGreedyValidOnSmallInstance(t *testing.T) {
	set := core.MustNewInputSet([]core.Size{3, 1, 4, 1, 5, 2})
	ms, err := Greedy(set, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.ValidateA2A(set); err != nil {
		t.Errorf("ValidateA2A: %v", err)
	}
}

func TestGreedyDegenerate(t *testing.T) {
	single := core.MustNewInputSet([]core.Size{5})
	ms, err := Greedy(single, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ms.NumReducers() != 0 {
		t.Errorf("single input: %d reducers, want 0", ms.NumReducers())
	}
}

func TestGreedyInfeasible(t *testing.T) {
	set := core.MustNewInputSet([]core.Size{9, 9})
	if _, err := Greedy(set, 10); !errors.Is(err, core.ErrInfeasible) {
		t.Errorf("Greedy = %v, want ErrInfeasible", err)
	}
}

func TestGreedySingleReducerWhenEverythingFits(t *testing.T) {
	set := core.MustNewInputSet([]core.Size{1, 2, 3})
	ms, err := Greedy(set, 100)
	if err != nil {
		t.Fatal(err)
	}
	if ms.NumReducers() != 1 {
		t.Errorf("reducers = %d, want 1", ms.NumReducers())
	}
}

func TestGreedyRandomInstancesValid(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 30; trial++ {
		m := 2 + rng.Intn(40)
		q := core.Size(20 + rng.Intn(40))
		sizes := make([]core.Size, m)
		for i := range sizes {
			sizes[i] = core.Size(1 + rng.Int63n(int64(q/2)))
		}
		set := core.MustNewInputSet(sizes)
		ms, err := Greedy(set, q)
		if err != nil {
			t.Fatalf("sizes=%v q=%d: %v", sizes, q, err)
		}
		if err := ms.ValidateA2A(set); err != nil {
			t.Fatalf("sizes=%v q=%d invalid: %v", sizes, q, err)
		}
		lb := LowerBounds(set, q)
		if ms.NumReducers() < lb.Reducers {
			t.Fatalf("greedy used %d reducers, below the lower bound %d", ms.NumReducers(), lb.Reducers)
		}
	}
}

func TestCoverageBookkeeping(t *testing.T) {
	c := newCoverage(4, 0)
	if c.remaining != 6 {
		t.Fatalf("remaining = %d, want 6", c.remaining)
	}
	c.cover(0, 1)
	c.cover(1, 0) // idempotent
	if c.remaining != 5 {
		t.Errorf("remaining = %d, want 5", c.remaining)
	}
	if !c.covered(0, 1) || !c.covered(1, 0) {
		t.Error("pair (0,1) should be covered")
	}
	if !c.covered(2, 2) {
		t.Error("self pairs are trivially covered")
	}
	i, j := c.firstUncovered()
	if i != 0 || j != 2 {
		t.Errorf("firstUncovered = (%d,%d), want (0,2)", i, j)
	}
	c.uncover(0, 1)
	if c.remaining != 6 {
		t.Errorf("after uncover remaining = %d, want 6", c.remaining)
	}
	c.uncover(0, 1) // idempotent
	if c.remaining != 6 {
		t.Errorf("double uncover changed remaining to %d", c.remaining)
	}
	i, j = c.firstUncoveredFrom(0, 1)
	if i != 0 || j != 1 {
		t.Errorf("firstUncoveredFrom = (%d,%d), want (0,1)", i, j)
	}
	c.uncover(3, 3) // no-op
	if c.remaining != 6 {
		t.Error("uncovering a self pair changed the count")
	}
}

// refGreedy is Greedy as it was before it kept gains at all: every pass
// recomputes every candidate's gain as a popcount of the member set against
// the candidate's coverage row.
func refGreedy(set *core.InputSet, q core.Size) *core.MappingSchema {
	m := set.Len()
	cov := newCoverage(m, 0)
	ms := &core.MappingSchema{Problem: core.ProblemA2A, Capacity: q, Algorithm: "a2a/greedy"}
	memberSet := core.NewCoverSet(m)
	for cov.remaining > 0 {
		i, j := cov.firstUncovered()
		members := []int{i, j}
		memberSet.Clear()
		memberSet.Add(i)
		memberSet.Add(j)
		load := set.Size(i) + set.Size(j)
		cov.cover(i, j)
		for {
			best, bestGain := -1, 0
			for x := 0; x < m; x++ {
				if memberSet.Contains(x) || load+set.Size(x) > q {
					continue
				}
				if gain := memberSet.CountAndNot(cov.row(x)); gain > bestGain {
					best, bestGain = x, gain
				}
			}
			if best == -1 {
				break
			}
			for _, y := range members {
				cov.cover(best, y)
			}
			members = append(members, best)
			memberSet.Add(best)
			load += set.Size(best)
		}
		ms.AddReducerA2A(set, members)
	}
	return ms
}

// zipfSizes draws n sizes in [1, max] with a heavy tail, like the benchmark's
// a2a_zipf and a2a_big regimes.
func zipfSizes(rng *rand.Rand, n int, max core.Size) []core.Size {
	sizes, err := workload.Sizes(workload.SizeSpec{Dist: workload.Zipf, Min: 1, Max: max, Skew: 1.5}, n, rng.Int63())
	if err != nil {
		panic(err)
	}
	return sizes
}

// halfBinsCapacity is the q at which the sizes fill about bins bins of q/2.
func halfBinsCapacity(sizes []core.Size, bins int, floor core.Size) core.Size {
	var total core.Size
	for _, w := range sizes {
		total += w
	}
	return max(2*(total+core.Size(bins)-1)/core.Size(bins), floor)
}

// regimeInstance draws one instance shaped like the benchmark's A2A regimes
// at a size the planner still runs Greedy on: 0 is a2a_zipf, 1 is a2a_big
// (one input above q/2), 2 is equal-sized, 3 is tiny.
func regimeInstance(rng *rand.Rand, regime int) (*core.InputSet, core.Size) {
	var sizes []core.Size
	var q core.Size
	switch regime {
	case 0:
		sizes = zipfSizes(rng, 200+rng.Intn(100), 30)
		q = halfBinsCapacity(sizes, 24, 60)
	case 1:
		sizes = zipfSizes(rng, 280+rng.Intn(40), 20)
		q = halfBinsCapacity(sizes, 16, 40)
		sizes[rng.Intn(len(sizes))] = q/2 + 1 + core.Size(rng.Intn(int(q/8)))
	case 2:
		w := core.Size(1 + rng.Intn(40))
		sizes = make([]core.Size, 150+rng.Intn(100))
		for i := range sizes {
			sizes[i] = w
		}
		q = 12*w + core.Size(rng.Intn(int(w)))
	default:
		q = core.Size(24 + rng.Intn(40))
		sizes = make([]core.Size, 8+rng.Intn(5))
		for i := range sizes {
			sizes[i] = q/8 + core.Size(rng.Intn(int(q/2-q/8)+1))
		}
	}
	return core.MustNewInputSet(sizes), q
}

// TestGreedyMatchesPopcountReference holds the bit-sliced gains to the
// recomputed ones: same argmax, same lowest-ID tie-break, so the same schema.
func TestGreedyMatchesPopcountReference(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	check := func(set *core.InputSet, q core.Size) {
		t.Helper()
		got, err := Greedy(set, q)
		if err != nil {
			t.Fatalf("sizes=%v q=%d: %v", set.Sizes(), q, err)
		}
		if want := refGreedy(set, q); !reflect.DeepEqual(got, want) {
			t.Fatalf("sizes=%v q=%d: schema differs from the reference (%d reducers, reference %d)",
				set.Sizes(), q, got.NumReducers(), want.NumReducers())
		}
	}
	for trial := 0; trial < 300; trial++ {
		m := 2 + rng.Intn(90) // crosses the 64-bit word boundary of a row
		q := core.Size(20 + rng.Intn(40))
		sizes := make([]core.Size, m)
		for i := range sizes {
			sizes[i] = core.Size(1 + rng.Int63n(int64(q/2)))
		}
		check(core.MustNewInputSet(sizes), q)
	}
	for trial := 0; trial < 24; trial++ {
		check(regimeInstance(rng, trial%4))
	}
}
