package planner_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/planner"
)

// TestMaterializeMatchesAddReducerReference runs planner.CheckMaterialize
// over every golden instance, re-ordered so the permutation is not the
// identity, and over random instances small enough for the exact members and
// drawn from few distinct sizes, where the canonical order has ties to break.
// X2Y instances go through both ways round, so one of each pair is swapped.
func TestMaterializeMatchesAddReducerReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	shuffled := func(set *core.InputSet) *core.InputSet {
		sizes := set.Sizes()
		rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
		return core.MustNewInputSet(sizes)
	}
	draw := func(m int, max core.Size) *core.InputSet {
		sizes := make([]core.Size, m)
		for i := range sizes {
			sizes[i] = 1 + core.Size(rng.Int63n(int64(max)))
		}
		return core.MustNewInputSet(sizes)
	}
	swaps := map[bool]int{}
	check := func(name string, req planner.Request) {
		if req.Problem == core.ProblemA2A {
			planner.CheckMaterialize(t, name, req)
			return
		}
		swaps[planner.CheckMaterialize(t, name, req)]++
		req.X, req.Y = req.Y, req.X
		swaps[planner.CheckMaterialize(t, name+"/mirrored", req)]++
	}

	for name, req := range goldenInstances(t) {
		check(name, req)
		if req.Problem == core.ProblemA2A {
			req.Set = shuffled(req.Set)
		} else {
			req.X, req.Y = shuffled(req.X), shuffled(req.Y)
		}
		check(name+"/shuffled", req)
	}
	for i := 0; i < 150; i++ {
		max := core.Size(1 + rng.Intn(9))
		q := 2*max + core.Size(rng.Intn(40))
		check(fmt.Sprintf("random-a2a-%d", i), planner.Request{
			Problem: core.ProblemA2A, Capacity: q, Set: draw(1+rng.Intn(40), max)})
		check(fmt.Sprintf("random-x2y-%d", i), planner.Request{
			Problem: core.ProblemX2Y, Capacity: q, X: draw(1+rng.Intn(20), max), Y: draw(1+rng.Intn(20), max)})
	}
	if swaps[true] == 0 || swaps[false] == 0 {
		t.Fatalf("X2Y instances canonicalized swapped %d times and unswapped %d: both must occur", swaps[true], swaps[false])
	}
}
