package repro_test

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/a2a"
	"repro/internal/core"
	"repro/internal/x2y"
)

// The planner's portfolio members beside a2a.Solve and x2y.Solve, each timed
// on the instances it runs on in ./benchmark: BenchmarkPlannerCold's 500
// inputs gate all of them out. The instances follow ./benchmark's recipes
// (Zipf sizes with s = 1.5, q from the total at a number of half-capacity
// bins) under fixed seeds.

// zipfBenchSizes draws n sizes in [1, max] with ./benchmark's heavy tail.
func zipfBenchSizes(rng *rand.Rand, n int, max core.Size) []core.Size {
	z := rand.NewZipf(rng, 1.5, 1, uint64(max-1))
	out := make([]core.Size, n)
	for i := range out {
		out[i] = 1 + core.Size(z.Uint64())
	}
	return out
}

// halfBinsQ is the q at which the sizes fill about bins bins of q/2, never
// below floor.
func halfBinsQ(bins int, floor core.Size, sides ...[]core.Size) core.Size {
	var total core.Size
	for _, sizes := range sides {
		for _, w := range sizes {
			total += w
		}
	}
	return max(2*(total+core.Size(bins)-1)/core.Size(bins), floor)
}

// BenchmarkA2AExactTiny times a2a.Exact at the planner's limits (12 inputs,
// 200,000 nodes) on plan_cold's tiny regime: q in [24, 64), 8 to 12 sizes
// from q/8 to q/2, so nothing fits one reducer and most searches run to the
// node budget. One iteration solves six instances. All six run to the budget
// whether the search takes the inputs largest first or in ID order, so this
// times the cost of a search node, not how soon a search ends; the search
// order shows in BenchmarkX2YExactTiny and in plan_cold.
func BenchmarkA2AExactTiny(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	sets := make([]*core.InputSet, 6)
	qs := make([]core.Size, len(sets))
	for n := range sets {
		q := core.Size(24 + rng.Intn(40))
		sizes := make([]core.Size, 8+rng.Intn(5))
		for i := range sizes {
			sizes[i] = q/8 + core.Size(rng.Intn(int(q/2-q/8)+1))
		}
		sets[n], qs[n] = core.MustNewInputSet(sizes), q
	}
	opts := a2a.ExactOptions{MaxInputs: 12, MaxNodes: 200_000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for n, set := range sets {
			if _, err := a2a.Exact(set, qs[n], opts); err != nil && !errors.Is(err, a2a.ErrNodeBudget) {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkX2YExactTiny times x2y.Exact at the planner's limits on small X2Y
// instances: q in [24, 64) and 3 to 6 sizes a side from q/8 to q/2, each
// side ascending as the planner passes it. Searches that prove a schema
// optimal end early here, so the time moves with the search order. One
// iteration solves six instances.
func BenchmarkX2YExactTiny(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	side := func(q core.Size) *core.InputSet {
		sizes := make([]core.Size, 3+rng.Intn(4))
		for i := range sizes {
			sizes[i] = q/8 + core.Size(rng.Intn(int(q/2-q/8)+1))
		}
		slices.Sort(sizes)
		return core.MustNewInputSet(sizes)
	}
	xss, yss := make([]*core.InputSet, 6), make([]*core.InputSet, 6)
	qs := make([]core.Size, len(xss))
	for n := range qs {
		qs[n] = core.Size(24 + rng.Intn(40))
		xss[n] = side(qs[n])
		yss[n] = side(qs[n])
	}
	opts := x2y.ExactOptions{MaxInputs: 12, MaxNodes: 200_000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for n, q := range qs {
			if _, err := x2y.Exact(xss[n], yss[n], q, opts); err != nil && !errors.Is(err, x2y.ErrNodeBudget) {
				b.Fatal(err)
			}
		}
	}
}

// a2aBigInstances draws plan_cold's a2a_big regime: four instances of about
// 300 sizes in [1, 20] at 16 half-capacity bins, one of them raised above
// q/2.
func a2aBigInstances() ([]*core.InputSet, []core.Size) {
	rng := rand.New(rand.NewSource(1))
	sets := make([]*core.InputSet, 4)
	qs := make([]core.Size, len(sets))
	for n := range sets {
		sizes := zipfBenchSizes(rng, 280+rng.Intn(40), 20)
		q := halfBinsQ(16, 40, sizes)
		sizes[rng.Intn(len(sizes))] = q/2 + 1 + core.Size(rng.Intn(int(q/8)))
		sets[n], qs[n] = core.MustNewInputSet(sizes), q
	}
	return sets, qs
}

// BenchmarkA2AGreedy times a2a.Greedy on a2aBigInstances. One iteration
// solves all four.
func BenchmarkA2AGreedy(b *testing.B) {
	sets, qs := a2aBigInstances()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for n, set := range sets {
			if _, err := a2a.Greedy(set, qs[n]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkA2ABigSmallSplit times a2a.Solve on a2aBigInstances, where it
// builds BigSmallSplit: the big input beside bins of the small inputs, and
// Solve over the small inputs for their own pairs. One iteration solves all
// four.
func BenchmarkA2ABigSmallSplit(b *testing.B) {
	sets, qs := a2aBigInstances()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for n, set := range sets {
			if _, err := a2a.Solve(set, qs[n]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkX2YGreedy times x2y.Greedy on svc_mixed's X2Y hot shapes: about
// 100 x 300 sizes in [1, 30] at 20 half-capacity bins, from the catalog drawn
// under seed 64, where every fourth shape is X2Y. One iteration solves the
// catalog's first four X2Y shapes.
func BenchmarkX2YGreedy(b *testing.B) {
	rng := rand.New(rand.NewSource(64))
	var xss, yss []*core.InputSet
	var qs []core.Size
	for i := 0; len(qs) < 4; i++ {
		if i%4 != 3 {
			zipfBenchSizes(rng, 380+rng.Intn(40), 30) // an A2A shape of the catalog
			continue
		}
		x := zipfBenchSizes(rng, 90+rng.Intn(20), 30)
		y := zipfBenchSizes(rng, 280+rng.Intn(40), 30)
		xss, yss = append(xss, core.MustNewInputSet(x)), append(yss, core.MustNewInputSet(y))
		qs = append(qs, halfBinsQ(20, 60, x, y))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for n, q := range qs {
			if _, err := x2y.Greedy(xss[n], yss[n], q); err != nil {
				b.Fatal(err)
			}
		}
	}
}
