package repro_test

import (
	"testing"

	"repro/internal/a2a"
	"repro/internal/core"
	"repro/internal/workload"
	"repro/internal/x2y"
)

// TestPipelineSmallerCapacityTradesWorkForSpeedup prices the paper's
// parallelism tradeoff with the LPT makespan core.CostWithWorkers reports: on
// a 64-worker pool the small-q schema must speed up at least as much as the
// large-q schema (speedup = total work / makespan), neither beyond the pool
// size, and pay for it with more total work (communication).
func TestPipelineSmallerCapacityTradesWorkForSpeedup(t *testing.T) {
	set, err := workload.InputSet(workload.SizeSpec{Dist: workload.Zipf, Min: 1, Max: 20, Skew: 1.5}, 400, 31)
	if err != nil {
		t.Fatal(err)
	}
	const pool = 64
	cost := func(q core.Size) core.Cost {
		ms, err := a2a.Solve(set, q)
		if err != nil {
			t.Fatal(err)
		}
		return core.CostWithWorkers(ms, set.TotalSize(), pool)
	}
	speedup := func(c core.Cost) float64 { return float64(c.Communication) / float64(c.Makespan) }
	small, large := cost(64), cost(512)
	if speedup(small) > pool || speedup(large) > pool {
		t.Errorf("speedups %.2f/%.2f exceed the pool size", speedup(small), speedup(large))
	}
	if speedup(small) < speedup(large) {
		t.Errorf("small-q schema (%d reducers) should parallelise at least as well as large-q (%d reducers): %.2f vs %.2f",
			small.Reducers, large.Reducers, speedup(small), speedup(large))
	}
	if small.Communication <= large.Communication {
		t.Errorf("small-q schema should have more total work: %d vs %d", small.Communication, large.Communication)
	}
}

// TestPipelineX2YSchemaAgainstExactOnTinyInstance cross-checks the X2Y
// heuristic, the exact solver, and the lower bound on a tiny instance that
// all three can handle.
func TestPipelineX2YSchemaAgainstExactOnTinyInstance(t *testing.T) {
	xs := core.MustNewInputSet([]core.Size{4, 2, 3})
	ys := core.MustNewInputSet([]core.Size{2, 2, 1})
	q := core.Size(8)
	heur, err := x2y.Solve(xs, ys, q)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := x2y.Exact(xs, ys, q, x2y.ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lb := x2y.LowerBounds(xs, ys, q)
	if exact.NumReducers() > heur.NumReducers() {
		t.Errorf("exact %d reducers worse than heuristic %d", exact.NumReducers(), heur.NumReducers())
	}
	if exact.NumReducers() < lb.Reducers {
		t.Errorf("exact %d reducers below lower bound %d", exact.NumReducers(), lb.Reducers)
	}
	if err := heur.ValidateX2Y(xs, ys); err != nil {
		t.Errorf("heuristic schema invalid: %v", err)
	}
	if err := exact.ValidateX2Y(xs, ys); err != nil {
		t.Errorf("exact schema invalid: %v", err)
	}
}
