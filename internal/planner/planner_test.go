package planner

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/a2a"
	"repro/internal/core"
	"repro/internal/workload"
	"repro/internal/x2y"
)

func a2aRequest(set *core.InputSet, q core.Size) Request {
	return Request{Problem: core.ProblemA2A, Set: set, Capacity: q}
}

func x2yRequest(xs, ys *core.InputSet, q core.Size) Request {
	return Request{Problem: core.ProblemX2Y, X: xs, Y: ys, Capacity: q}
}

// TestPlanNeverWorseThanSolveA2A is the acceptance check: across a spread of
// random instances the portfolio must match or beat the paper's constructive
// dispatch, and its schema must validate.
func TestPlanNeverWorseThanSolveA2A(t *testing.T) {
	p := New(Config{})
	for seed := int64(1); seed <= 8; seed++ {
		set, err := workload.InputSet(workload.SizeSpec{Dist: workload.Zipf, Min: 1, Max: 30, Skew: 1.4}, 60, seed)
		if err != nil {
			t.Fatal(err)
		}
		q := core.Size(64)
		res, err := p.Plan(context.Background(), a2aRequest(set, q))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := res.Schema.ValidateA2A(set); err != nil {
			t.Fatalf("seed %d: planner schema invalid: %v", seed, err)
		}
		direct, err := a2a.Solve(set, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Schema.NumReducers() > direct.NumReducers() {
			t.Errorf("seed %d: planner used %d reducers, a2a.Solve used %d",
				seed, res.Schema.NumReducers(), direct.NumReducers())
		}
		if res.Schema.NumReducers() < res.LowerBoundReducers {
			t.Errorf("seed %d: %d reducers below lower bound %d",
				seed, res.Schema.NumReducers(), res.LowerBoundReducers)
		}
		if res.Gap != res.Schema.NumReducers()-res.LowerBoundReducers {
			t.Errorf("seed %d: gap %d inconsistent", seed, res.Gap)
		}
		if res.Winner == "" || res.Candidates < 1 {
			t.Errorf("seed %d: missing winner/candidates: %+v", seed, res)
		}
	}
}

func TestPlanNeverWorseThanSolveX2Y(t *testing.T) {
	p := New(Config{})
	for seed := int64(1); seed <= 8; seed++ {
		xs, err := workload.InputSet(workload.SizeSpec{Dist: workload.Uniform, Min: 1, Max: 20}, 30, seed)
		if err != nil {
			t.Fatal(err)
		}
		ys, err := workload.InputSet(workload.SizeSpec{Dist: workload.Zipf, Min: 1, Max: 20, Skew: 1.3}, 45, seed+100)
		if err != nil {
			t.Fatal(err)
		}
		q := core.Size(48)
		res, err := p.Plan(context.Background(), x2yRequest(xs, ys, q))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := res.Schema.ValidateX2Y(xs, ys); err != nil {
			t.Fatalf("seed %d: planner schema invalid: %v", seed, err)
		}
		direct, err := x2y.Solve(xs, ys, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Schema.NumReducers() > direct.NumReducers() {
			t.Errorf("seed %d: planner used %d reducers, x2y.Solve used %d",
				seed, res.Schema.NumReducers(), direct.NumReducers())
		}
	}
}

// TestPlanExactWinsOnTinyInstance checks the exact member participates: on a
// tiny instance the portfolio result must match the exact optimum.
func TestPlanExactWinsOnTinyInstance(t *testing.T) {
	set := core.MustNewInputSet([]core.Size{4, 4, 3, 3, 2, 2})
	q := core.Size(8)
	p := New(Config{})
	res, err := p.Plan(context.Background(), a2aRequest(set, q))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := a2a.Exact(set, q, a2a.ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema.NumReducers() != exact.NumReducers() {
		t.Errorf("portfolio found %d reducers, exact optimum is %d",
			res.Schema.NumReducers(), exact.NumReducers())
	}
}

// TestPlanCacheServesIsomorphicInstances checks that permuting input IDs and
// swapping X2Y sides still hits the cache, and that the served schema is
// valid for the requesting instance's own IDs.
func TestPlanCacheServesIsomorphicInstances(t *testing.T) {
	p := New(Config{})
	ctx := context.Background()

	first, err := p.Plan(ctx, a2aRequest(core.MustNewInputSet([]core.Size{9, 2, 7, 2, 5}), 16))
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("first request cannot be a cache hit")
	}
	permuted := core.MustNewInputSet([]core.Size{2, 5, 2, 9, 7})
	second, err := p.Plan(ctx, a2aRequest(permuted, 16))
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Error("permuted isomorphic instance missed the cache")
	}
	if second.Schema.NumReducers() != first.Schema.NumReducers() {
		t.Errorf("cache served %d reducers, fresh solve used %d",
			second.Schema.NumReducers(), first.Schema.NumReducers())
	}
	if err := second.Schema.ValidateA2A(permuted); err != nil {
		t.Errorf("cached schema invalid for permuted IDs: %v", err)
	}

	xs := core.MustNewInputSet([]core.Size{6, 1, 3})
	ys := core.MustNewInputSet([]core.Size{2, 2, 4, 1})
	x2yFirst, err := p.Plan(ctx, x2yRequest(xs, ys, 12))
	if err != nil {
		t.Fatal(err)
	}
	// Swap the sides and permute within each: still the same canonical
	// instance, so it must hit.
	sx := core.MustNewInputSet([]core.Size{4, 1, 2, 2})
	sy := core.MustNewInputSet([]core.Size{1, 6, 3})
	swapped, err := p.Plan(ctx, x2yRequest(sx, sy, 12))
	if err != nil {
		t.Fatal(err)
	}
	if !swapped.CacheHit {
		t.Error("side-swapped isomorphic X2Y instance missed the cache")
	}
	if swapped.Schema.NumReducers() != x2yFirst.Schema.NumReducers() {
		t.Errorf("swapped hit served %d reducers, original %d",
			swapped.Schema.NumReducers(), x2yFirst.Schema.NumReducers())
	}
	if err := swapped.Schema.ValidateX2Y(sx, sy); err != nil {
		t.Errorf("side-swapped cached schema invalid: %v", err)
	}

	st := p.Stats()
	if st.CacheHits != 2 || st.CacheMisses != 2 {
		t.Errorf("stats = %+v, want 2 hits and 2 misses", st)
	}
}

func TestPlanDifferentCapacityDoesNotShareCache(t *testing.T) {
	p := New(Config{})
	set := core.MustNewInputSet([]core.Size{3, 3, 3, 3})
	if _, err := p.Plan(context.Background(), a2aRequest(set, 6)); err != nil {
		t.Fatal(err)
	}
	res, err := p.Plan(context.Background(), a2aRequest(set, 12))
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Error("different capacity must not hit the cache")
	}
	if err := res.Schema.ValidateA2A(set); err != nil {
		t.Error(err)
	}
}

func TestPlanNoCacheAndDisabledCache(t *testing.T) {
	set := core.MustNewInputSet([]core.Size{5, 4, 3, 2, 1})
	req := a2aRequest(set, 9)
	req.NoCache = true
	p := New(Config{})
	for i := 0; i < 2; i++ {
		res, err := p.Plan(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheHit {
			t.Error("NoCache request reported a cache hit")
		}
	}
	if p.CacheLen() != 0 {
		t.Errorf("NoCache requests populated the cache: %d entries", p.CacheLen())
	}

	nocache := New(Config{CacheEntries: -1})
	res, err := nocache.Plan(context.Background(), a2aRequest(set, 9))
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit || nocache.CacheLen() != 0 {
		t.Error("cache-disabled planner should never hit or store")
	}
}

func TestPlanValidatesRequests(t *testing.T) {
	set := core.MustNewInputSet([]core.Size{1, 2})
	cases := []Request{
		{Problem: core.ProblemA2A, Set: set, Capacity: 0},
		{Problem: core.ProblemA2A, Capacity: 4},
		{Problem: core.ProblemX2Y, X: set, Capacity: 4},
		{Problem: core.Problem(99), Set: set, Capacity: 4},
	}
	p := New(Config{})
	for i, req := range cases {
		if _, err := p.Plan(context.Background(), req); err == nil {
			t.Errorf("case %d: expected an error", i)
		}
	}
	if st := p.Stats(); st.Errors != uint64(len(cases)) {
		t.Errorf("errors counter = %d, want %d", st.Errors, len(cases))
	}
}

func TestPlanInfeasibleInstance(t *testing.T) {
	// An input larger than q can never be placed.
	set := core.MustNewInputSet([]core.Size{10, 1})
	p := New(Config{})
	if _, err := p.Plan(context.Background(), a2aRequest(set, 5)); err == nil {
		t.Fatal("expected infeasibility error")
	}
	// Errors are not cached: a second identical request re-solves and fails
	// again rather than serving a stale entry.
	if _, err := p.Plan(context.Background(), a2aRequest(set, 5)); err == nil {
		t.Fatal("expected infeasibility error on retry")
	}
	if p.CacheLen() != 0 {
		t.Error("failed solves must not be cached")
	}
}

func TestPlanHonorsCancelledContext(t *testing.T) {
	set := core.MustNewInputSet([]core.Size{5, 4, 3, 2, 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := New(Config{})
	if _, err := p.Plan(ctx, a2aRequest(set, 9)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: got %v, want context.Canceled", err)
	}
	// The abandoned request's flight still completes in the background and
	// lands in the cache, so the work is not wasted.
	deadline := time.Now().Add(5 * time.Second)
	for p.CacheLen() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	res, err := p.Plan(context.Background(), a2aRequest(set, 9))
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Error("abandoned flight's plan should have been cached")
	}
	if err := res.Schema.ValidateA2A(set); err != nil {
		t.Error(err)
	}
}

func TestPlanBudgetTimeout(t *testing.T) {
	set := core.MustNewInputSet([]core.Size{4, 4, 3, 3, 2, 2, 1, 1})
	req := a2aRequest(set, 8)
	req.Budget = Budget{Timeout: time.Nanosecond}
	res, err := New(Config{}).Plan(context.Background(), req)
	if err != nil {
		t.Fatalf("expired budget should still yield the baseline plan: %v", err)
	}
	if err := res.Schema.ValidateA2A(set); err != nil {
		t.Error(err)
	}
}

func TestDefaultPlannerSharedFacade(t *testing.T) {
	set := core.MustNewInputSet([]core.Size{8, 8, 4, 4, 2, 2})
	res, err := Plan(context.Background(), a2aRequest(set, 16))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schema.ValidateA2A(set); err != nil {
		t.Error(err)
	}
}

// TestPlanLeavesNoMemberRunning: when Plan returns, every member it started
// has returned too, however small the budget's Timeout. The instance is
// tiny-shaped, and its exact search runs for milliseconds until the node cap
// stops it.
func TestPlanLeavesNoMemberRunning(t *testing.T) {
	set := core.MustNewInputSet([]core.Size{10, 18, 17, 22, 17, 11, 23, 20, 22, 24, 6, 9})
	req := a2aRequest(set, 48)
	req.NoCache = true
	req.Budget = Budget{Timeout: time.Nanosecond}
	before := runtime.NumGoroutine()
	res, err := New(Config{}).Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after Plan returned, %d before: a member is still running", n, before)
	}
	if err := res.Schema.ValidateA2A(set); err != nil {
		t.Error(err)
	}
}

// TestPlanAboveExactCeiling: a budget that asks the exact member for more
// than its 64 inputs costs the portfolio that member and nothing else.
func TestPlanAboveExactCeiling(t *testing.T) {
	sizes := make([]core.Size, 65)
	for i := range sizes {
		sizes[i] = core.Size(1 + i%7)
	}
	set := core.MustNewInputSet(sizes)
	if _, err := a2a.Exact(set, 24, a2a.ExactOptions{MaxInputs: 100}); !errors.Is(err, a2a.ErrTooLargeForExact) {
		t.Fatalf("a2a.Exact on 65 inputs: err = %v, want ErrTooLargeForExact", err)
	}
	req := a2aRequest(set, 24)
	req.Budget = Budget{ExactMaxInputs: 100}
	res, err := New(Config{}).Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schema.ValidateA2A(set); err != nil {
		t.Error(err)
	}
	if res.Winner == "a2a/exact" || res.Candidates != 2 {
		t.Errorf("winner %q with %d candidates, want solve or greedy of 2 (the exact member errs)", res.Winner, res.Candidates)
	}
}
