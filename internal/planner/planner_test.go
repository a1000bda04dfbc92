package planner

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/a2a"
	"repro/internal/binpack"
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

// TestEqualSizedPolicyMembersAreDuplicates is the licence for leaving
// a2a/solve-bfd and a2a/solve-wfd out of the race on an equal-sized set: the
// dispatch never reads the policy there, so all three members build one and
// the same schema — and the race then reports one candidate fewer per
// skipped member.
func TestEqualSizedPolicyMembersAreDuplicates(t *testing.T) {
	for _, tc := range []struct {
		m    int
		w, q core.Size
	}{
		{40, 3, 30},   // grouping
		{30, 30, 100}, // medium regime: the triple cover wins
		{500, 7, 440}, // greedy and exact stay out
		{9, 5, 10},    // one pair per reducer
	} {
		set, err := core.UniformInputSet(tc.m, tc.w)
		if err != nil {
			t.Fatal(err)
		}
		base, err := a2a.Solve(set, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		for _, policy := range []binpack.Policy{binpack.BestFitDecreasing, binpack.WorstFitDecreasing} {
			ms, err := a2a.SolveWithOptions(set, tc.q, a2a.Options{Policy: policy})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ms, base) {
				t.Errorf("m=%d w=%d q=%d: the %v member's schema differs from a2a/solve's", tc.m, tc.w, tc.q, policy)
			}
		}

		req := a2aRequest(set, tc.q)
		req.Budget = Budget{Timeout: -1}
		cn, err := canonicalize(req)
		if err != nil {
			t.Fatal(err)
		}
		canonSet, _, err := cn.inputSets()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range portfolio(cn, canonSet, nil, req.Budget) {
			if c.name == "a2a/solve-bfd" || c.name == "a2a/solve-wfd" {
				t.Errorf("m=%d w=%d q=%d: %s raced on an equal-sized set", tc.m, tc.w, tc.q, c.name)
			}
		}
		res, err := New(Config{}).Plan(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if tc.m == 500 && res.Candidates != 1 {
			t.Errorf("m=500: %d candidates, want 1 (a2a/solve alone)", res.Candidates)
		}
	}

	// One different size and the policy members are back.
	sizes := make([]core.Size, 500)
	for i := range sizes {
		sizes[i] = 7
	}
	sizes[0] = 8
	req := a2aRequest(core.MustNewInputSet(sizes), 440)
	req.Budget = Budget{Timeout: -1}
	res, err := New(Config{}).Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Candidates != 3 {
		t.Errorf("different-sized set: %d candidates, want 3", res.Candidates)
	}
}

// TestPlanAboveExactCeiling: a budget that asks the exact member for more
// than its 64 inputs costs the race that member and nothing else.
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
	req.Budget = Budget{Timeout: -1, ExactMaxInputs: 100}
	res, err := New(Config{}).Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schema.ValidateA2A(set); err != nil {
		t.Error(err)
	}
	if res.Winner == "a2a/exact" || res.Candidates != 4 {
		t.Errorf("winner %q with %d candidates, want a constructive winner among 4 (the exact member errs)", res.Winner, res.Candidates)
	}
}
