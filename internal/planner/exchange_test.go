package planner

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestExportImportServesIsomorphicRequests: a plan exported by the planner
// that solved an instance and imported by one that never saw it makes the
// second planner answer every relabelling — and, for X2Y, mirroring — of the
// instance from its cache, with exactly the schema the first planner serves
// for the same request: there is one canonical form and one relabel.
func TestExportImportServesIsomorphicRequests(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ctx := context.Background()
	xs, ys := []core.Size{7, 2, 1, 5, 3}, []core.Size{1, 2, 4, 1, 3, 2, 5}
	for _, tc := range []struct {
		name         string
		solve, again Request
	}{
		{"A2A permuted",
			a2aRequest(core.MustNewInputSet([]core.Size{3, 9, 2, 2, 4, 1, 7, 5}), 20),
			a2aRequest(core.MustNewInputSet([]core.Size{7, 1, 2, 5, 9, 4, 2, 3}), 20)},
		{"X2Y permuted",
			x2yRequest(core.MustNewInputSet(xs), core.MustNewInputSet(ys), 12),
			x2yRequest(core.MustNewInputSet(permuted(xs, rng)), core.MustNewInputSet(permuted(ys, rng)), 12)},
		{"X2Y mirrored",
			x2yRequest(core.MustNewInputSet(xs), core.MustNewInputSet(ys), 12),
			x2yRequest(core.MustNewInputSet(permuted(ys, rng)), core.MustNewInputSet(permuted(xs, rng)), 12)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			solver, other := New(Config{}), New(Config{})
			solveReq, again := tc.solve, tc.again
			key, plan, err := solver.ExportPlan(solveReq)
			if err != nil || key == "" || plan != nil {
				t.Fatalf("ExportPlan before the solve = %q, %s, %v; want the key alone", key, plan, err)
			}
			if _, err := solver.Plan(ctx, solveReq); err != nil {
				t.Fatal(err)
			}
			solvedKey, plan, err := solver.ExportPlan(solveReq)
			if err != nil || plan == nil || solvedKey != key {
				t.Fatalf("ExportPlan after the solve = %q, %s, %v", solvedKey, plan, err)
			}
			if byKey, err := solver.CachedPlan(key); err != nil || !bytes.Equal(byKey, plan) {
				t.Fatalf("CachedPlan(%q) = %s, %v; want what ExportPlan exported", key, byKey, err)
			}
			if held, err := other.CachedPlan(key); err != nil || held != nil {
				t.Fatalf("CachedPlan on a planner that never saw the instance = %s, %v", held, err)
			}
			if againKey, _, _ := other.ExportPlan(again); againKey != key {
				t.Fatalf("isomorphic request has key %q, the solved one %q", againKey, key)
			}
			if _, held, _ := solver.ExportPlan(Request{Problem: solveReq.Problem, Set: solveReq.Set, X: solveReq.X, Y: solveReq.Y,
				Capacity: solveReq.Capacity, NoCache: true}); held != nil {
				t.Fatal("ExportPlan with NoCache read the cache")
			}
			if err := other.ImportPlan(plan); err != nil {
				t.Fatalf("ImportPlan: %v", err)
			}
			got, err := other.Plan(ctx, again)
			if err != nil {
				t.Fatal(err)
			}
			if !got.CacheHit || !got.Imported {
				t.Fatalf("Plan after ImportPlan: cache hit %v, imported %v; want both", got.CacheHit, got.Imported)
			}
			if again.Problem == core.ProblemA2A {
				err = got.Schema.ValidateA2A(again.Set)
			} else {
				err = got.Schema.ValidateX2Y(again.X, again.Y)
			}
			if err != nil {
				t.Fatalf("imported plan is not valid for the request it was served for: %v", err)
			}
			want, err := solver.Plan(ctx, again)
			if err != nil {
				t.Fatal(err)
			}
			if want.Imported {
				t.Fatal("the solving planner reports its own solve as imported")
			}
			if !reflect.DeepEqual(got.Schema, want.Schema) || got.Winner != want.Winner ||
				got.LowerBoundReducers != want.LowerBoundReducers || got.Candidates != want.Candidates || got.Cost != want.Cost {
				t.Fatalf("importing planner serves\n%+v\nthe solving planner\n%+v", got, want)
			}
		})
	}
}

// TestImportPlanRefusesWhatItCannotVerify: the bytes come from another
// process. Each damaged plan is refused with an error that names the damage,
// nothing is stored, and the next Plan solves the instance itself. A plan
// edited to answer another instance is checked against that instance: it is
// refused, or stored for it, and either way never served for the request.
func TestImportPlanRefusesWhatItCannotVerify(t *testing.T) {
	ctx := context.Background()
	req := a2aRequest(core.MustNewInputSet([]core.Size{3, 3, 2, 2, 4, 1}), 10)
	solver := New(Config{})
	if _, err := solver.Plan(ctx, req); err != nil {
		t.Fatal(err)
	}
	_, good, err := solver.ExportPlan(req)
	if err != nil || good == nil {
		t.Fatalf("ExportPlan: %s, %v", good, err)
	}
	// damaged decodes the good plan, lets edit break it, and encodes it again.
	damaged := func(edit func(*canonicalPlan)) []byte {
		var plan canonicalPlan
		if err := json.Unmarshal(good, &plan); err != nil {
			t.Fatal(err)
		}
		edit(&plan)
		raw, err := json.Marshal(plan)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	for _, tc := range []struct {
		name, wantErr string
		plan          []byte
		// another marks a plan for another instance, which may be stored for
		// it: wantErr is then unchecked.
		another bool
	}{
		{"not JSON", "decoding", []byte(`{"sizes":`), false},
		{"a plan response of the old fleet format", "no inputs",
			[]byte(`{"schema":{"problem":"A2A","capacity":10,"reducers":[{"inputs":[0,1,2,3,4,5],"load":10}]},"reducers":1}`), false},
		{"no schema", "no schema", damaged(func(p *canonicalPlan) { p.Schema = nil }), false},
		{"sizes out of order", "canonical form", damaged(func(p *canonicalPlan) {
			p.Sizes[0], p.Sizes[5] = p.Sizes[5], p.Sizes[0]
		}), false},
		{"other sizes", "", damaged(func(p *canonicalPlan) { p.Sizes[0]++ }), true},
		{"other capacity", "", damaged(func(p *canonicalPlan) { p.Schema.Capacity++ }), true},
		{"other problem", "", damaged(func(p *canonicalPlan) { p.Schema.Problem = core.ProblemX2Y }), true},
		{"a reducer above q", "capacity exceeded", damaged(func(p *canonicalPlan) {
			p.Schema.Reducers[0].Inputs = []int{0, 1, 2, 3, 4, 5}
		}), false},
		{"an uncovered pair", "not covered", damaged(func(p *canonicalPlan) {
			p.Schema.Reducers = p.Schema.Reducers[1:]
		}), false},
		{"an input the set does not have", "unknown input", damaged(func(p *canonicalPlan) {
			p.Schema.Reducers[0].Inputs[0] = 6
		}), false},
		{"a stale load", "records load", damaged(func(p *canonicalPlan) { p.Schema.Reducers[0].Load-- }), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := New(Config{})
			err := p.ImportPlan(tc.plan)
			if !tc.another {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("ImportPlan = %v, want an error mentioning %q", err, tc.wantErr)
				}
				if n := p.CacheLen(); n != 0 {
					t.Fatalf("a refused plan left %d cache entries", n)
				}
			}
			res, err := p.Plan(ctx, req)
			if err != nil || res.CacheHit {
				t.Fatalf("Plan after importing %s = %+v, %v; want a fresh solve", tc.name, res, err)
			}
		})
	}

	// A planner without a cache has nowhere to put a plan, and one that holds
	// the instance keeps its own solve.
	if err := New(Config{CacheEntries: -1}).ImportPlan(good); err == nil {
		t.Error("a planner without a cache accepted an import")
	}
	if err := solver.ImportPlan(good); err != nil {
		t.Errorf("import of an instance the planner already holds = %v", err)
	}
	if res, err := solver.Plan(ctx, req); err != nil || !res.CacheHit || res.Imported {
		t.Errorf("Plan after re-importing its own plan = %+v, %v; want its own cached solve", res, err)
	}
}

// TestImportPlanRecomputesTheLowerBound: the reducer lower bound a plan
// carries is not believed. A valid plan that claims 999 is served with the
// bound the importing planner proves itself, so the gap is never negative.
func TestImportPlanRecomputesTheLowerBound(t *testing.T) {
	ctx := context.Background()
	req := a2aRequest(core.MustNewInputSet([]core.Size{3, 3, 2, 2, 4, 1}), 10)
	solver := New(Config{})
	want, err := solver.Plan(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	_, good, err := solver.ExportPlan(req)
	if err != nil || good == nil {
		t.Fatalf("ExportPlan: %s, %v", good, err)
	}
	var plan canonicalPlan
	if err := json.Unmarshal(good, &plan); err != nil {
		t.Fatal(err)
	}
	plan.LowerBound = 999
	inflated, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	p := New(Config{})
	if err := p.ImportPlan(inflated); err != nil {
		t.Fatalf("ImportPlan: %v", err)
	}
	got, err := p.Plan(ctx, req)
	if err != nil || !got.Imported {
		t.Fatalf("Plan after ImportPlan = %+v, %v; want the imported plan", got, err)
	}
	if got.LowerBoundReducers != want.LowerBoundReducers || got.Gap != want.Gap || got.Gap < 0 {
		t.Fatalf("imported plan served with bound %d and gap %d, the solver's %d and %d",
			got.LowerBoundReducers, got.Gap, want.LowerBoundReducers, want.Gap)
	}
}
