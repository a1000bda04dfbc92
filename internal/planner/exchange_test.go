package planner

import (
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
			if againKey, _, _ := other.ExportPlan(again); againKey != key {
				t.Fatalf("isomorphic request has key %q, the solved one %q", againKey, key)
			}
			if _, held, _ := solver.ExportPlan(Request{Problem: solveReq.Problem, Set: solveReq.Set, X: solveReq.X, Y: solveReq.Y,
				Capacity: solveReq.Capacity, NoCache: true}); held != nil {
				t.Fatal("ExportPlan with NoCache read the cache")
			}
			if err := other.ImportPlan(again, plan); err != nil {
				t.Fatalf("ImportPlan: %v", err)
			}
			got, err := other.Plan(ctx, again)
			if err != nil {
				t.Fatal(err)
			}
			if !got.CacheHit {
				t.Fatal("Plan after ImportPlan was not a cache hit")
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
			if !reflect.DeepEqual(got.Schema, want.Schema) || got.Winner != want.Winner ||
				got.LowerBoundReducers != want.LowerBoundReducers || got.Candidates != want.Candidates || got.Cost != want.Cost {
				t.Fatalf("importing planner serves\n%+v\nthe solving planner\n%+v", got, want)
			}
		})
	}
}

// TestImportPlanRefusesWhatItCannotVerify: the bytes come from another
// process. Each damaged plan is refused with an error that names the damage,
// nothing is stored, and the next Plan solves the instance itself.
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
	}{
		{"not JSON", "decoding", []byte(`{"sizes":`)},
		{"a plan response of the old fleet format", "another instance",
			[]byte(`{"schema":{"problem":"A2A","capacity":10,"reducers":[{"inputs":[0,1,2,3,4,5],"load":10}]},"reducers":1}`)},
		{"no schema", "another instance", damaged(func(p *canonicalPlan) { p.Schema = nil })},
		{"other sizes", "another instance", damaged(func(p *canonicalPlan) { p.Sizes[0]++ })},
		{"other capacity", "another instance", damaged(func(p *canonicalPlan) { p.Schema.Capacity++ })},
		{"other problem", "another instance", damaged(func(p *canonicalPlan) { p.Schema.Problem = core.ProblemX2Y })},
		{"a reducer above q", "capacity exceeded", damaged(func(p *canonicalPlan) {
			p.Schema.Reducers[0].Inputs = []int{0, 1, 2, 3, 4, 5}
		})},
		{"an uncovered pair", "not covered", damaged(func(p *canonicalPlan) {
			p.Schema.Reducers = p.Schema.Reducers[1:]
		})},
		{"an input the set does not have", "unknown input", damaged(func(p *canonicalPlan) {
			p.Schema.Reducers[0].Inputs[0] = 6
		})},
		{"a stale load", "records load", damaged(func(p *canonicalPlan) { p.Schema.Reducers[0].Load-- })},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := New(Config{})
			err := p.ImportPlan(req, tc.plan)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("ImportPlan = %v, want an error mentioning %q", err, tc.wantErr)
			}
			if n := p.CacheLen(); n != 0 {
				t.Fatalf("a refused plan left %d cache entries", n)
			}
			res, err := p.Plan(ctx, req)
			if err != nil || res.CacheHit {
				t.Fatalf("Plan after a refused import = %+v, %v; want a fresh solve", res, err)
			}
		})
	}

	// A planner without a cache has nowhere to put a plan, and one that holds
	// the instance keeps what it has.
	if err := New(Config{CacheEntries: -1}).ImportPlan(req, good); err == nil {
		t.Error("a planner without a cache accepted an import")
	}
	if err := solver.ImportPlan(req, []byte(`garbage`)); err != nil {
		t.Errorf("import of an instance the planner already holds = %v, want nil without reading the bytes", err)
	}
}
