package planner

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/core"
)

// refMaterialize is the materialize this package had before the input index:
// map every list through the permutation and let core.AddReducerA2A/X2Y copy
// it, sort it and re-sum its load from the request's sets. It defines what
// materialize must return.
func refMaterialize(cn *canonical, req Request, canon *core.MappingSchema) *core.MappingSchema {
	mapIDs := func(canonIDs, perm []int) []int {
		out := make([]int, len(canonIDs))
		for i, c := range canonIDs {
			out[i] = perm[c]
		}
		return out
	}
	ms := &core.MappingSchema{Problem: canon.Problem, Capacity: canon.Capacity, Algorithm: canon.Algorithm}
	switch cn.problem {
	case core.ProblemA2A:
		for _, r := range canon.Reducers {
			ms.AddReducerA2A(req.Set, mapIDs(r.Inputs, cn.perm))
		}
	case core.ProblemX2Y:
		for _, r := range canon.Reducers {
			xIDs := mapIDs(r.XInputs, cn.perm)
			yIDs := mapIDs(r.YInputs, cn.yPerm)
			if cn.swapped {
				// perm maps to original Y IDs, yPerm to original X IDs.
				ms.AddReducerX2Y(req.X, req.Y, yIDs, xIDs)
			} else {
				ms.AddReducerX2Y(req.X, req.Y, xIDs, yIDs)
			}
		}
	}
	return ms
}

// CheckMaterialize solves req deterministically and holds materialize to
// refMaterialize — lists, loads, nil against empty — on the winning schema.
// It also checks that no list can grow into its neighbour, that the schema is
// valid for req, and that core's hand-written encoder writes the bytes
// encoding/json writes for the same wire structs. It returns whether
// canonicalization swapped the sides. Exported for the external test package,
// which owns the golden instances.
func CheckMaterialize(t *testing.T, name string, req Request) (swapped bool) {
	t.Helper()
	cn, err := canonicalize(req)
	if err != nil {
		t.Fatalf("%s: canonicalize: %v", name, err)
	}
	plan, err := New(Config{CacheEntries: -1}).solvePortfolio(context.Background(), cn, Budget{})
	if err != nil {
		t.Fatalf("%s: solvePortfolio: %v", name, err)
	}
	got, want := cn.materialize(plan), refMaterialize(cn, req, plan.schema)
	for r := 0; r < len(got.Reducers) && r < len(want.Reducers); r++ {
		if !reflect.DeepEqual(got.Reducers[r], want.Reducers[r]) {
			t.Fatalf("%s (winner %s): reducer %d is %#v, the reference has %#v", name, plan.winner, r, got.Reducers[r], want.Reducers[r])
		}
	}
	if !reflect.DeepEqual(got, want) { // the header, the count, or nil against empty
		t.Fatalf("%s (winner %s): materialize returns %v q=%d %q with %d reducers (nil: %v), the reference %v q=%d %q with %d (nil: %v)",
			name, plan.winner, got.Problem, got.Capacity, got.Algorithm, len(got.Reducers), got.Reducers == nil,
			want.Problem, want.Capacity, want.Algorithm, len(want.Reducers), want.Reducers == nil)
	}
	for r := range got.Reducers {
		red := &got.Reducers[r]
		for _, list := range [][]int{red.Inputs, red.XInputs, red.YInputs} {
			if cap(list) != len(list) {
				t.Fatalf("%s: reducer %d has a list of %d IDs with capacity %d: an append would write into the next list",
					name, r, len(list), cap(list))
			}
		}
	}
	if req.Problem == core.ProblemA2A {
		err = got.ValidateA2A(req.Set)
	} else {
		err = got.ValidateX2Y(req.X, req.Y)
	}
	if err != nil {
		t.Fatalf("%s: materialized schema is invalid: %v", name, err)
	}

	type wireReducer struct {
		Inputs  []int     `json:"inputs,omitempty"`
		XInputs []int     `json:"x_inputs,omitempty"`
		YInputs []int     `json:"y_inputs,omitempty"`
		Load    core.Size `json:"load"`
	}
	wire := struct {
		Problem   string        `json:"problem"`
		Capacity  core.Size     `json:"capacity"`
		Algorithm string        `json:"algorithm,omitempty"`
		Reducers  []wireReducer `json:"reducers"`
	}{got.Problem.String(), got.Capacity, got.Algorithm, make([]wireReducer, len(got.Reducers))}
	for r, red := range got.Reducers {
		wire.Reducers[r] = wireReducer{red.Inputs, red.XInputs, red.YInputs, red.Load}
	}
	wantJSON, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if gotJSON, err := json.Marshal(got); err != nil || !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("%s: schema encodes to\n%s (%v)\nencoding/json writes\n%s", name, gotJSON, err, wantJSON)
	}
	return cn.swapped
}
