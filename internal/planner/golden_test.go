package planner_test

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/planner"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_plans.json from the current planner output")

// goldenCase is one planning instance. The winning schema is a pure function
// of the instance, whatever the budget's Timeout — so its fingerprint can be
// pinned across refactors of the solver internals.
type goldenCase struct {
	Name     string    `json:"name"`
	Problem  string    `json:"problem"`
	Capacity core.Size `json:"capacity"`
	// Winner, Reducers, and Fingerprint pin the deterministic result.
	Winner      string `json:"winner"`
	Reducers    int    `json:"reducers"`
	Fingerprint string `json:"fingerprint"`
}

// goldenInstances builds the instances; sizes come from the seeded workload
// generators so the file regenerates identically everywhere.
func goldenInstances(t testing.TB) map[string]planner.Request {
	t.Helper()
	mk := func(spec workload.SizeSpec, m int, seed int64) *core.InputSet {
		set, err := workload.InputSet(spec, m, seed)
		if err != nil {
			t.Fatalf("workload: %v", err)
		}
		return set
	}
	uni := func(m int, w core.Size) *core.InputSet {
		set, err := core.UniformInputSet(m, w)
		if err != nil {
			t.Fatal(err)
		}
		return set
	}
	return map[string]planner.Request{
		"a2a-zipf-m200": {
			Problem: core.ProblemA2A, Capacity: 128,
			Set: mk(workload.SizeSpec{Dist: workload.Zipf, Min: 1, Max: 30, Skew: 1.5}, 200, 9),
		},
		"a2a-uniform-m300": {
			Problem: core.ProblemA2A, Capacity: 256,
			Set: mk(workload.SizeSpec{Dist: workload.Uniform, Min: 1, Max: 64}, 300, 7),
		},
		"a2a-equal-m120": {
			Problem: core.ProblemA2A, Capacity: 64,
			Set: uni(120, 8),
		},
		"a2a-big-inputs-m80": {
			Problem: core.ProblemA2A, Capacity: 120,
			Set: mk(workload.SizeSpec{Dist: workload.Uniform, Min: 30, Max: 55}, 80, 3),
		},
		"a2a-one-big-m300": a2aOneBig(t),
		"a2a-medium-triples-m60": {
			Problem: core.ProblemA2A, Capacity: 90,
			Set: mk(workload.SizeSpec{Dist: workload.Uniform, Min: 26, Max: 30}, 60, 5),
		},
		"a2a-exact-m10": {
			Problem: core.ProblemA2A, Capacity: 24,
			Set: mk(workload.SizeSpec{Dist: workload.Uniform, Min: 3, Max: 11}, 10, 11),
		},
		"x2y-uniform-zipf": {
			Problem: core.ProblemX2Y, Capacity: 128,
			X: mk(workload.SizeSpec{Dist: workload.Uniform, Min: 1, Max: 30}, 120, 2),
			Y: mk(workload.SizeSpec{Dist: workload.Zipf, Min: 1, Max: 30, Skew: 1.5}, 180, 3),
		},
		"x2y-exact-small": {
			Problem: core.ProblemX2Y, Capacity: 30,
			X: mk(workload.SizeSpec{Dist: workload.Uniform, Min: 2, Max: 9}, 5, 13),
			Y: mk(workload.SizeSpec{Dist: workload.Uniform, Min: 2, Max: 9}, 6, 17),
		},
	}
}

// a2aOneBig is the benchmark's a2a_big shape: 300 Zipf sizes in [1, 20] at
// the q that fills about 16 bins of q/2 (at least 40), one of them raised
// into (q/2, 5q/8].
func a2aOneBig(t testing.TB) planner.Request {
	t.Helper()
	sizes, err := workload.Sizes(workload.SizeSpec{Dist: workload.Zipf, Min: 1, Max: 20, Skew: 1.5}, 300, 19)
	if err != nil {
		t.Fatal(err)
	}
	var total core.Size
	for _, w := range sizes {
		total += w
	}
	q := max(2*(total+15)/16, 40)
	sizes[100] = q/2 + 1 + q/16
	return planner.Request{Problem: core.ProblemA2A, Capacity: q, Set: core.MustNewInputSet(sizes)}
}

// schemaFingerprint hashes every structural detail of a schema: problem,
// capacity, algorithm, and each reducer's member lists and load, in order.
// Any bit of drift in the planner's deterministic output changes it.
func schemaFingerprint(ms *core.MappingSchema) string {
	h := core.MixFingerprint(0xcbf29ce484222325, uint64(ms.Problem), uint64(ms.Capacity), uint64(len(ms.Reducers)))
	for _, b := range []byte(ms.Algorithm) {
		h = core.MixFingerprint(h, uint64(b))
	}
	for _, r := range ms.Reducers {
		h = core.MixFingerprint(h, uint64(len(r.Inputs)), uint64(len(r.XInputs)), uint64(len(r.YInputs)), uint64(r.Load))
		for _, id := range r.Inputs {
			h = core.MixFingerprint(h, uint64(id))
		}
		for _, id := range r.XInputs {
			h = core.MixFingerprint(h, uint64(id))
		}
		for _, id := range r.YInputs {
			h = core.MixFingerprint(h, uint64(id))
		}
	}
	return fmt.Sprintf("%016x", h)
}

func goldenPath() string { return filepath.Join("testdata", "golden_plans.json") }

func solveGolden(t testing.TB, name string, req planner.Request, budget planner.Budget) goldenCase {
	t.Helper()
	req.Budget = budget
	req.NoCache = true
	p := planner.New(planner.Config{CacheEntries: -1})
	res, err := p.Plan(context.Background(), req)
	if err != nil {
		t.Fatalf("%s: Plan: %v", name, err)
	}
	return goldenCase{
		Name:        name,
		Problem:     req.Problem.String(),
		Capacity:    req.Capacity,
		Winner:      res.Winner,
		Reducers:    res.Schema.NumReducers(),
		Fingerprint: schemaFingerprint(res.Schema),
	}
}

// goldenBudgets are the budgets every instance is planned under: the
// Deterministic one, a Timeout no member could meet, and the zero value. All
// three must serve the pinned plan.
var goldenBudgets = []planner.Budget{{Timeout: -1}, {Timeout: time.Nanosecond}, {}}

// TestDeterministicPlansMatchGolden pins the planner's output bit-for-bit,
// under every budget of goldenBudgets: the committed fingerprints were
// produced before the bitset refactor of the solver hot paths, so the
// refactored planner must reproduce the exact same schemas. Regenerate (only
// when an intentional algorithm change shifts the plans) with:
//
//	go test ./internal/planner -run TestDeterministicPlansMatchGolden -update-golden
func TestDeterministicPlansMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("planning every instance under three budgets is slow in -short mode")
	}
	instances := goldenInstances(t)

	if *updateGolden {
		cases := make([]goldenCase, 0, len(instances))
		names := make([]string, 0, len(instances))
		for name := range instances {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			cases = append(cases, solveGolden(t, name, instances[name], goldenBudgets[0]))
		}
		blob, err := json.MarshalIndent(cases, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath()), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(), append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d cases", goldenPath(), len(cases))
		return
	}

	blob, err := os.ReadFile(goldenPath())
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update-golden): %v", err)
	}
	var want []goldenCase
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("parsing %s: %v", goldenPath(), err)
	}
	seen := make(map[string]bool, len(want))
	for _, w := range want {
		req, ok := instances[w.Name]
		if !ok {
			t.Errorf("golden case %q has no instance; regenerate the file", w.Name)
			continue
		}
		seen[w.Name] = true
		for _, budget := range goldenBudgets {
			got := solveGolden(t, w.Name, req, budget)
			if got.Winner != w.Winner || got.Reducers != w.Reducers || got.Fingerprint != w.Fingerprint {
				t.Errorf("%s under %+v: plan drifted from golden:\n  got  winner=%s reducers=%d fp=%s\n  want winner=%s reducers=%d fp=%s",
					w.Name, budget, got.Winner, got.Reducers, got.Fingerprint, w.Winner, w.Reducers, w.Fingerprint)
			}
		}
	}
	var missing []string
	for name := range instances {
		if !seen[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		t.Errorf("instances missing from golden file: %s (regenerate with -update-golden)", strings.Join(missing, ", "))
	}
}
