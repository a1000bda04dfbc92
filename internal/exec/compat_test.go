package exec

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/a2a"
	"repro/internal/core"
	"repro/internal/x2y"
)

// A change to the engine must not change what exec.Run produces:
// testdata/golden_exec.json pins the byte-exact output of fixed scenarios,
// captured from the seed (fully materialized) engine, and their deterministic
// counter fields, re-recorded when the shuffle stopped counting a key and a
// frame on every copy (the loads are now the schemas' own). Regenerate with
// -update-golden only when a change intentionally alters the compatibility
// contract.

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_exec.json from the current engine")

const goldenExecPath = "testdata/golden_exec.json"

// goldenCounters are the deterministic counter fields (wall clocks and the
// spill figures, which depend on budgets and timing, are excluded).
type goldenCounters struct {
	ShuffleRecords int64   `json:"shuffle_records"`
	ShuffleBytes   int64   `json:"shuffle_bytes"`
	ReducerLoads   []int64 `json:"reducer_loads"`
	MaxReducerLoad int64   `json:"max_reducer_load"`
}

type goldenRun struct {
	Name           string         `json:"name"`
	Output         []string       `json:"output"`
	PairsProcessed int64          `json:"pairs_processed"`
	Audited        bool           `json:"audited"`
	Counters       goldenCounters `json:"counters"`
}

func toGoldenCounters(c *Counters) goldenCounters {
	return goldenCounters{
		ShuffleRecords: c.ShuffleRecords,
		ShuffleBytes:   c.ShuffleBytes,
		ReducerLoads:   c.ReducerLoads,
		MaxReducerLoad: c.MaxReducerLoad,
	}
}

func toGoldenRun(name string, res *Result) goldenRun {
	out := make([]string, len(res.Output))
	for i, rec := range res.Output {
		out[i] = string(rec)
	}
	return goldenRun{
		Name:           name,
		Output:         out,
		PairsProcessed: res.PairsProcessed,
		Audited:        res.Audited,
		Counters:       toGoldenCounters(&res.Counters),
	}
}

// compatPair emits one record per pair naming the pair and both payload
// lengths, so any routing or framing drift changes the bytes.
func compatPair(a, b Record, emit func([]byte)) error {
	emit([]byte(fmt.Sprintf("p(%d,%d):%d+%d", a.ID, b.ID, len(a.Data), len(b.Data))))
	return nil
}

// compatScenarios builds the fixed request set the golden file pins. The
// schemas come from the constructive solvers, not the planner's portfolio,
// so the fixture does not depend on which member wins.
func compatScenarios(t testing.TB) []Request {
	inputs := func(sizes ...int) [][]byte {
		out := make([][]byte, len(sizes))
		for i, s := range sizes {
			out[i] = make([]byte, s)
			for j := range out[i] {
				out[i][j] = byte('a' + i%26)
			}
		}
		return out
	}
	a2aData := inputs(7, 3, 5, 2, 6, 4, 1, 8, 2, 5, 3, 6)
	a2aSizes := make([]core.Size, len(a2aData))
	for i, d := range a2aData {
		a2aSizes[i] = core.Size(len(d))
	}
	a2aSchema, err := a2a.Solve(core.MustNewInputSet(a2aSizes), 20)
	if err != nil {
		t.Fatal(err)
	}

	xData := inputs(4, 6, 3, 5)
	yData := inputs(2, 7, 4)
	xSizes := make([]core.Size, len(xData))
	for i, d := range xData {
		xSizes[i] = core.Size(len(d))
	}
	ySizes := make([]core.Size, len(yData))
	for i, d := range yData {
		ySizes[i] = core.Size(len(d))
	}
	x2ySchema, err := x2y.Solve(core.MustNewInputSet(xSizes), core.MustNewInputSet(ySizes), 16)
	if err != nil {
		t.Fatal(err)
	}

	return []Request{
		{Name: "compat-a2a", Schema: a2aSchema, Inputs: a2aData, Pair: compatPair},
		{Name: "compat-a2a-seq", Schema: a2aSchema, Inputs: a2aData, Pair: compatPair},
		{Name: "compat-x2y", Schema: x2ySchema, XInputs: xData, YInputs: yData, Pair: compatPair},
	}
}

// TestRunMatchesSeedGolden asserts exec.Run still produces the seed engine's
// exact output bytes, pair counts, audit verdicts, and counters.
func TestRunMatchesSeedGolden(t *testing.T) {
	reqs := compatScenarios(t)
	got := make([]goldenRun, 0, len(reqs))
	for _, req := range reqs {
		res, err := Run(req)
		if err != nil {
			t.Fatalf("%s: %v", req.Name, err)
		}
		got = append(got, toGoldenRun(req.Name, res))
	}

	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenExecPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenExecPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenExecPath)
		return
	}

	blob, err := os.ReadFile(goldenExecPath)
	if err != nil {
		t.Fatalf("reading golden fixture (run with -update-golden to create): %v", err)
	}
	var want []goldenRun
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d runs, scenarios produced %d", len(want), len(got))
	}
	for i := range want {
		assertGoldenRun(t, want[i], got[i])
	}
}

// TestConcurrentRunsMatchSeedGolden runs the same scenarios at once, plus a
// second copy of the A2A one, all through one shared Compiler, and asserts
// against the same fixture: runs that share a compiled index, or race to
// build it, must agree with the seed.
func TestConcurrentRunsMatchSeedGolden(t *testing.T) {
	if *updateGolden {
		t.Skip("fixture is written by TestRunMatchesSeedGolden")
	}
	reqs := compatScenarios(t)
	reqs = append(reqs, reqs[0])
	compiler := NewCompiler()
	results := make([]*Result, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		reqs[i].Compiler = compiler
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = Run(reqs[i])
		}()
	}
	wg.Wait()
	blob, err := os.ReadFile(goldenExecPath)
	if err != nil {
		t.Fatalf("reading golden fixture (run with -update-golden to create): %v", err)
	}
	var want []goldenRun
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("%s: %v", reqs[i].Name, errs[i])
		}
		w := want[i%len(want)]
		assertGoldenRun(t, w, toGoldenRun(w.Name, res))
	}
}

func assertGoldenRun(t *testing.T, want, got goldenRun) {
	t.Helper()
	if want.Name != got.Name {
		t.Fatalf("run order drifted: want %q, got %q", want.Name, got.Name)
	}
	if len(want.Output) != len(got.Output) {
		t.Fatalf("%s: output has %d records, seed had %d", got.Name, len(got.Output), len(want.Output))
	}
	for i := range want.Output {
		if want.Output[i] != got.Output[i] {
			t.Errorf("%s: output[%d] = %q, seed had %q", got.Name, i, got.Output[i], want.Output[i])
		}
	}
	if want.PairsProcessed != got.PairsProcessed {
		t.Errorf("%s: PairsProcessed = %d, seed had %d", got.Name, got.PairsProcessed, want.PairsProcessed)
	}
	if want.Audited != got.Audited {
		t.Errorf("%s: Audited = %v, seed had %v", got.Name, got.Audited, want.Audited)
	}
	wb, _ := json.Marshal(want.Counters)
	gb, _ := json.Marshal(got.Counters)
	if string(wb) != string(gb) {
		t.Errorf("%s: counters drifted from the seed engine:\n  seed: %s\n  got:  %s", got.Name, wb, gb)
	}
}

// TestGoldenRunsTakeTheAuditFastPath asserts that healthy executions are
// audited by sequence comparison alone — pland_exec_audit_slow_replays_total
// does not move over the golden scenarios — and that a run whose trace is
// not what the schema prescribes moves it by exactly one.
func TestGoldenRunsTakeTheAuditFastPath(t *testing.T) {
	reqs := compatScenarios(t)
	before := obsSlowReplays.Value()
	for _, req := range reqs {
		if res, err := Run(req); err != nil || !res.Audited {
			t.Fatalf("%s: audited=%v err=%v", req.Name, res != nil && res.Audited, err)
		}
	}
	if got := obsSlowReplays.Value() - before; got != 0 {
		t.Fatalf("healthy runs took %d slow replays, want 0", got)
	}

	// Corrupt a real run's trace: the first reducer with work loses its
	// first entry.
	c, _ := executedEvents(t, reqs[0])
	for r, log := range c.trace.shards {
		if len(log) > 0 {
			c.trace.shards[r] = log[1:]
			break
		}
	}
	err := c.auditor.CheckTrace(c.trace)
	if !errors.Is(err, ErrUncoveredPair) {
		t.Fatalf("corrupted trace: err = %v, want ErrUncoveredPair", err)
	}
	if got := obsSlowReplays.Value() - before; got != 1 {
		t.Fatalf("corrupted trace took %d slow replays, want 1", got)
	}
}
