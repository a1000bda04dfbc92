package exec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/a2a"
	"repro/internal/core"
	"repro/internal/mr"
	"repro/internal/planner"
	"repro/internal/x2y"
)

// makeInputs builds n inputs whose data lengths follow the given sizes.
func makeInputs(sizes []core.Size) [][]byte {
	out := make([][]byte, len(sizes))
	for i, s := range sizes {
		out[i] = bytes.Repeat([]byte{byte('A' + i%26)}, int(s))
	}
	return out
}

// pairIDs is a PairFunc that emits "i,j" for every processed pair.
func pairIDs(a, b Record, emit func([]byte)) error {
	emit([]byte(fmt.Sprintf("%d,%d", a.ID, b.ID)))
	return nil
}

func solveA2A(t *testing.T, sizes []core.Size, q core.Size) *core.MappingSchema {
	t.Helper()
	set := core.MustNewInputSet(sizes)
	ms, err := a2a.Solve(set, q)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

func solveX2Y(t *testing.T, xSizes, ySizes []core.Size, q core.Size) *core.MappingSchema {
	t.Helper()
	xs, ys := core.MustNewInputSet(xSizes), core.MustNewInputSet(ySizes)
	ms, err := x2y.Solve(xs, ys, q)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

func TestRunA2AProcessesEveryPairOnce(t *testing.T) {
	sizes := []core.Size{3, 3, 2, 2, 4, 1, 2, 3}
	schema := solveA2A(t, sizes, 10)
	res, err := Run(Request{
		Name:   "a2a-pairs",
		Schema: schema,
		Inputs: makeInputs(sizes),
		Pair:   pairIDs,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := len(sizes)
	wantPairs := n * (n - 1) / 2
	if res.PairsProcessed != int64(wantPairs) {
		t.Errorf("PairsProcessed = %d, want %d", res.PairsProcessed, wantPairs)
	}
	if len(res.Output) != wantPairs {
		t.Fatalf("emitted %d records, want %d", len(res.Output), wantPairs)
	}
	seen := map[string]bool{}
	for _, rec := range res.Output {
		if seen[string(rec)] {
			t.Fatalf("pair %q emitted twice", rec)
		}
		seen[string(rec)] = true
	}
	if !res.Audited {
		t.Error("run was not audited")
	}
	if res.Counters.ShuffleBytes == 0 || res.Counters.MaxReducerLoad == 0 {
		t.Error("expected non-zero shuffle accounting")
	}
}

func TestRunX2YProcessesEveryCrossPairOnce(t *testing.T) {
	xSizes := []core.Size{7, 2, 1, 3}
	ySizes := []core.Size{1, 2, 1, 1, 2}
	schema := solveX2Y(t, xSizes, ySizes, 10)
	res, err := Run(Request{
		Name:    "x2y-pairs",
		Schema:  schema,
		XInputs: makeInputs(xSizes),
		YInputs: makeInputs(ySizes),
		Pair:    pairIDs,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := len(xSizes) * len(ySizes)
	if res.PairsProcessed != int64(want) || len(res.Output) != want {
		t.Fatalf("processed %d pairs, emitted %d, want %d", res.PairsProcessed, len(res.Output), want)
	}
	seen := map[string]bool{}
	for _, rec := range res.Output {
		if seen[string(rec)] {
			t.Fatalf("pair %q emitted twice", rec)
		}
		seen[string(rec)] = true
	}
}

func TestRunAcceptsPlannerResult(t *testing.T) {
	sizes := []core.Size{3, 3, 2, 2, 4, 1}
	set := core.MustNewInputSet(sizes)
	plan, err := planner.New(planner.Config{CacheEntries: -1}).Plan(context.Background(), planner.Request{
		Problem: core.ProblemA2A, Set: set, Capacity: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Request{Name: "from-plan", Plan: plan, Inputs: makeInputs(sizes), Pair: pairIDs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema != plan.Schema {
		t.Error("result schema is not the planned schema")
	}
	if want := int64(len(sizes) * (len(sizes) - 1) / 2); res.PairsProcessed != want {
		t.Errorf("PairsProcessed = %d, want %d", res.PairsProcessed, want)
	}
}

func TestRunZeroReducerSchema(t *testing.T) {
	// A single input has no required pair; its schema has no reducers.
	schema := solveA2A(t, []core.Size{5}, 10)
	if schema.NumReducers() != 0 {
		t.Fatalf("expected an empty schema, got %d reducers", schema.NumReducers())
	}
	res, err := Run(Request{Name: "empty", Schema: schema, Inputs: makeInputs([]core.Size{5}), Pair: pairIDs})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 0 || res.PairsProcessed != 0 {
		t.Errorf("empty schema produced output: %+v", res)
	}
	// PreCheck passed and no pair is required: the run is audited, and only
	// NoAudit says otherwise.
	if !res.Audited {
		t.Error("a run with nothing to do was not reported as audited")
	}
	res, err = Run(Request{Name: "empty", Schema: schema, Inputs: makeInputs([]core.Size{5}), Pair: pairIDs, NoAudit: true})
	if err != nil || res.Audited {
		t.Errorf("NoAudit run: audited=%v err=%v, want false/nil", res != nil && res.Audited, err)
	}
}

func TestRunRequestValidation(t *testing.T) {
	sizes := []core.Size{2, 2, 2}
	schema := solveA2A(t, sizes, 6)
	inputs := makeInputs(sizes)
	cases := []struct {
		name string
		req  Request
		want error
	}{
		{"no schema", Request{Inputs: inputs, Pair: pairIDs}, ErrNoSchema},
		{"no pair func", Request{Schema: schema, Inputs: inputs}, ErrNoPairFunc},
		{"a2a without inputs", Request{Schema: schema, Pair: pairIDs}, ErrBadInputs},
		{"a2a with x2y inputs", Request{Schema: schema, Inputs: inputs, XInputs: inputs, YInputs: inputs, Pair: pairIDs}, ErrBadInputs},
		{"too few inputs", Request{Schema: schema, Inputs: inputs[:2], Pair: pairIDs}, ErrBadInputs},
	}
	for _, tc := range cases {
		if _, err := Run(tc.req); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	x2ySchema := solveX2Y(t, []core.Size{2, 2}, []core.Size{1, 1}, 6)
	if _, err := Run(Request{Schema: x2ySchema, Inputs: inputs, Pair: pairIDs}); !errors.Is(err, ErrBadInputs) {
		t.Errorf("x2y schema with a2a inputs: err = %v, want ErrBadInputs", err)
	}
}

func TestRunPairErrorPropagates(t *testing.T) {
	sizes := []core.Size{2, 2, 2}
	schema := solveA2A(t, sizes, 6)
	boom := errors.New("boom")
	_, err := Run(Request{
		Name:   "failing",
		Schema: schema,
		Inputs: makeInputs(sizes),
		Pair:   func(a, b Record, emit func([]byte)) error { return boom },
	})
	if !errors.Is(err, boom) {
		t.Errorf("pair error not propagated: %v", err)
	}
}

func TestRunPairDataRoundTrips(t *testing.T) {
	// Data containing the framing separator must survive intact.
	inputs := [][]byte{[]byte("al|pha"), []byte("be|ta"), []byte("ga|mma")}
	sizes := make([]core.Size, len(inputs))
	for i, d := range inputs {
		sizes[i] = core.Size(len(d))
	}
	schema := solveA2A(t, sizes, 20)
	res, err := Run(Request{
		Name:   "roundtrip",
		Schema: schema,
		Inputs: inputs,
		Pair: func(a, b Record, emit func([]byte)) error {
			if !bytes.Equal(a.Data, inputs[a.ID]) || !bytes.Equal(b.Data, inputs[b.ID]) {
				return fmt.Errorf("data mismatch: %q/%q", a.Data, b.Data)
			}
			emit([]byte(string(a.Data) + "+" + string(b.Data)))
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 3 {
		t.Fatalf("emitted %d records, want 3", len(res.Output))
	}
	joined := make([]string, len(res.Output))
	for i, r := range res.Output {
		joined[i] = string(r)
	}
	sort.Strings(joined)
	if !strings.Contains(strings.Join(joined, " "), "al|pha+be|ta") {
		t.Errorf("outputs = %v", joined)
	}
}

// TestSliceRequestsFrameEveryRecordUnderItsOwnID pins what the one framing
// path must keep for slice requests of both problems: every payload reaches
// the PairFunc under the ID it has in its own slice (X2Y IDs restart at 0 on
// the Y side), and each reducer receives exactly the bytes of its schema
// members framed one by one — two-digit IDs and unequal sides included.
func TestSliceRequestsFrameEveryRecordUnderItsOwnID(t *testing.T) {
	payloads := func(tag string, n int) ([][]byte, []core.Size) {
		data, sizes := make([][]byte, n), make([]core.Size, n)
		for i := range data {
			data[i] = []byte(fmt.Sprintf("%s%d|%s", tag, i, strings.Repeat("*", i%4)))
			sizes[i] = core.Size(len(data[i]))
		}
		return data, sizes
	}
	aData, aSizes := payloads("a", 14)
	xData, xSizes := payloads("x", 13)
	yData, ySizes := payloads("y", 11)
	a2aSchema, x2ySchema := solveA2A(t, aSizes, 40), solveX2Y(t, xSizes, ySizes, 40)

	// frames is the shuffle load of one reducer: its key plus the frame, for
	// each member.
	frames := func(r int, side byte, ids []int, data [][]byte) (load int64) {
		for _, id := range ids {
			load += int64(len(mr.ReducerKey(r)) + len(frameRecord(side, id, data[id])))
		}
		return load
	}
	for _, tc := range []struct {
		req        Request
		left       [][]byte
		right      [][]byte
		wantPairs  int
		wantLoadOf func(r int, red core.Reducer) int64
	}{
		{
			Request{Name: "a2a-slices", Schema: a2aSchema, Inputs: aData}, aData, aData, 14 * 13 / 2,
			func(r int, red core.Reducer) int64 { return frames(r, sideA, red.Inputs, aData) },
		},
		{
			Request{Name: "x2y-slices", Schema: x2ySchema, XInputs: xData, YInputs: yData}, xData, yData, 13 * 11,
			func(r int, red core.Reducer) int64 {
				return frames(r, sideX, red.XInputs, xData) + frames(r, sideY, red.YInputs, yData)
			},
		},
	} {
		tc.req.Pair = func(a, b Record, emit func([]byte)) error {
			if !bytes.Equal(a.Data, tc.left[a.ID]) || !bytes.Equal(b.Data, tc.right[b.ID]) {
				return fmt.Errorf("pair (%d,%d) carries %q/%q", a.ID, b.ID, a.Data, b.Data)
			}
			emit(nil)
			return nil
		}
		res, err := Run(tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.req.Name, err)
		}
		if len(res.Output) != tc.wantPairs || !res.Audited {
			t.Errorf("%s: %d pairs (audited=%v), want %d audited", tc.req.Name, len(res.Output), res.Audited, tc.wantPairs)
		}
		for r, red := range tc.req.Schema.Reducers {
			if got, want := res.Counters.ReducerLoads[r], tc.wantLoadOf(r, red); got != want {
				t.Errorf("%s: reducer %d received %d bytes, its framed members are %d", tc.req.Name, r, got, want)
			}
		}
	}
}

func TestRecordFramingRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		side byte
		id   int
		data string
	}{
		{sideA, 0, ""},
		{sideX, 12345, "payload"},
		{sideY, 7, "with|pipes|inside"},
	} {
		framed := frameRecord(tc.side, tc.id, []byte(tc.data))
		side, id, data, err := parseRecord(framed)
		if err != nil || side != tc.side || id != tc.id || string(data) != tc.data {
			t.Errorf("round trip (%c,%d,%q) = (%c,%d,%q), err %v", tc.side, tc.id, tc.data, side, id, data, err)
		}
		if got := framedSize(tc.id, len(tc.data)); got != int64(len(framed)) {
			t.Errorf("framedSize(%d, %d) = %d, the frame is %d bytes", tc.id, len(tc.data), got, len(framed))
		}
	}
	for _, id := range []int{9, 10, 99, 100, 999999, 1000000} {
		if got, want := framedSize(id, 0), int64(len(frameRecord(sideA, id, nil))); got != want {
			t.Errorf("framedSize(%d, 0) = %d, the frame is %d bytes", id, got, want)
		}
	}
	for _, bad := range []string{"", "a", "a|", "a|12", "a|x|data"} {
		if _, _, _, err := parseRecord([]byte(bad)); err == nil {
			t.Errorf("parsed malformed record %q", bad)
		}
	}
}

func TestRunBatchExecutesAllJobs(t *testing.T) {
	var reqs []Request
	for i := 0; i < 12; i++ {
		sizes := []core.Size{3, 3, 2, 2, 4, 1}
		reqs = append(reqs, Request{
			Name:   fmt.Sprintf("job-%d", i),
			Schema: solveA2A(t, sizes, core.Size(10+i%3)),
			Inputs: makeInputs(sizes),
			Pair:   pairIDs,
		})
	}
	results, err := RunBatch(context.Background(), reqs, BatchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(reqs) {
		t.Fatalf("got %d results, want %d", len(results), len(reqs))
	}
	for i, res := range results {
		if res == nil {
			t.Fatalf("job %d has no result", i)
		}
		if res.PairsProcessed != 15 {
			t.Errorf("job %d processed %d pairs, want 15", i, res.PairsProcessed)
		}
		if !res.Audited {
			t.Errorf("job %d was not audited", i)
		}
	}
}

func TestRunBatchAggregatesPerJobFailures(t *testing.T) {
	sizes := []core.Size{2, 2, 2}
	good := Request{Name: "good", Schema: solveA2A(t, sizes, 6), Inputs: makeInputs(sizes), Pair: pairIDs}
	bad := Request{Name: "bad", Inputs: makeInputs(sizes), Pair: pairIDs} // no schema
	results, err := RunBatch(context.Background(), []Request{good, bad, good}, BatchOptions{Workers: 2})
	if !errors.Is(err, ErrNoSchema) {
		t.Errorf("batch error = %v, want ErrNoSchema", err)
	}
	if results[0] == nil || results[2] == nil {
		t.Error("good jobs should have results despite the failing one")
	}
	if results[1] != nil {
		t.Error("failed job should have a nil result")
	}
	if err != nil && !strings.Contains(err.Error(), `batch job 1 ("bad")`) {
		t.Errorf("error does not name the failing job: %v", err)
	}
}

func TestRunBatchHonorsCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sizes := []core.Size{2, 2}
	req := Request{Name: "c", Schema: solveA2A(t, sizes, 6), Inputs: makeInputs(sizes), Pair: pairIDs}
	_, err := RunBatch(ctx, []Request{req, req}, BatchOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestRunBatchEmpty(t *testing.T) {
	results, err := RunBatch(context.Background(), nil, BatchOptions{})
	if err != nil || len(results) != 0 {
		t.Errorf("empty batch = %v, %v", results, err)
	}
}

// TestRetriedReduceAttemptLeavesNoTraceEntries is the regression test for a
// retried reduce task poisoning the audit: the engine discards a failed
// attempt's output and the retry succeeds, so the trace must describe the
// retry alone. Before the per-call logs, the failed attempt's entries stayed
// in the shared trace and a correct run failed with ErrDuplicatePair.
func TestRetriedReduceAttemptLeavesNoTraceEntries(t *testing.T) {
	sizes := make([]core.Size, 12)
	for i := range sizes {
		sizes[i] = 2
	}
	schema := solveA2A(t, sizes, 16)
	calls := 0 // Workers: 1 serializes the reduce tasks, so no lock is needed
	flaky := func(a, b Record, emit func([]byte)) error {
		calls++
		if calls == 3 {
			return errors.New("injected pair failure")
		}
		return pairIDs(a, b, emit)
	}
	res, err := Run(Request{
		Name: "retry", Schema: schema, Inputs: makeInputs(sizes),
		Pair: flaky, Workers: 1, MaxAttempts: 2,
	})
	if err != nil {
		t.Fatalf("a run whose only failure was retried successfully failed: %v", err)
	}
	want := len(sizes) * (len(sizes) - 1) / 2
	if !res.Audited || res.PairsProcessed != int64(want) || len(res.Output) != want {
		t.Fatalf("audited=%v pairs=%d outputs=%d, want true/%d/%d", res.Audited, res.PairsProcessed, len(res.Output), want, want)
	}
	if calls != want+3 {
		t.Fatalf("pair function ran %d times, want %d (the failed attempt made 3 calls)", calls, want+3)
	}
}
