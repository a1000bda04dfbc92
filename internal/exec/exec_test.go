package exec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/a2a"
	"repro/internal/core"
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

// TestSliceRequestsFrameEveryRecordUnderItsOwnID pins what the one input
// path must keep for slice requests of both problems: every payload reaches
// the PairFunc under the ID it has in its own slice (X2Y IDs restart at 0 on
// the Y side, where the stream index goes on), and each reducer receives
// exactly the payload bytes of its schema members and nothing else —
// two-digit IDs and unequal sides included.
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

	// payload is the shuffle load of one reducer: its members' bytes.
	payload := func(ids []int, data [][]byte) (load int64) {
		for _, id := range ids {
			load += int64(len(data[id]))
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
			func(r int, red core.Reducer) int64 { return payload(red.Inputs, aData) },
		},
		{
			Request{Name: "x2y-slices", Schema: x2ySchema, XInputs: xData, YInputs: yData}, xData, yData, 13 * 11,
			func(r int, red core.Reducer) int64 {
				return payload(red.XInputs, xData) + payload(red.YInputs, yData)
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
				t.Errorf("%s: reducer %d received %d bytes, its members are %d", tc.req.Name, r, got, want)
			}
		}
	}
}

func TestAssignmentsA2A(t *testing.T) {
	set := core.MustNewInputSet([]core.Size{1, 1, 1})
	ms := &core.MappingSchema{Problem: core.ProblemA2A, Capacity: 2}
	ms.AddReducerA2A(set, []int{0, 1})
	ms.AddReducerA2A(set, []int{0, 2})
	ms.AddReducerA2A(set, []int{1, 2})
	if got, want := assignmentsA2A(ms, 3), [][]int{{0, 1}, {0, 2}, {1, 2}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("assignments = %v, want %v", got, want)
	}
}

// TestAssignmentsSkipStrayIDsAndDoNotAlias covers what a well-formed schema
// never shows: IDs outside the declared input range are skipped, an input no
// reducer holds keeps a nil list, and — the lists being cut from one backing
// array — growing one list does not write into the next.
func TestAssignmentsSkipStrayIDsAndDoNotAlias(t *testing.T) {
	ms := &core.MappingSchema{Problem: core.ProblemA2A, Reducers: []core.Reducer{
		{Inputs: []int{-1, 0, 2, 4}}, {Inputs: []int{0}},
	}}
	assign := assignmentsA2A(ms, 4)
	if want := [][]int{{0, 1}, nil, {0}, nil}; !reflect.DeepEqual(assign, want) {
		t.Fatalf("assignments = %v, want %v", assign, want)
	}
	_ = append(assign[0], 9)
	if assign[2][0] != 0 {
		t.Fatalf("appending to input 0's list overwrote input 2's: %v", assign)
	}
	// X2Y: a stray X ID does not land on the Y side, nor a stray Y ID on
	// the X side.
	ms = &core.MappingSchema{Problem: core.ProblemX2Y, Reducers: []core.Reducer{
		{XInputs: []int{0, 2}, YInputs: []int{-2, 0}}, {XInputs: []int{1}, YInputs: []int{1}},
	}}
	if got, want := assignmentsX2Y(ms, 2, 1), [][]int{{0}, {1}, {0}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("X2Y assignments = %v, want %v", got, want)
	}
}

func TestAssignmentsX2Y(t *testing.T) {
	xs := core.MustNewInputSet([]core.Size{1, 1})
	ys := core.MustNewInputSet([]core.Size{1})
	ms := &core.MappingSchema{Problem: core.ProblemX2Y, Capacity: 4}
	ms.AddReducerX2Y(xs, ys, []int{0}, []int{0})
	ms.AddReducerX2Y(xs, ys, []int{1}, []int{0})
	// In stream order: the X side, then the Y side.
	if got, want := assignmentsX2Y(ms, 2, 1), [][]int{{0}, {1}, {0, 1}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("assignments = %v, want %v", got, want)
	}
}
