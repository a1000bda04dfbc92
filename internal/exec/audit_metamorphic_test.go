package exec

// Metamorphic tests of the conformance harness: start from a schema known to
// be valid, apply one deliberate corruption per violation class, and assert
// the auditor flags exactly that class. The harness is the test oracle the
// rest of the repo leans on, so it is itself tested by perturbation.

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
)

// validSchema builds a hand-rolled valid A2A schema over 4 inputs of size 2
// with q=6: reducers {0,1,2} and {0,3},{1,3},{2,3} cover all 6 pairs.
func validSchema(t *testing.T) (*core.MappingSchema, *core.InputSet) {
	t.Helper()
	set := core.MustNewInputSet([]core.Size{2, 2, 2, 2})
	ms := &core.MappingSchema{Problem: core.ProblemA2A, Capacity: 6}
	ms.AddReducerA2A(set, []int{0, 1, 2})
	ms.AddReducerA2A(set, []int{0, 3})
	ms.AddReducerA2A(set, []int{1, 3})
	ms.AddReducerA2A(set, []int{2, 3})
	if err := ms.ValidateA2A(set); err != nil {
		t.Fatalf("baseline schema invalid: %v", err)
	}
	return ms, set
}

func TestAuditPassesOnValidSchema(t *testing.T) {
	ms, set := validSchema(t)
	res, err := Run(Request{Name: "valid", Schema: ms, Inputs: makeInputs(set.Sizes()), Pair: pairIDs})
	if err != nil {
		t.Fatalf("valid schema failed: %v", err)
	}
	if !res.Audited || res.PairsProcessed != 6 {
		t.Errorf("audited=%v pairs=%d, want true/6", res.Audited, res.PairsProcessed)
	}
}

func TestAuditFlagsDroppedCoverage(t *testing.T) {
	ms, set := validSchema(t)
	// Remove input 3 from reducer {2,3}: pair (2,3) loses its only coverage.
	ms.Reducers[3] = core.Reducer{Inputs: []int{2}, Load: 2}
	_, err := Run(Request{Name: "dropped", Schema: ms, Inputs: makeInputs(set.Sizes()), Pair: pairIDs})
	if !errors.Is(err, ErrUncoveredPair) {
		t.Fatalf("err = %v, want ErrUncoveredPair", err)
	}
	var ae *AuditError
	if !errors.As(err, &ae) {
		t.Fatalf("err is not an *AuditError: %v", err)
	}
	found := false
	for _, v := range ae.Violations {
		if errors.Is(v.Err, ErrUncoveredPair) && v.A == 2 && v.B == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("violations do not name pair (2,3): %v", ae.Violations)
	}
}

func TestAuditFlagsInflatedReducer(t *testing.T) {
	ms, set := validSchema(t)
	// Pile every input onto reducer 0: its load (8) exceeds q (6).
	ms.Reducers[0] = core.Reducer{Inputs: []int{0, 1, 2, 3}, Load: 8}
	_, err := Run(Request{Name: "inflated", Schema: ms, Inputs: makeInputs(set.Sizes()), Pair: pairIDs})
	if !errors.Is(err, ErrOverCapacity) {
		t.Fatalf("err = %v, want ErrOverCapacity", err)
	}
}

func TestAuditFlagsDuplicateOwner(t *testing.T) {
	// Owner election makes a real run process each pair once even when the
	// schema covers it twice, so a duplicated owner can only be observed via
	// a fabricated trace: the auditor must flag a pair processed twice.
	ms, _ := validSchema(t)
	aud, err := NewAuditor(ms, 4)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrace()
	var pairs [][2]int
	aud.idx.requiredPairs(func(i, j int) { pairs = append(pairs, [2]int{i, j}) })
	for _, p := range pairs {
		tr.Record(aud.Owner(p[0], p[1]), p[0], p[1])
	}
	// Duplicate: a second, non-owning reducer also claims pair (0,1).
	tr.Record(3, 0, 1)
	err = aud.CheckTrace(tr)
	if !errors.Is(err, ErrDuplicatePair) {
		t.Fatalf("err = %v, want ErrDuplicatePair", err)
	}
}

func TestAuditFlagsWrongOwner(t *testing.T) {
	ms, _ := validSchema(t)
	aud, err := NewAuditor(ms, 4)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrace()
	aud.idx.requiredPairs(func(i, j int) {
		owner := aud.Owner(i, j)
		if i == 0 && j == 1 {
			owner = 1 // (0,1) is owned by reducer 0; claim it elsewhere
		}
		tr.Record(owner, i, j)
	})
	if err := aud.CheckTrace(tr); !errors.Is(err, ErrWrongOwner) {
		t.Fatalf("err = %v, want ErrWrongOwner", err)
	}
}

func TestAuditFlagsLoadMismatch(t *testing.T) {
	ms, set := validSchema(t)
	aud, err := NewAuditor(ms, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Compile the real expected loads, then perturb the measured counters.
	c, err := compile(Request{Name: "loads", Schema: ms, Inputs: makeInputs(set.Sizes()), Pair: pairIDs})
	if err != nil {
		t.Fatal(err)
	}
	aud.expectedLoads = c.expectedLoads
	counters := &Counters{ReducerLoads: append([]int64(nil), c.expectedLoads...)}
	if err := aud.CheckLoads(counters); err != nil {
		t.Fatalf("exact loads flagged: %v", err)
	}
	counters.ReducerLoads[2]++
	if err := aud.CheckLoads(counters); !errors.Is(err, ErrLoadMismatch) {
		t.Fatalf("err = %v, want ErrLoadMismatch", err)
	}
	// A partition-count mismatch is a load mismatch too.
	if err := aud.CheckLoads(&Counters{ReducerLoads: c.expectedLoads[:2]}); !errors.Is(err, ErrLoadMismatch) {
		t.Fatalf("short loads err = %v, want ErrLoadMismatch", err)
	}
}

func TestAuditAggregatesMultipleViolationClasses(t *testing.T) {
	ms, _ := validSchema(t)
	// Inflate reducer 0 past q AND drop pair (2,3): PreCheck must report both.
	ms.Reducers[0] = core.Reducer{Inputs: []int{0, 1, 2}, Load: 7}
	ms.Reducers[3] = core.Reducer{Inputs: []int{2}, Load: 2}
	aud, err := NewAuditor(ms, 4)
	if err != nil {
		t.Fatal(err)
	}
	err = aud.PreCheck()
	if !errors.Is(err, ErrOverCapacity) || !errors.Is(err, ErrUncoveredPair) {
		t.Fatalf("err = %v, want both ErrOverCapacity and ErrUncoveredPair", err)
	}
	var ae *AuditError
	if !errors.As(err, &ae) || len(ae.Violations) < 2 {
		t.Fatalf("expected >= 2 aggregated violations, got %v", err)
	}
}

func TestAuditX2YFlagsDroppedCoverage(t *testing.T) {
	xs := core.MustNewInputSet([]core.Size{2, 2})
	ys := core.MustNewInputSet([]core.Size{1, 1})
	ms := &core.MappingSchema{Problem: core.ProblemX2Y, Capacity: 6}
	ms.AddReducerX2Y(xs, ys, []int{0, 1}, []int{0})
	ms.AddReducerX2Y(xs, ys, []int{0, 1}, []int{1})
	res, err := Run(Request{
		Name: "x2y-valid", Schema: ms,
		XInputs: makeInputs(xs.Sizes()), YInputs: makeInputs(ys.Sizes()),
		Pair: pairIDs,
	})
	if err != nil || res.PairsProcessed != 4 {
		t.Fatalf("valid x2y run = %d pairs, err %v", res.PairsProcessed, err)
	}
	// Drop X input 1 from the second reducer: cross pair (1,1) is uncovered.
	ms.Reducers[1] = core.Reducer{XInputs: []int{0}, YInputs: []int{1}, Load: 3}
	_, err = Run(Request{
		Name: "x2y-dropped", Schema: ms,
		XInputs: makeInputs(xs.Sizes()), YInputs: makeInputs(ys.Sizes()),
		Pair: pairIDs,
	})
	if !errors.Is(err, ErrUncoveredPair) {
		t.Fatalf("err = %v, want ErrUncoveredPair", err)
	}
}

func TestAuditorRejectsOutOfRangeSchema(t *testing.T) {
	ms, set := validSchema(t)
	if _, err := NewAuditor(ms, 3); !errors.Is(err, ErrBadInputs) {
		t.Errorf("schema over 4 inputs accepted for 3: %v", err)
	}
	if _, err := NewAuditorX2Y(ms, 4, 4); err == nil {
		t.Error("A2A schema accepted by NewAuditorX2Y")
	}
	_ = set
}

// The sharded trace the executor writes and the sparse trace fabricated
// tests write are two forms of one log. The tests below feed the same events
// to both and require the same verdict from CheckTrace, violation for
// violation: the sharded form's sequence comparison may only ever be a
// shortcut to what the sparse reference check would have said.

// traceEvent is one logged fact: reducer r processed the pair (a, b).
type traceEvent struct{ r, a, b int }

// executedEvents compiles the request, runs it on the engine without the
// audit, and returns what the compiled reducers logged, reducer by reducer.
func executedEvents(t *testing.T, req Request) (*compilation, []traceEvent) {
	t.Helper()
	c, err := compile(req)
	if err != nil {
		t.Fatal(err)
	}
	c.takeLog() // never released: the callers read the shards
	if _, err := runJob(&c.req, c.job(), &c.in); err != nil {
		t.Fatal(err)
	}
	var events []traceEvent
	for r, log := range c.trace.shards {
		for _, e := range log {
			events = append(events, traceEvent{r, int(e.a), int(e.b)})
		}
	}
	return c, events
}

// bothForms builds a sparse and a sharded trace from the same events.
func bothForms(numReducers int, events []traceEvent) (sparse, sharded *Trace) {
	sparse, sharded = NewTrace(), newShardedTrace(numReducers)
	logs := make([][]pairEntry, numReducers)
	for _, e := range events {
		sparse.Record(e.r, e.a, e.b)
		logs[e.r] = append(logs[e.r], pairEntry{int32(e.a), int32(e.b)})
	}
	for r, log := range logs {
		sharded.publish(r, log)
	}
	return sparse, sharded
}

// violationKeys renders an audit verdict as a sorted multiset.
func violationKeys(t *testing.T, err error) []string {
	t.Helper()
	if err == nil {
		return nil
	}
	var ae *AuditError
	if !errors.As(err, &ae) {
		t.Fatalf("verdict is not an *AuditError: %v", err)
	}
	keys := make([]string, len(ae.Violations))
	for i, v := range ae.Violations {
		keys[i] = fmt.Sprintf("%s r=%d (%d,%d) %s", violationClass(v), v.Reducer, v.A, v.B, v.Detail)
	}
	sort.Strings(keys)
	return keys
}

// assertFormsAgree checks both forms of the events against the auditor and
// returns the sharded form's verdict — as an error and as a multiset equal
// to the sparse form's — and how many slow replays it took.
func assertFormsAgree(t *testing.T, aud *Auditor, numReducers int, events []traceEvent) (verdict []string, slowReplays uint64, err error) {
	t.Helper()
	sparse, sharded := bothForms(numReducers, events)
	want := violationKeys(t, aud.CheckTrace(sparse))
	before := obsSlowReplays.Value()
	err = aud.CheckTrace(sharded)
	slowReplays = obsSlowReplays.Value() - before
	if got := violationKeys(t, err); !reflect.DeepEqual(got, want) {
		t.Fatalf("the two trace forms disagree:\n  sparse:  %v\n  sharded: %v", want, got)
	}
	return want, slowReplays, err
}

func TestShardedTraceAgreesWithSparseOnExecutedSchemas(t *testing.T) {
	equal := func(n int) []core.Size {
		sizes := make([]core.Size, n)
		for i := range sizes {
			sizes[i] = 2
		}
		return sizes
	}
	hand, handSet := validSchema(t)
	duplicated, _ := validSchema(t)
	duplicated.Reducers[0].Inputs = []int{0, 1, 1, 2}
	unsorted, _ := validSchema(t)
	unsorted.Reducers[0].Inputs = []int{2, 0, 1}
	unsorted.Reducers[2].Inputs = []int{3, 1}
	dropped, _ := validSchema(t)
	dropped.Reducers[3] = core.Reducer{Inputs: []int{2}, Load: 2}
	xSizes, ySizes := []core.Size{7, 2, 1, 3}, []core.Size{1, 2, 1, 1, 2}

	cases := []struct {
		name    string
		req     Request
		healthy bool // the run conforms, so the sharded form must not need a slow replay
	}{
		{"hand-built", Request{Schema: hand, Inputs: makeInputs(handSet.Sizes())}, true},
		{"solved a2a", Request{Schema: solveA2A(t, equal(30), 10), Inputs: makeInputs(equal(30))}, true},
		{"solved x2y", Request{Schema: solveX2Y(t, xSizes, ySizes, 10), XInputs: makeInputs(xSizes), YInputs: makeInputs(ySizes)}, true},
		{"duplicated member", Request{Schema: duplicated, Inputs: makeInputs(handSet.Sizes())}, true},
		{"unsorted members", Request{Schema: unsorted, Inputs: makeInputs(handSet.Sizes())}, true},
		{"dropped member", Request{Schema: dropped, Inputs: makeInputs(handSet.Sizes())}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.req.Name, tc.req.Pair = tc.name, pairIDs
			c, events := executedEvents(t, tc.req)
			verdict, slow, _ := assertFormsAgree(t, c.auditor, c.schema.NumReducers(), events)
			if tc.healthy && (len(verdict) != 0 || slow != 0) {
				t.Fatalf("healthy run: verdict %v, %d slow replays; want none", verdict, slow)
			}
			if !tc.healthy && (len(verdict) == 0 || slow != 1) {
				t.Fatalf("corrupted run: verdict %v, %d slow replays; want violations from one slow replay", verdict, slow)
			}
		})
	}
}

func TestShardedTraceAgreesWithSparseOnFabricatedMisbehaviour(t *testing.T) {
	ms, set := validSchema(t)
	c, healthy := executedEvents(t, Request{Name: "fabricated", Schema: ms, Inputs: makeInputs(set.Sizes()), Pair: pairIDs})
	n := ms.NumReducers()
	without := func(a, b int) []traceEvent {
		var out []traceEvent
		for _, e := range healthy {
			if e.a != a || e.b != b {
				out = append(out, e)
			}
		}
		return out
	}
	cases := []struct {
		name   string
		events []traceEvent
		class  error // nil: the reference check has nothing to say
	}{
		// (0,1) is owned by reducer 0; reducer 1 holds input 0 but not 1.
		{"pair at a non-owner", append(without(0, 1), traceEvent{1, 0, 1}), ErrWrongOwner},
		{"pair at two reducers", append(slices.Clone(healthy), traceEvent{3, 0, 1}), ErrDuplicatePair},
		{"pair at one reducer twice", append(slices.Clone(healthy), traceEvent{0, 0, 1}), ErrDuplicatePair},
		{"pair missing", without(1, 3), ErrUncoveredPair},
		{"pairs out of order", append(without(0, 1), traceEvent{0, 0, 1}), nil},
		{"extra pair outside the instance", append(slices.Clone(healthy), traceEvent{2, 1, 9}), nil},
		{"extra reversed pair", append(slices.Clone(healthy), traceEvent{0, 2, 1}), nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			verdict, slow, err := assertFormsAgree(t, c.auditor, n, tc.events)
			if slow != 1 {
				t.Fatalf("%d slow replays, want 1: the shards are not what the schema prescribes", slow)
			}
			if tc.class == nil {
				if err != nil {
					t.Fatalf("verdict %v, want none (the reference check only names required pairs)", verdict)
				}
				return
			}
			if !errors.Is(err, tc.class) || len(verdict) != 1 {
				t.Fatalf("verdict %v, want exactly one %v", verdict, tc.class)
			}
		})
	}
}
