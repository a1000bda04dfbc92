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
	var events []traceEvent
	aud.idx.requiredPairs(func(i, j int) { events = append(events, traceEvent{aud.idx.owner(i, j), i, j}) })
	// Duplicate: a second, non-owning reducer also claims pair (0,1).
	events = append(events, traceEvent{3, 0, 1})
	err = aud.idx.checkTrace(traceOf(ms.NumReducers(), events))
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
	var events []traceEvent
	aud.idx.requiredPairs(func(i, j int) {
		owner := aud.idx.owner(i, j)
		if i == 0 && j == 1 {
			owner = 1 // (0,1) is owned by reducer 0; claim it elsewhere
		}
		events = append(events, traceEvent{owner, i, j})
	})
	if err := aud.idx.checkTrace(traceOf(ms.NumReducers(), events)); !errors.Is(err, ErrWrongOwner) {
		t.Fatalf("err = %v, want ErrWrongOwner", err)
	}
}

func TestAuditFlagsLoadMismatch(t *testing.T) {
	ms, set := validSchema(t)
	// Compile the real expected loads, then perturb the measured counters.
	c, err := compile(Request{Name: "loads", Schema: ms, Inputs: makeInputs(set.Sizes()), Pair: pairIDs})
	if err != nil {
		t.Fatal(err)
	}
	counters := &Counters{ReducerLoads: append([]int64(nil), c.expectedLoads...)}
	if err := c.checkLoads(counters); err != nil {
		t.Fatalf("exact loads flagged: %v", err)
	}
	counters.ReducerLoads[2]++
	if err := c.checkLoads(counters); !errors.Is(err, ErrLoadMismatch) {
		t.Fatalf("err = %v, want ErrLoadMismatch", err)
	}
	// A partition-count mismatch is a load mismatch too.
	if err := c.checkLoads(&Counters{ReducerLoads: c.expectedLoads[:2]}); !errors.Is(err, ErrLoadMismatch) {
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

// checkTrace has a fast verdict, a sequence comparison per shard, and a slow
// one, the pair-by-pair replay, which looks every required pair up in a
// sparse map from pair to the reducers whose shards hold it. The tests below
// feed the same shards to checkTrace and to the replay and require the same
// verdict, violation for violation: the sequence comparison may only ever be
// a shortcut to what the reference replay would have said.

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
	if _, err := runJob(&c.req, c.job(), &c.in); err != nil {
		t.Fatal(err)
	}
	return c, eventsOf(c.trace)
}

// traceOf builds the trace whose shards log the events, each reducer's in
// event order.
func traceOf(numReducers int, events []traceEvent) *trace {
	tr := newTrace(numReducers)
	for _, e := range events {
		tr.shards[e.r] = append(tr.shards[e.r], pairEntry{int32(e.a), int32(e.b)})
	}
	return tr
}

// eventsOf lists what a trace's shards log, reducer by reducer.
func eventsOf(tr *trace) []traceEvent {
	var events []traceEvent
	for r, log := range tr.shards {
		for _, e := range log {
			events = append(events, traceEvent{r, int(e.a), int(e.b)})
		}
	}
	return events
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

// assertVerdictsAgree checks the trace of the events with checkTrace and
// with the reference replay, and returns checkTrace's verdict — as an error
// and as a multiset equal to the replay's — and how many slow replays it
// took.
func assertVerdictsAgree(t *testing.T, idx *schemaIndex, numReducers int, events []traceEvent) (verdict []string, slowReplays uint64, err error) {
	t.Helper()
	tr := traceOf(numReducers, events)
	want := violationKeys(t, idx.replay(tr))
	before := obsSlowReplays.Value()
	err = idx.checkTrace(tr)
	slowReplays = obsSlowReplays.Value() - before
	if got := violationKeys(t, err); !reflect.DeepEqual(got, want) {
		t.Fatalf("checkTrace and the reference replay disagree:\n  replay:     %v\n  checkTrace: %v", want, got)
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
		healthy bool // the run conforms, so checkTrace must not need a slow replay
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
			verdict, slow, _ := assertVerdictsAgree(t, c.idx, c.schema.NumReducers(), events)
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
		class  error // nil: the reference replay has nothing to say
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
			verdict, slow, err := assertVerdictsAgree(t, c.idx, n, tc.events)
			if slow != 1 {
				t.Fatalf("%d slow replays, want 1: the shards are not what the schema prescribes", slow)
			}
			if tc.class == nil {
				if err != nil {
					t.Fatalf("verdict %v, want none (the reference replay only names required pairs)", verdict)
				}
				return
			}
			if !errors.Is(err, tc.class) || len(verdict) != 1 {
				t.Fatalf("verdict %v, want exactly one %v", verdict, tc.class)
			}
		})
	}
}
