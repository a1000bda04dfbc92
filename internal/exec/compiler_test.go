package exec

// Tests that a Compiler's cache cannot serve somebody else's index: a hit is
// a verified hit, whatever the caller did to its schema since, whatever the
// hash says, and whatever else shares the cache.

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
)

// compileOutcomes reads pland_exec_compile_total.
type compileOutcomes struct{ hit, miss, uncacheable uint64 }

func readCompileOutcomes() compileOutcomes {
	return compileOutcomes{obsCompileHit.Value(), obsCompileMiss.Value(), obsCompileUncacheable.Value()}
}

func (c compileOutcomes) since(before compileOutcomes) compileOutcomes {
	return compileOutcomes{c.hit - before.hit, c.miss - before.miss, c.uncacheable - before.uncacheable}
}

// runOutcome is what one Run did as a caller sees it: the audit verdict as a
// sorted multiset, any other error's text, the output in order, and which
// compile series moved.
type runOutcome struct {
	verdict []string
	failure string
	output  []string
	compile compileOutcomes
}

func observeRun(t *testing.T, req Request) runOutcome {
	t.Helper()
	before := readCompileOutcomes()
	res, err := Run(req)
	out := runOutcome{compile: readCompileOutcomes().since(before)}
	var ae *AuditError
	switch {
	case errors.As(err, &ae):
		out.verdict = violationKeys(t, err)
	case err != nil:
		out.failure = err.Error()
	}
	if res != nil {
		for _, rec := range res.Output {
			out.output = append(out.output, string(rec))
		}
		if err == nil && !res.Audited {
			t.Fatalf("%s: run was not audited", req.Name)
		}
	}
	return out
}

// sameRun requires got to be what a cold compile of the same request gave,
// through the given compile series.
func sameRun(t *testing.T, what string, got, cold runOutcome, want compileOutcomes) {
	t.Helper()
	if !reflect.DeepEqual(got.verdict, cold.verdict) || got.failure != cold.failure || !slices.Equal(got.output, cold.output) {
		t.Fatalf("%s differs from a cold compile of the same schema:\n  got:  %+v\n  cold: %+v", what, got, cold)
	}
	if got.compile != want {
		t.Fatalf("%s counted as %+v, want %+v", what, got.compile, want)
	}
}

var (
	oneHit         = compileOutcomes{hit: 1}
	oneMiss        = compileOutcomes{miss: 1}
	oneUncacheable = compileOutcomes{uncacheable: 1}
)

// constantHash sends every schema to one cache slot, leaving the comparison
// as the only thing between a request and another schema's index.
func constantHash(*core.MappingSchema, shape) uint64 { return 42 }

// TestCompilerServesOnlyTheSchemaItCompiled mutates, between runs, the very
// schema object the cached entry was compiled from. Under the real hash and
// under a constant one, every verdict must be that of a cold compile of the
// schema as it is now, and the original content must still hit afterwards.
// Without the private copy the entry would change with the caller's schema
// and compare equal to it; without the comparison the constant hash would
// serve the original's index to the mutants.
func TestCompilerServesOnlyTheSchemaItCompiled(t *testing.T) {
	mutations := []struct {
		name   string
		mutate func(ms *core.MappingSchema)
		class  error // what the mutant's audit must report; nil: it passes
	}{
		{"drop a member", func(ms *core.MappingSchema) { ms.Reducers[3].Inputs = []int{2} }, ErrUncoveredPair},
		{"inflate a load", func(ms *core.MappingSchema) { ms.Reducers[0].Load = 7 }, ErrOverCapacity},
		{"reorder a list", func(ms *core.MappingSchema) { ms.Reducers[0].Inputs = []int{2, 0, 1} }, nil},
		{"move a member", func(ms *core.MappingSchema) {
			// Still valid, but (0,3) now meets at reducer 0 and input 3 goes
			// to four reducers: the original's index would route it to three.
			ms.Capacity = 8
			ms.Reducers[0] = core.Reducer{Inputs: []int{0, 1, 2, 3}, Load: 8}
		}, nil},
	}
	for _, hash := range []struct {
		name string
		fn   func(*core.MappingSchema, shape) uint64
	}{{"real hash", hashSchema}, {"constant hash", constantHash}} {
		for _, m := range mutations {
			t.Run(hash.name+"/"+m.name, func(t *testing.T) {
				cp := NewCompiler()
				cp.hash = hash.fn
				ms, set := validSchema(t)
				req := Request{Name: m.name, Schema: ms, Inputs: makeInputs(set.Sizes()), Pair: pairIDs, Compiler: cp}
				cold := func() runOutcome {
					r := req
					r.Compiler = nil
					out := observeRun(t, r)
					out.compile = compileOutcomes{}
					return out
				}
				original := cold()
				sameRun(t, "first sight", observeRun(t, req), original, oneMiss)
				sameRun(t, "second sight", observeRun(t, req), original, oneMiss)
				sameRun(t, "third sight", observeRun(t, req), original, oneHit)

				m.mutate(ms)
				mutant := cold()
				if m.class == nil && (mutant.verdict != nil || mutant.failure != "") {
					t.Fatalf("the mutant should pass cold, got %+v", mutant)
				}
				if m.class != nil && len(mutant.verdict) == 0 {
					t.Fatalf("the mutant should fail cold with %v, got %+v", m.class, mutant)
				}
				for sight := 1; sight <= 3; sight++ {
					got := observeRun(t, req)
					hit := got.compile.hit == 1
					got.compile = compileOutcomes{} // miss or uncacheable, by hash, sight and verdict
					sameRun(t, fmt.Sprintf("mutant, sight %d", sight), got, mutant, compileOutcomes{})
					switch {
					case hit && (sight == 1 || m.class != nil):
						t.Fatalf("mutant, sight %d: served from the cache", sight)
					case !hit && sight == 3 && m.class == nil:
						t.Fatal("a passing mutant is not retained by its third sight")
					}
				}

				// The caller restores the content: under the real hash the
				// original's entry was never displaced and still answers.
				restored, _ := validSchema(t)
				*ms = *restored
				want := oneHit
				if hash.name == "constant hash" && m.class == nil {
					want = oneMiss // the passing mutant took the one slot
				}
				sameRun(t, "original again", observeRun(t, req), original, want)
			})
		}
	}
}

// TestCompilerHashCollision runs two different schemas of one shape through
// a compiler whose hash cannot tell them apart: each run gets its own
// schema's routing, whichever of the two holds the slot.
func TestCompilerHashCollision(t *testing.T) {
	cp := NewCompiler()
	cp.hash = constantHash
	a, set := validSchema(t)
	b := &core.MappingSchema{Problem: core.ProblemA2A, Capacity: 8}
	b.AddReducerA2A(set, []int{0, 1, 2, 3})
	inputs := makeInputs(set.Sizes())
	reqA := Request{Name: "a", Schema: a, Inputs: inputs, Pair: pairIDs}
	reqB := Request{Name: "b", Schema: b, Inputs: inputs, Pair: pairIDs}
	coldA, coldB := observeRun(t, reqA), observeRun(t, reqB)
	if slices.Equal(coldA.output, coldB.output) {
		t.Fatal("the two schemas emit in the same order; the test could not tell their indexes apart")
	}
	coldA.compile, coldB.compile = compileOutcomes{}, compileOutcomes{}
	reqA.Compiler, reqB.Compiler = cp, cp
	for i, step := range []struct {
		req  Request
		cold runOutcome
		want compileOutcomes
	}{
		{reqA, coldA, oneMiss}, // remembered
		{reqA, coldA, oneMiss}, // retained
		{reqA, coldA, oneHit},
		{reqB, coldB, oneMiss}, // same hash, so this counts as its second sight: takes the slot
		{reqB, coldB, oneHit},
		{reqA, coldA, oneMiss}, // takes it back
		{reqA, coldA, oneHit},
		{reqB, coldB, oneMiss},
	} {
		sameRun(t, fmt.Sprintf("step %d (%s)", i, step.req.Name), observeRun(t, step.req), step.cold, step.want)
	}
	if len(cp.entries) != 1 {
		t.Fatalf("%d entries under one hash, want 1", len(cp.entries))
	}
}

// TestCompilerRepeatsEveryMetamorphicVerdict runs the schemas of the
// metamorphic audit tests three times through one compiler each — first
// sight, admission, hit — and requires the cold verdict every time. A schema
// that fails PreCheck is compiled every time and never retained.
func TestCompilerRepeatsEveryMetamorphicVerdict(t *testing.T) {
	hand := func(mutate func(ms *core.MappingSchema)) func(t *testing.T) Request {
		return func(t *testing.T) Request {
			ms, set := validSchema(t)
			if mutate != nil {
				mutate(ms)
			}
			return Request{Schema: ms, Inputs: makeInputs(set.Sizes())}
		}
	}
	x2y := func(mutate func(ms *core.MappingSchema)) func(t *testing.T) Request {
		return func(t *testing.T) Request {
			xs, ys := core.MustNewInputSet([]core.Size{2, 2}), core.MustNewInputSet([]core.Size{1, 1})
			ms := &core.MappingSchema{Problem: core.ProblemX2Y, Capacity: 6}
			ms.AddReducerX2Y(xs, ys, []int{0, 1}, []int{0})
			ms.AddReducerX2Y(xs, ys, []int{0, 1}, []int{1})
			if mutate != nil {
				mutate(ms)
			}
			return Request{Schema: ms, XInputs: makeInputs(xs.Sizes()), YInputs: makeInputs(ys.Sizes())}
		}
	}
	cases := []struct {
		name  string
		build func(t *testing.T) Request
		class []error // every class the verdict must hold; none: the run passes
	}{
		{"valid", hand(nil), nil},
		{"dropped coverage", hand(func(ms *core.MappingSchema) {
			ms.Reducers[3] = core.Reducer{Inputs: []int{2}, Load: 2}
		}), []error{ErrUncoveredPair}},
		{"inflated reducer", hand(func(ms *core.MappingSchema) {
			ms.Reducers[0] = core.Reducer{Inputs: []int{0, 1, 2, 3}, Load: 8}
		}), []error{ErrOverCapacity}},
		{"two classes", hand(func(ms *core.MappingSchema) {
			ms.Reducers[0] = core.Reducer{Inputs: []int{0, 1, 2}, Load: 7}
			ms.Reducers[3] = core.Reducer{Inputs: []int{2}, Load: 2}
		}), []error{ErrOverCapacity, ErrUncoveredPair}},
		{"duplicated member", hand(func(ms *core.MappingSchema) { ms.Reducers[0].Inputs = []int{0, 1, 1, 2} }), nil},
		{"unsorted members", hand(func(ms *core.MappingSchema) {
			ms.Reducers[0].Inputs = []int{2, 0, 1}
			ms.Reducers[2].Inputs = []int{3, 1}
		}), nil},
		{"x2y valid", x2y(nil), nil},
		{"x2y dropped coverage", x2y(func(ms *core.MappingSchema) {
			ms.Reducers[1] = core.Reducer{XInputs: []int{0}, YInputs: []int{1}, Load: 3}
		}), []error{ErrUncoveredPair}},
		{"out of range", func(t *testing.T) Request {
			ms, set := validSchema(t)
			return Request{Schema: ms, Inputs: makeInputs(set.Sizes()[:3])}
		}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := tc.build(t)
			req.Name, req.Pair = tc.name, pairIDs
			_, err := Run(req)
			for _, class := range tc.class {
				if !errors.Is(err, class) {
					t.Fatalf("cold run: err = %v, want %v", err, class)
				}
			}
			cold := observeRun(t, req)
			cold.compile = compileOutcomes{}
			wants := []compileOutcomes{oneMiss, oneMiss, oneHit}
			switch {
			case cold.failure != "": // no index: nothing to count
				wants = []compileOutcomes{{}, {}, {}}
			case cold.verdict != nil:
				wants = []compileOutcomes{oneMiss, oneUncacheable, oneUncacheable}
			}
			if passes := cold.failure == "" && cold.verdict == nil; passes != (tc.class == nil && tc.name != "out of range") {
				t.Fatalf("cold run: %+v, want classes %v", cold, tc.class)
			}
			cp := NewCompiler()
			req.Compiler = cp
			for sight, want := range wants {
				slow := obsSlowReplays.Value()
				sameRun(t, fmt.Sprintf("sight %d", sight+1), observeRun(t, req), cold, want)
				if slow = obsSlowReplays.Value() - slow; slow != 0 {
					t.Fatalf("sight %d took %d slow replays", sight+1, slow)
				}
				if want != oneHit && sight == 2 && (len(cp.entries) != 0 || cp.bytes != 0) {
					t.Fatalf("a schema that does not pass is retained (%d entries, %d bytes)", len(cp.entries), cp.bytes)
				}
			}
		})
	}
}

// TestCompilerKeysOnShape runs one schema over the instance it was planned
// for until it is cached, then over an instance with one input more than its
// highest ID: same content, different shape, so the cached index (whose
// static check passed) must not answer.
func TestCompilerKeysOnShape(t *testing.T) {
	cp := NewCompiler()
	ms, set := validSchema(t)
	req := Request{Name: "shape", Schema: ms, Inputs: makeInputs(set.Sizes()), Pair: pairIDs, Compiler: cp}
	for _, want := range []compileOutcomes{oneMiss, oneMiss, oneHit} {
		if got := observeRun(t, req); got.verdict != nil || got.failure != "" || got.compile != want {
			t.Fatalf("run over four inputs: %+v, want a pass counted as %+v", got, want)
		}
	}
	req.Inputs = makeInputs([]core.Size{2, 2, 2, 2, 2})
	cold := req
	cold.Compiler = nil
	want := observeRun(t, cold)
	if len(want.verdict) != 4 { // input 4 meets nobody
		t.Fatalf("cold run over five inputs: %+v, want four uncovered pairs", want)
	}
	want.compile = compileOutcomes{}
	sameRun(t, "five inputs, first sight", observeRun(t, req), want, oneMiss)
	sameRun(t, "five inputs, second sight", observeRun(t, req), want, oneUncacheable)
}

// distinctSchemas returns n valid A2A schemas over m equal inputs that differ
// in content: schema k pairs the inputs up under capacity 2+k.
func distinctSchemas(n, m int) []*core.MappingSchema {
	sizes := make([]core.Size, m)
	for i := range sizes {
		sizes[i] = 1
	}
	set := core.MustNewInputSet(sizes)
	out := make([]*core.MappingSchema, n)
	for k := range out {
		out[k] = &core.MappingSchema{Problem: core.ProblemA2A, Capacity: core.Size(2 + k)}
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				out[k].AddReducerA2A(set, []int{i, j})
			}
		}
	}
	return out
}

// TestCompilerByteBound fills a compiler past its bound, showing it each
// schema twice since a schema is retained at its second sight: retained
// bytes (and the gauge, which moves with them) never exceed the bound,
// eviction takes the least recently used entry, and an index that alone
// exceeds the bound is compiled and used but reported uncacheable.
func TestCompilerByteBound(t *testing.T) {
	const m = 40
	schemas := distinctSchemas(6, m)
	sh := shape{numA: m}
	probe, err := newSchemaIndex(schemas[0], sh)
	if err != nil {
		t.Fatal(err)
	}
	one := probe.retainedBytes()
	if one < 8*(m*(m-1)/2)*3 { // owned pairs, plus each pair's reducer twice over
		t.Fatalf("an index over %d pairs weighs %d bytes", m*(m-1)/2, one)
	}

	cp := NewCompiler()
	cp.maxBytes = 3*one + one/2
	if cp.maxBytes > maxCacheBytes {
		t.Fatalf("test bound %d exceeds the real one", cp.maxBytes)
	}
	gauge := obsCompileCacheBytes.Value()
	hits := func(k int) bool {
		_, outcome, err := cp.index(schemas[k], sh)
		if err != nil {
			t.Fatal(err)
		}
		if got := obsCompileCacheBytes.Value() - gauge; got != cp.bytes || got > cp.maxBytes {
			t.Fatalf("after schema %d: gauge moved by %d, compiler holds %d, bound %d", k, got, cp.bytes, cp.maxBytes)
		}
		return outcome == obsCompileHit
	}
	show := func(k int) {
		if hits(k) || hits(k) {
			t.Fatalf("schema %d hit before it was retained", k)
		}
	}
	for k := range schemas[:3] {
		show(k)
	}
	if !hits(0) { // 0 is now the most recently used of {0, 1, 2}
		t.Fatal("schema 0 was not retained")
	}
	show(3) // evicts 1, the least recently used
	show(4) // evicts 2
	if len(cp.entries) != 3 || cp.bytes != 3*one {
		t.Fatalf("%d entries, %d bytes; want 3 entries of %d bytes", len(cp.entries), cp.bytes, one)
	}
	for k, want := range map[int]bool{0: true, 3: true, 4: true} {
		if got := hits(k); got != want {
			t.Fatalf("schema %d: hit=%v, want %v", k, got, want)
		}
	}
	if hits(1) {
		t.Fatal("schema 1 survived two evictions")
	}

	cp.maxBytes = one - 1
	if _, outcome, err := cp.index(schemas[5], sh); err != nil || outcome != obsCompileMiss {
		t.Fatalf("an index seen once: outcome is the miss series: %v, err %v", outcome == obsCompileMiss, err)
	}
	idx, outcome, err := cp.index(schemas[5], sh)
	if err != nil || outcome != obsCompileUncacheable {
		t.Fatalf("an index over the bound: outcome is the uncacheable series: %v, err %v", outcome == obsCompileUncacheable, err)
	}
	if err := (&Auditor{idx: idx}).PreCheck(); err != nil {
		t.Fatalf("the uncacheable index is still a working one: %v", err)
	}
	cp.purge()
	if got := obsCompileCacheBytes.Value() - gauge; got != 0 || cp.bytes != 0 || len(cp.entries) != 0 {
		t.Fatalf("after purge: gauge %+d, %d bytes, %d entries", got, cp.bytes, len(cp.entries))
	}
}

// purge empties the cache, giving the compiler's share of the
// pland_exec_compile_cache_bytes gauge back.
func (cp *Compiler) purge() {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	for cp.order.Len() > 0 {
		cp.remove(cp.order.Back())
	}
}

// TestOverflowingReducerIsLoggedAndNamed drives the compiled reducers by
// hand and hands reducer 0 every record of the job. It elects every pair
// (nothing lies below it), so it logs twice what it owns: the log must
// outgrow its section without touching reducer 1's, and the audit must come
// out of the slow replay naming what the sparse reference form names for the
// same events — which is what it named when every reducer had a log of its
// own.
func TestOverflowingReducerIsLoggedAndNamed(t *testing.T) {
	ms, set := validSchema(t)
	inputs := makeInputs(set.Sizes())
	c, err := compile(Request{Name: "overflow", Schema: ms, Inputs: inputs, Pair: pairIDs})
	if err != nil {
		t.Fatal(err)
	}
	c.takeLog()
	defer putTraceLog(c.log)
	for r, red := range ms.Reducers {
		members := red.Inputs
		if r == 0 {
			members = []int{0, 1, 2, 3}
		}
		var copies []Record
		for _, id := range members {
			copies = append(copies, Record{ID: id, Data: inputs[id]})
		}
		if err := c.reduce(r, copies, func([]byte) {}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(c.trace.shards[0]); got != 6 {
		t.Fatalf("reducer 0 logged %d pairs, want all 6", got)
	}
	for r := 1; r < ms.NumReducers(); r++ {
		if !slices.Equal(c.trace.shards[r], c.idx.ownedBy(r)) {
			t.Fatalf("reducer %d's log is %v, want its owned pairs %v: a neighbour wrote into it", r, c.trace.shards[r], c.idx.ownedBy(r))
		}
	}
	if got := c.trace.Pairs(); got != 9 {
		t.Fatalf("trace holds %d entries, want 9", got)
	}
	var events []traceEvent
	for r, log := range c.trace.shards {
		for _, e := range log {
			events = append(events, traceEvent{r, int(e.a), int(e.b)})
		}
	}
	reference, _ := bothForms(ms.NumReducers(), events)
	want := violationKeys(t, c.auditor.CheckTrace(reference))
	slow := obsSlowReplays.Value()
	got := violationKeys(t, c.auditor.CheckTrace(c.trace))
	if slow = obsSlowReplays.Value() - slow; slow != 1 {
		t.Fatalf("%d slow replays, want 1", slow)
	}
	if len(got) != 3 || !reflect.DeepEqual(got, want) {
		t.Fatalf("verdict %v, want the reference form's three duplicates %v", got, want)
	}
}
