package exec

// Tests that a Compiler's cache cannot serve somebody else's index: a hit is
// a verified hit, whatever the caller did to its schema since, whatever the
// hash says, and whatever else shares the cache.

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
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

// TestOverflowingReducerIsLoggedAndNamed flips one bit of one reducer's
// class bitmap, so that on the engine it elects a pair a lower reducer owns.
// It then processes a pair more than it owns: its shard must be a log of its
// own holding that pair, every other shard its reducer's owned list, and the
// audit must come out of the slow replay naming the pair processed twice.
func TestOverflowingReducerIsLoggedAndNamed(t *testing.T) {
	ms, set := validSchema(t)
	// Reducer 1 covers (0,1) again. Reducer 0 owns it, so reducer 1 owns
	// nothing: its owned list is empty, and reducer 2's starts where it does.
	ms.Reducers = slices.Insert(ms.Reducers, 1, core.Reducer{Inputs: []int{0, 1}, Load: 4})
	c, err := compile(Request{Name: "overflow", Schema: ms, Inputs: makeInputs(set.Sizes()), Pair: pairIDs})
	if err != nil {
		t.Fatal(err)
	}
	e := c.idx.election(1)
	if row := e.row(0); row.has(1) {
		t.Fatal("reducer 1 elects (0,1) before the flip")
	}
	cb := e.cb[1]
	e.bits[int(e.ca[0])*e.stride+int(cb>>6)] |= 1 << (cb & 63)
	if _, err := runJob(&c.req, c.job(), &c.in); err != nil {
		t.Fatal(err)
	}
	if got, want := c.trace.shards[1], []pairEntry{{0, 1}}; !slices.Equal(got, want) {
		t.Fatalf("reducer 1 logged %v, want %v", got, want)
	}
	for r := range ms.Reducers {
		if r != 1 && !slices.Equal(c.trace.shards[r], c.idx.ownedBy(r)) {
			t.Fatalf("reducer %d's log is %v, want its owned pairs %v: the stray reducer wrote into it", r, c.trace.shards[r], c.idx.ownedBy(r))
		}
	}
	if got := c.trace.pairs(); got != 7 {
		t.Fatalf("trace holds %d entries, want 7", got)
	}
	slow := obsSlowReplays.Value()
	err = c.idx.checkTrace(c.trace)
	if slow = obsSlowReplays.Value() - slow; slow != 1 {
		t.Fatalf("%d slow replays, want 1", slow)
	}
	var ae *AuditError
	if !errors.As(err, &ae) || len(ae.Violations) != 1 {
		t.Fatalf("verdict %v, want one violation", err)
	}
	if v := ae.Violations[0]; v.Err != ErrDuplicatePair || v.A != 0 || v.B != 1 || v.Detail != "pair (0,1) processed by reducers [0 1]" {
		t.Fatalf("verdict %v, want pair (0,1) processed by reducers 0 and 1", v)
	}
}

// skippingIndex returns a copy of idx in which reducer r does not elect the
// pair p of its members: one bit of a private copy of its class bitmap is
// cleared. The copy shares everything else with idx, the owned-pair lists
// included, so a run on it strays from the lists the runs on idx read.
func skippingIndex(t *testing.T, idx *schemaIndex, r int, p pairEntry) *schemaIndex {
	t.Helper()
	verdict := idx.preCheck()
	idx.elect()
	cp := &schemaIndex{
		schema: idx.schema, shape: idx.shape, routes: idx.routes, rows: idx.rows,
		owned: idx.owned, ownedEnd: idx.ownedEnd, elections: slices.Clone(idx.elections), preErr: verdict,
	}
	for _, once := range []*sync.Once{&cp.sweepOnce, &cp.electOnce, &cp.preOnce} {
		once.Do(func() {})
	}
	e := &cp.elections[r]
	e.bits = slices.Clone(e.bits)
	i, j := slices.Index(e.a, int(p.a)), slices.Index(e.b, int(p.b))
	if i < 0 || j < 0 {
		t.Fatalf("pair %v is not a pair of reducer %d's members", p, r)
	}
	cb := e.cb[j]
	e.bits[int(e.ca[i])*e.stride+int(cb>>6)] &^= 1 << (cb & 63)
	return cp
}

// retainedCompilation runs req, whose Compiler has not seen its schema,
// once, and compiles it a second time: the second sighting retains the
// index, which the returned compilation holds.
func retainedCompilation(t *testing.T, req Request) *compilation {
	t.Helper()
	if _, err := Run(req); err != nil {
		t.Fatal(err)
	}
	c, err := compile(req)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := compile(req); err != nil || again.idx != c.idx {
		t.Fatalf("the Compiler did not retain the index (err %v)", err)
	}
	return c
}

// TestUnderflowingReducerIsNamed runs a schema a Compiler retains with
// reducer 0 skipping the second of its three owned pairs, so from there on
// its pairs disagree with its owned list. Its shard must be a log of its own
// holding exactly the pairs it processed; the audit must come out of one
// slow replay naming the skipped pair, as the replay does; and a clean run
// through the same Compiler must take no slow replay, so the retained owned
// list was never written.
func TestUnderflowingReducerIsNamed(t *testing.T) {
	ms, set := validSchema(t)
	req := Request{Name: "underflow", Schema: ms, Inputs: makeInputs(set.Sizes()), Pair: pairIDs, Compiler: NewCompiler()}
	c := retainedCompilation(t, req)
	shared := c.idx
	owned := slices.Clone(shared.ownedBy(0))
	if want := []pairEntry{{0, 1}, {0, 2}, {1, 2}}; !slices.Equal(owned, want) {
		t.Fatalf("reducer 0 owns %v, want %v", owned, want)
	}
	c.idx = skippingIndex(t, shared, 0, owned[1])
	if _, err := runJob(&c.req, c.job(), &c.in); err != nil {
		t.Fatal(err)
	}
	shard := c.trace.shards[0]
	if want := []pairEntry{{0, 1}, {1, 2}}; !slices.Equal(shard, want) {
		t.Fatalf("reducer 0 logged %v, want %v", shard, want)
	}
	if &shard[0] == &shared.ownedBy(0)[0] {
		t.Fatal("the stray reducer's shard is the retained owned list, not a log of its own")
	}
	want := violationKeys(t, shared.replay(c.trace))
	slow := obsSlowReplays.Value()
	got := violationKeys(t, shared.checkTrace(c.trace))
	if slow = obsSlowReplays.Value() - slow; slow != 1 {
		t.Fatalf("%d slow replays, want 1", slow)
	}
	if !reflect.DeepEqual(got, want) || len(got) != 1 || !strings.Contains(got[0], "pair (0,2) was never processed (owner 0)") {
		t.Fatalf("verdict %v, replay's %v; want pair (0,2) never processed", got, want)
	}
	slow = obsSlowReplays.Value()
	if res, err := Run(req); err != nil || !res.Audited {
		t.Fatalf("clean run after the stray one: audited=%v err=%v", res != nil && res.Audited, err)
	}
	if slow = obsSlowReplays.Value() - slow; slow != 0 {
		t.Fatalf("clean run after the stray one took %d slow replays, want 0", slow)
	}
	if !slices.Equal(shared.ownedBy(0), owned) {
		t.Fatalf("reducer 0's retained owned list is %v, was %v", shared.ownedBy(0), owned)
	}
}

// TestStrayRunsLeaveTheRetainedListAlone runs one schema a Compiler retains
// from several goroutines at once: most run it clean, two run it with a
// reducer that skips an owned pair and so strays from the owned list every
// run reads. Every clean run must pass its audit with the output of the
// first, and every stray one must fail on an uncovered pair; under -race
// this also shows that no stray reducer writes the list the others read.
func TestStrayRunsLeaveTheRetainedListAlone(t *testing.T) {
	sizes := make([]core.Size, 60)
	for i := range sizes {
		sizes[i] = 2
	}
	req := Request{Name: "stray-race", Schema: solveA2A(t, sizes, 25), Inputs: makeInputs(sizes), Pair: pairIDs, Compiler: NewCompiler()}
	ref, err := Run(Request{Name: req.Name, Schema: req.Schema, Inputs: req.Inputs, Pair: req.Pair})
	if err != nil {
		t.Fatal(err)
	}
	shared := retainedCompilation(t, req).idx
	r := 0
	for len(shared.ownedBy(r)) < 2 {
		r++
	}
	stray := skippingIndex(t, shared, r, shared.ownedBy(r)[1])
	slow := obsSlowReplays.Value()
	const goroutines, strays, rounds = 6, 2, 3
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				if g < strays {
					c, err := compile(req)
					if err == nil {
						c.idx = stray
						_, err = runJob(&c.req, c.job(), &c.in)
					}
					if err == nil {
						if err = shared.checkTrace(c.trace); errors.Is(err, ErrUncoveredPair) {
							err = nil
						} else {
							err = fmt.Errorf("stray run: verdict %v, want an uncovered pair", err)
						}
					}
					if err != nil {
						errs[g] = err
					}
					continue
				}
				res, err := Run(req)
				if err == nil && (!res.Audited || !reflect.DeepEqual(res.Output, ref.Output)) {
					err = fmt.Errorf("clean run: audited=%v, output drifted from the uncached run", res.Audited)
				}
				if err != nil {
					errs[g] = err
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := obsSlowReplays.Value() - slow; got != strays*rounds {
		t.Fatalf("%d slow replays, want %d: one per stray run", got, strays*rounds)
	}
}
