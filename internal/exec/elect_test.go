package exec

// Tests of owner election by class and of the shards reducers publish.

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/a2a"
	"repro/internal/core"
	"repro/internal/workload"
	"repro/internal/x2y"
)

// electedByClass lists the pairs reducer r's class bitmap elects, in the
// order a compiled reducer processes them.
func electedByClass(idx *schemaIndex, r int) []pairEntry {
	e := idx.election(r)
	var out []pairEntry
	for i, a := range e.a {
		row := e.row(i)
		for j, b := range e.b {
			if (idx.schema.Problem == core.ProblemA2A && j <= i) || !row.has(j) {
				continue
			}
			out = append(out, pairEntry{int32(a), int32(b)})
		}
	}
	return out
}

// electedByRows lists the pairs reducer r elects with the per-pair test on
// the membership rows, the election the bitmaps replace.
func electedByRows(idx *schemaIndex, r int) []pairEntry {
	red := &idx.schema.Reducers[r]
	var out []pairEntry
	if idx.schema.Problem == core.ProblemA2A {
		members := sortedMembers(red.Inputs)
		for k, i := range members {
			for _, j := range members[k+1:] {
				if !idx.rows[i].IntersectsBelow(&idx.rows[j], r) {
					out = append(out, pairEntry{int32(i), int32(j)})
				}
			}
		}
		return out
	}
	for _, x := range sortedMembers(red.XInputs) {
		for _, y := range sortedMembers(red.YInputs) {
			if !idx.rows[x].IntersectsBelow(&idx.rows[idx.numX+y], r) {
				out = append(out, pairEntry{int32(x), int32(y)})
			}
		}
	}
	return out
}

// doublyCovered reports whether two inputs of different classes share more
// than one reducer, so some reducer holding both must not elect their pair.
func doublyCovered(idx *schemaIndex) bool {
	classOf, _ := classesOf(idx.routes)
	for i := range idx.routes {
		for j := i + 1; j < len(idx.routes); j++ {
			if classOf[i] == classOf[j] {
				continue
			}
			a, b := &idx.rows[i], &idx.rows[j]
			if shared := a.Count() - a.CountAndNot(b); shared > 1 {
				return true
			}
		}
	}
	return false
}

// onlySingletons reports whether no two inputs of the index share a class.
func onlySingletons(idx *schemaIndex) bool {
	_, n := classesOf(idx.routes)
	return n == len(idx.routes)
}

// TestClassElectionMatchesRows holds every reducer's class bitmap to the
// per-pair row test on schemas from every member of the solver portfolio:
// the same pairs, in the same order, and — the schemas being valid — exactly
// the reducer's owned-pair list from the sweep.
func TestClassElectionMatchesRows(t *testing.T) {
	draw := func(spec workload.SizeSpec, m int, seed int64) *core.InputSet {
		set, err := workload.InputSet(spec, m, seed)
		if err != nil {
			t.Fatal(err)
		}
		return set
	}
	equal := func(m int, seed int64) *core.InputSet {
		return draw(workload.SizeSpec{Dist: workload.Uniform, Min: 2, Max: 2}, m, seed)
	}
	uniform := func(m int, max core.Size, seed int64) *core.InputSet {
		return draw(workload.SizeSpec{Dist: workload.Uniform, Min: 1, Max: max}, m, seed)
	}
	type instance struct {
		name   string
		solve  func() (*core.MappingSchema, error)
		sh     shape
		member string // the algorithm the schema must come from; "" takes any
	}
	var cases []instance
	for _, c := range []struct {
		m, k   int
		member string
	}{
		{50, 10, "a2a/affine-plane"}, {120, 12, "a2a/affine-plane"},
		{40, 5, "a2a/plane-remainder"}, {100, 10, "a2a/plane-remainder"}, {50, 6, "a2a/plane-remainder"},
	} {
		set := equal(c.m, int64(c.m))
		cases = append(cases, instance{fmt.Sprintf("a2a.Solve m=%d k=%d", c.m, c.k),
			func() (*core.MappingSchema, error) { return a2a.Solve(set, core.Size(2*c.k+1)) }, shape{numA: c.m}, c.member})
	}
	for seed := int64(1); seed <= 3; seed++ {
		big, tiny := uniform(60, 64, seed), uniform(8, 9, seed)
		xs, ys := uniform(30, 40, seed), uniform(50, 40, seed+10)
		txs, tys := uniform(4, 9, seed), uniform(5, 9, seed+10)
		cases = append(cases,
			instance{fmt.Sprintf("a2a.Greedy seed=%d", seed), func() (*core.MappingSchema, error) { return a2a.Greedy(big, 256) }, shape{numA: 60}, ""},
			instance{fmt.Sprintf("a2a.Exact seed=%d", seed), func() (*core.MappingSchema, error) {
				return a2a.Exact(tiny, 20, a2a.ExactOptions{MaxNodes: 200_000})
			}, shape{numA: 8}, ""},
			instance{fmt.Sprintf("x2y.Solve seed=%d", seed), func() (*core.MappingSchema, error) { return x2y.Solve(xs, ys, 200) }, shape{numX: 30, numY: 50}, ""},
			instance{fmt.Sprintf("x2y.Greedy seed=%d", seed), func() (*core.MappingSchema, error) { return x2y.Greedy(xs, ys, 200) }, shape{numX: 30, numY: 50}, ""},
			instance{fmt.Sprintf("x2y.Exact seed=%d", seed), func() (*core.MappingSchema, error) {
				return x2y.Exact(txs, tys, 20, x2y.ExactOptions{MaxNodes: 200_000})
			}, shape{numX: 4, numY: 5}, ""},
		)
	}
	sawDouble, sawSingletons := false, false
	for _, tc := range cases {
		ms, err := tc.solve()
		if err != nil && !errors.Is(err, a2a.ErrNodeBudget) && !errors.Is(err, x2y.ErrNodeBudget) {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.member != "" && ms.Algorithm != tc.member {
			t.Fatalf("%s: solved by %s, want %s", tc.name, ms.Algorithm, tc.member)
		}
		idx, err := newSchemaIndex(ms, tc.sh)
		if err != nil {
			t.Fatal(err)
		}
		if err := idx.preCheck(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for r := range ms.Reducers {
			got, want := electedByClass(idx, r), electedByRows(idx, r)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: reducer %d elects %v by class, %v by rows", tc.name, r, got, want)
			}
			if owned := idx.ownedBy(r); !slices.Equal(got, owned) {
				t.Fatalf("%s: reducer %d elects %v, the sweep gives it %v", tc.name, r, got, owned)
			}
		}
		sawDouble = sawDouble || doublyCovered(idx)
		sawSingletons = sawSingletons || onlySingletons(idx)
	}
	if !sawDouble || !sawSingletons {
		t.Fatalf("sample lacks a doubly covered pair (%v) or a schema of singleton classes only (%v)", sawDouble, sawSingletons)
	}
}

// isOwnedList reports whether a shard is its reducer's owned-pair list itself,
// not a copy of it: same first element, same length, and no room to grow.
func isOwnedList(shard, owned []pairEntry) bool {
	return len(shard) == len(owned) && cap(shard) == len(shard) && (len(owned) == 0 || &shard[0] == &owned[0])
}

// TestCleanRunPublishesTheOwnedLists checks that a clean run stores nothing
// per pair, audited or not and compiled for the run or taken from a
// Compiler: every reducer's shard is the index's own owned-pair list.
func TestCleanRunPublishesTheOwnedLists(t *testing.T) {
	sizes := []core.Size{3, 3, 2, 2, 4, 1, 2, 3}
	ms := solveA2A(t, sizes, 10)
	cp := NewCompiler()
	for _, noAudit := range []bool{false, true} {
		for _, compiler := range []*Compiler{nil, cp, cp} { // cp's second sighting retains the index
			c, _ := executedEvents(t, Request{Name: "owned", Schema: ms, Inputs: makeInputs(sizes), Pair: pairIDs, NoAudit: noAudit, Compiler: compiler})
			worked := 0
			for r, shard := range c.trace.shards {
				if !isOwnedList(shard, c.idx.ownedBy(r)) {
					t.Fatalf("NoAudit=%v: reducer %d published %v, not its owned list", noAudit, r, shard)
				}
				if len(shard) > 0 {
					worked++
				}
			}
			if worked < 2 {
				t.Fatalf("%d reducers with work, want two", worked)
			}
		}
	}
}

// TestReplacedShardIsComparedAgain replaces a shard that is its reducer's
// owned list after the run with a copy whose content differs in one entry:
// the shard is no longer the list the reducer compared its pairs with, so
// the audit compares it, takes the slow replay and names what the reference
// replay names.
func TestReplacedShardIsComparedAgain(t *testing.T) {
	sizes := []core.Size{3, 3, 2, 2, 4, 1, 2, 3}
	c, _ := executedEvents(t, Request{Name: "replaced", Schema: solveA2A(t, sizes, 10), Inputs: makeInputs(sizes), Pair: pairIDs})
	var worked []int
	for r, log := range c.trace.shards {
		if len(log) > 0 {
			worked = append(worked, r)
		}
	}
	if len(worked) < 2 {
		t.Fatalf("%d reducers with work, want two", len(worked))
	}
	r, other := worked[0], worked[1]
	if !isOwnedList(c.trace.shards[r], c.idx.ownedBy(r)) {
		t.Fatalf("reducer %d's shard is not its owned list before the replacement", r)
	}
	replaced := slices.Clone(c.trace.shards[r])
	replaced[0] = c.trace.shards[other][0] // other's pair twice, r's first pair never
	c.trace.shards[r] = replaced
	want, slow, err := assertVerdictsAgree(t, c.idx, c.schema.NumReducers(), eventsOf(c.trace))
	if slow != 1 || !errors.Is(err, ErrDuplicatePair) || !errors.Is(err, ErrUncoveredPair) || len(want) != 2 {
		t.Fatalf("verdict %v from %d slow replays; want one duplicate and one uncovered pair from one", want, slow)
	}
	before := obsSlowReplays.Value()
	if got := violationKeys(t, c.idx.checkTrace(c.trace)); !reflect.DeepEqual(got, want) || obsSlowReplays.Value()-before != 1 {
		t.Fatalf("the run's own trace: verdict %v, want %v from one slow replay", got, want)
	}
}

// TestFirstSightingsRaceToElect runs one schema no Compiler has seen through
// one fresh Compiler from eight goroutines at once, three times each: the
// first sightings build their elections lazily inside their runs while the
// second sightings force and share them, so under -race this shakes out
// unguarded access to the index's lazy state. Every run must be audited
// clean with the output of a run compiled on its own.
func TestFirstSightingsRaceToElect(t *testing.T) {
	sizes := make([]core.Size, 120)
	for i := range sizes {
		sizes[i] = 2
	}
	req := Request{Name: "race", Schema: solveA2A(t, sizes, 25), Inputs: makeInputs(sizes), Pair: pairIDs}
	ref, err := Run(req)
	if err != nil {
		t.Fatal(err)
	}
	req.Compiler = NewCompiler()
	slow := obsSlowReplays.Value()
	const goroutines, rounds = 8, 3
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				res, err := Run(req)
				switch {
				case err != nil:
					errs[g] = err
				case !res.Audited || !reflect.DeepEqual(res.Output, ref.Output):
					errs[g] = fmt.Errorf("goroutine %d: audited=%v, output drifted from the uncached run", g, res.Audited)
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
	if got := obsSlowReplays.Value() - slow; got != 0 {
		t.Fatalf("%d slow replays, want 0", got)
	}
}

// TestForeignCopiesFailTheRun hands reducer 0 copies that are not its schema
// members — one input more, or one less — through a route that differs from
// the schema's in that one place: the run fails with an error naming the
// reducer instead of electing pairs from a bitmap that does not describe its
// copies.
func TestForeignCopiesFailTheRun(t *testing.T) {
	for _, tc := range []struct {
		name  string
		input int // the input whose route to reducer 0 is changed
	}{
		{"extra copy", 3}, // input 3 is not a member of reducer 0
		{"missing copy", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ms, set := validSchema(t)
			c, err := compile(Request{Name: "foreign", Schema: ms, Inputs: makeInputs(set.Sizes()), Pair: pairIDs})
			if err != nil {
				t.Fatal(err)
			}
			job := c.job()
			route := job.route
			job.route = func(i int) []int {
				if i != tc.input {
					return route(i)
				}
				if rs := route(i); rs[0] != 0 {
					return append([]int{0}, rs...)
				}
				return route(i)[1:]
			}
			job.capacity = 0 // the extra copy is over reducer 0's load; let it reach the reducer
			_, err = runJob(&c.req, job, &c.in)
			if !errors.Is(err, errForeignCopies) || !strings.Contains(err.Error(), "reducer 0") {
				t.Fatalf("err = %v, want %v naming reducer 0", err, errForeignCopies)
			}
		})
	}
}
