package exec

// Tests of owner election by class and of what reducers publish.

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

// electedByClass lists the pairs reducer r's class bitmap elects, in the
// order a compiled reducer processes them.
func electedByClass(idx *schemaIndex, r int) []pairEntry {
	e := idx.election(r)
	var out []pairEntry
	for i, a := range e.a {
		row := e.row(i, e.bits)
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
// the pairs its owned blocks expand to.
func TestClassElectionMatchesRows(t *testing.T) {
	sawDouble, sawSingletons := false, false
	for _, tc := range portfolioInstances(t) {
		idx, err := newSchemaIndex(tc.schema, tc.sh)
		if err != nil {
			t.Fatal(err)
		}
		if err := idx.preCheck(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for r := range tc.schema.Reducers {
			got, want := electedByClass(idx, r), electedByRows(idx, r)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: reducer %d elects %v by class, %v by rows", tc.name, r, got, want)
			}
			if owned := ownedList(idx, r); !slices.Equal(got, owned) {
				t.Fatalf("%s: reducer %d elects %v, its owned blocks expand to %v", tc.name, r, got, owned)
			}
		}
		sawDouble = sawDouble || doublyCovered(idx)
		sawSingletons = sawSingletons || onlySingletons(idx)
	}
	if !sawDouble || !sawSingletons {
		t.Fatalf("sample lacks a doubly covered pair (%v) or a schema of singleton classes only (%v)", sawDouble, sawSingletons)
	}
}

// TestCleanRunSetsTheCleanFlags checks that a clean run stores nothing per
// pair, audited or not and compiled for the run or taken from a Compiler:
// every reducer sets its clean flag and publishes no log.
func TestCleanRunSetsTheCleanFlags(t *testing.T) {
	sizes := []core.Size{3, 3, 2, 2, 4, 1, 2, 3}
	ms := solveA2A(t, sizes, 10)
	cp := NewCompiler()
	for _, noAudit := range []bool{false, true} {
		for _, compiler := range []*Compiler{nil, cp, cp} { // cp's second sighting retains the index
			c, _ := executedEvents(t, Request{Name: "clean", Schema: ms, Inputs: makeInputs(sizes), Pair: pairIDs, NoAudit: noAudit, Compiler: compiler})
			worked := 0
			for r, shard := range c.trace.shards {
				if !c.trace.clean[r] || shard != nil {
					t.Fatalf("NoAudit=%v: reducer %d published clean=%v and %v, want a clean flag and no log", noAudit, r, c.trace.clean[r], shard)
				}
				if c.idx.election(r).pairs > 0 {
					worked++
				}
			}
			if worked < 2 {
				t.Fatalf("%d reducers with work, want two", worked)
			}
			if got, want := c.trace.pairs(c.idx), int64(len(sizes)*(len(sizes)-1)/2); got != want {
				t.Fatalf("NoAudit=%v: the trace counts %d pairs, want %d", noAudit, got, want)
			}
		}
	}
}

// TestReplacedShardIsComparedAgain replaces a clean reducer's outcome after
// the run with a log of its owned pairs that differs in one entry, clean
// flag cleared: the audit compares the log with the reducer's owned pairs,
// takes the slow replay and names what the reference replay names. A
// fabricated empty shard is no clean flag either: it is compared, and names
// the reducer's pairs as never processed.
func TestReplacedShardIsComparedAgain(t *testing.T) {
	sizes := []core.Size{3, 3, 2, 2, 4, 1, 2, 3}
	c, _ := executedEvents(t, Request{Name: "replaced", Schema: solveA2A(t, sizes, 10), Inputs: makeInputs(sizes), Pair: pairIDs})
	var worked []int
	for r := range c.trace.shards {
		if c.idx.election(r).pairs > 0 {
			worked = append(worked, r)
		}
	}
	if len(worked) < 2 {
		t.Fatalf("%d reducers with work, want two", len(worked))
	}
	r, other := worked[0], worked[1]
	if !c.trace.clean[r] {
		t.Fatalf("reducer %d is not clean before the replacement", r)
	}
	replaced := ownedList(c.idx, r)
	replaced[0] = ownedList(c.idx, other)[0] // other's pair twice, r's first pair never
	c.trace.clean[r], c.trace.shards[r] = false, replaced
	want, slow, err := assertVerdictsAgree(t, c.idx, c.schema.NumReducers(), eventsOf(c.idx, c.trace))
	if slow != 1 || !errors.Is(err, ErrDuplicatePair) || !errors.Is(err, ErrUncoveredPair) || len(want) != 2 {
		t.Fatalf("verdict %v from %d slow replays; want one duplicate and one uncovered pair from one", want, slow)
	}
	before := obsSlowReplays.Value()
	if got := violationKeys(t, c.idx.checkTrace(c.trace)); !reflect.DeepEqual(got, want) || obsSlowReplays.Value()-before != 1 {
		t.Fatalf("the run's own trace: verdict %v, want %v from one slow replay", got, want)
	}

	c.trace.shards[r] = []pairEntry{}
	before = obsSlowReplays.Value()
	got := violationKeys(t, c.idx.checkTrace(c.trace))
	if obsSlowReplays.Value()-before != 1 || len(got) != c.idx.election(r).pairs || !errors.Is(c.idx.replay(c.trace), ErrUncoveredPair) {
		t.Fatalf("an empty shard: verdict %v, want reducer %d's %d pairs never processed, from one slow replay", got, r, c.idx.election(r).pairs)
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
