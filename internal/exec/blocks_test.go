package exec

// Tests of ownership by class block: the owned blocks' expansions and
// PreCheck's verdicts against the per-pair owner sweep the blocks replaced,
// kept here as the reference.

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/a2a"
	"repro/internal/core"
	"repro/internal/workload"
	"repro/internal/x2y"
)

// ownedList expands every pair of reducer r's owned blocks, however many
// its pair count says there are.
func ownedList(idx *schemaIndex, r int) []pairEntry {
	return idx.expand(nil, r, idx.requiredPairCount()+1)
}

// sweptPairIndex maps a required pair to its dense offset: the strictly-upper
// triangle for A2A (i < j), the full grid for X2Y.
func sweptPairIndex(idx *schemaIndex, i, j int) int {
	if idx.schema.Problem == core.ProblemA2A {
		return i*(2*idx.numA-i-1)/2 + (j - i - 1)
	}
	return i*idx.numY + j
}

// sweptOwnedLists is the reference the owned blocks are held to, the
// per-pair sweep they replaced: scanning the reducers in ascending order, the
// first reducer containing a pair owns it. Every reducer's list holds its
// pairs in sorted-member order (members ascending and de-duplicated; for X2Y,
// X side outer and Y side inner). It also returns the set of covered pairs.
func sweptOwnedLists(idx *schemaIndex) ([][]pairEntry, *core.CoverSet) {
	covered := core.NewCoverSet(idx.requiredPairCount())
	lists := make([][]pairEntry, len(idx.schema.Reducers))
	for r, red := range idx.schema.Reducers {
		claim := func(i, j int) {
			if p := sweptPairIndex(idx, i, j); !covered.Contains(p) {
				covered.Add(p)
				lists[r] = append(lists[r], pairEntry{int32(i), int32(j)})
			}
		}
		if idx.schema.Problem == core.ProblemA2A {
			members := sortedMembers(red.Inputs)
			for a, i := range members {
				for _, j := range members[a+1:] {
					claim(i, j)
				}
			}
			continue
		}
		for _, x := range sortedMembers(red.XInputs) {
			for _, y := range sortedMembers(red.YInputs) {
				claim(x, y)
			}
		}
	}
	return lists, covered
}

// sweptPreCheck is PreCheck's verdict as the sweep gave it: every reducer
// over q, then every required pair the sweep left uncovered.
func sweptPreCheck(idx *schemaIndex, covered *core.CoverSet) error {
	var violations []Violation
	for r, red := range idx.schema.Reducers {
		if red.Load > idx.schema.Capacity {
			violations = append(violations, Violation{
				Err: ErrOverCapacity, Reducer: r, A: -1, B: -1,
				Detail: fmt.Sprintf("reducer %d declares load %d > q=%d", r, red.Load, idx.schema.Capacity),
			})
		}
	}
	idx.requiredPairs(func(i, j int) {
		if !covered.Contains(sweptPairIndex(idx, i, j)) {
			violations = append(violations, Violation{
				Err: ErrUncoveredPair, Reducer: -1, A: i, B: j,
				Detail: fmt.Sprintf("pair (%d,%d) shares no reducer", i, j),
			})
		}
	})
	if len(violations) > 0 {
		return &AuditError{Violations: violations}
	}
	return nil
}

// checkBlocksAgainstSweep holds the index to the reference sweep: every
// reducer's owned blocks expand to exactly its swept list, in order (whole,
// and cut to a prefix after other entries), its pair count is the list's
// length, and PreCheck's verdict is the sweep's.
func checkBlocksAgainstSweep(t *testing.T, name string, idx *schemaIndex) {
	t.Helper()
	lists, covered := sweptOwnedLists(idx)
	want := violationKeys(t, sweptPreCheck(idx, covered))
	if got := violationKeys(t, idx.preCheck()); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: PreCheck says %v, the sweep %v", name, got, want)
	}
	for r, list := range lists {
		if got := ownedList(idx, r); !slices.Equal(got, list) || idx.election(r).pairs != len(list) {
			t.Fatalf("%s: reducer %d's blocks expand to %v (%d pairs counted), the sweep gives it %v", name, r, got, idx.election(r).pairs, list)
		}
		for _, n := range []int{0, 1, len(list) / 2, len(list) - 1} { // a prefix, appended after n other entries
			if n < 0 || n > len(list) {
				continue
			}
			if got := idx.expand(list[:n:n], r, n); !slices.Equal(got[n:], list[:n]) {
				t.Fatalf("%s: reducer %d's first %d owned pairs expand to %v, want %v", name, r, n, got[n:], list[:n])
			}
		}
	}
}

// instance is one schema drawn from a member of the solver portfolio.
type instance struct {
	name   string
	schema *core.MappingSchema
	sh     shape
}

// portfolioInstances solves seeded workload draws with every member of the
// portfolio: a2a.Solve as the affine plane, the plane plus a remainder, a
// design over bins and BigSmallSplit, a2a.BinPackPair and a2a.TripleCover,
// a2a.Greedy and a2a.Exact, and x2y.Solve, x2y.Greedy and x2y.Exact. A
// schema a dispatch must take from a given construction is checked to come
// from it.
func portfolioInstances(t *testing.T) []instance {
	t.Helper()
	draw := func(spec workload.SizeSpec, m int, seed int64) *core.InputSet {
		set, err := workload.InputSet(spec, m, seed)
		if err != nil {
			t.Fatal(err)
		}
		return set
	}
	uniform := func(m int, min, max core.Size, seed int64) *core.InputSet {
		return draw(workload.SizeSpec{Dist: workload.Uniform, Min: min, Max: max}, m, seed)
	}
	var out []instance
	binnedDesigns := []string{"a2a/binned/triple-cover", "a2a/binned/plane-remainder", "a2a/binned/triple-cover"}
	add := func(name string, sh shape, member string, solve func() (*core.MappingSchema, error)) {
		ms, err := solve()
		if err != nil && !errors.Is(err, a2a.ErrNodeBudget) && !errors.Is(err, x2y.ErrNodeBudget) {
			t.Fatalf("%s: %v", name, err)
		}
		if member != "" && ms.Algorithm != member {
			t.Fatalf("%s: solved by %s, want %s", name, ms.Algorithm, member)
		}
		out = append(out, instance{name, ms, sh})
	}
	for _, c := range []struct {
		m, k   int
		member string
	}{
		{50, 10, "a2a/affine-plane"}, {120, 12, "a2a/affine-plane"},
		{40, 5, "a2a/plane-remainder"}, {100, 10, "a2a/plane-remainder"}, {50, 6, "a2a/plane-remainder"},
		{400, 100, ""}, // reducers of more than 64 members
	} {
		set := uniform(c.m, 2, 2, int64(c.m))
		add(fmt.Sprintf("a2a.Solve m=%d k=%d", c.m, c.k), shape{numA: c.m}, c.member,
			func() (*core.MappingSchema, error) { return a2a.Solve(set, core.Size(2*c.k+1)) })
	}
	for seed := int64(1); seed <= 3; seed++ {
		big, tiny := uniform(60, 1, 64, seed), uniform(8, 1, 9, seed)
		large := core.MustNewInputSet(append(uniform(39, 1, 40, seed).Sizes(), 55)) // one input above q/2
		medium := uniform(15, 8, 10, seed)
		xs, ys := uniform(30, 1, 40, seed), uniform(50, 1, 40, seed+10)
		txs, tys := uniform(4, 1, 9, seed), uniform(5, 1, 9, seed+10)
		add(fmt.Sprintf("a2a.BinPackPair seed=%d", seed), shape{numA: 60}, "a2a/bin-pack-pair/first-fit-decreasing",
			func() (*core.MappingSchema, error) { return a2a.BinPackPair(big, 256) })
		// Every input is at most q/3, so Solve lays the bins on a design.
		add(fmt.Sprintf("a2a.Solve binned seed=%d", seed), shape{numA: 60}, binnedDesigns[seed-1],
			func() (*core.MappingSchema, error) { return a2a.Solve(big, 256) })
		add(fmt.Sprintf("a2a.Solve big-small-split seed=%d", seed), shape{numA: 40}, "a2a/big-small-split/first-fit-decreasing",
			func() (*core.MappingSchema, error) { return a2a.Solve(large, 100) })
		add(fmt.Sprintf("a2a.TripleCover seed=%d", seed), shape{numA: 15}, "a2a/triple-cover",
			func() (*core.MappingSchema, error) { return a2a.TripleCover(medium, 30) })
		add(fmt.Sprintf("a2a.Greedy seed=%d", seed), shape{numA: 60}, "",
			func() (*core.MappingSchema, error) { return a2a.Greedy(big, 256) })
		add(fmt.Sprintf("a2a.Exact seed=%d", seed), shape{numA: 8}, "",
			func() (*core.MappingSchema, error) { return a2a.Exact(tiny, 20, a2a.ExactOptions{MaxNodes: 200_000}) })
		add(fmt.Sprintf("x2y.Solve seed=%d", seed), shape{numX: 30, numY: 50}, "",
			func() (*core.MappingSchema, error) { return x2y.Solve(xs, ys, 200) })
		add(fmt.Sprintf("x2y.Greedy seed=%d", seed), shape{numX: 30, numY: 50}, "",
			func() (*core.MappingSchema, error) { return x2y.Greedy(xs, ys, 200) })
		add(fmt.Sprintf("x2y.Exact seed=%d", seed), shape{numX: 4, numY: 5}, "",
			func() (*core.MappingSchema, error) {
				return x2y.Exact(txs, tys, 20, x2y.ExactOptions{MaxNodes: 200_000})
			})
	}
	wideX, wideY := uniform(40, 1, 4, 7), uniform(300, 1, 4, 8) // Y sides of more than 64 members
	add("x2y.Solve wide", shape{numX: 40, numY: 300}, "",
		func() (*core.MappingSchema, error) { return x2y.Solve(wideX, wideY, 400) })
	return out
}

// TestBlockOwnershipMatchesPairSweep holds the owned blocks to the reference
// sweep on schemas from every portfolio member and on corrupted ones: a
// member listed twice or out of order, an uncovered pair, and an X input and
// a Y input with one route, which share a class across the sides.
func TestBlockOwnershipMatchesPairSweep(t *testing.T) {
	cases := portfolioInstances(t)
	corrupt := func(name string, edit func(ms *core.MappingSchema)) {
		ms, _ := validSchema(t)
		edit(ms)
		cases = append(cases, instance{name, ms, shape{numA: 4}})
	}
	corrupt("member listed twice", func(ms *core.MappingSchema) { ms.Reducers[0].Inputs = []int{0, 1, 1, 2} })
	corrupt("members out of order", func(ms *core.MappingSchema) {
		ms.Reducers[0].Inputs = []int{2, 0, 1}
		ms.Reducers[2].Inputs = []int{3, 1}
	})
	corrupt("uncovered pair", func(ms *core.MappingSchema) { ms.Reducers[3] = core.Reducer{Inputs: []int{2}, Load: 2} })
	// X input 1 and Y input 0 are both held by reducers 0 and 1.
	oneRoute := &core.MappingSchema{Problem: core.ProblemX2Y, Capacity: 6, Reducers: []core.Reducer{
		{XInputs: []int{0, 1}, YInputs: []int{0}, Load: 3},
		{XInputs: []int{1}, YInputs: []int{0, 1}, Load: 3},
		{XInputs: []int{0}, YInputs: []int{1}, Load: 2},
	}}
	uncoveredX2Y := &core.MappingSchema{Problem: core.ProblemX2Y, Capacity: 6, Reducers: []core.Reducer{
		{XInputs: []int{0, 1}, YInputs: []int{0}, Load: 5},
		{XInputs: []int{0}, YInputs: []int{1}, Load: 3},
	}}
	cases = append(cases,
		instance{"an X input and a Y input with one route", oneRoute, shape{numX: 2, numY: 2}},
		instance{"uncovered X2Y pair", uncoveredX2Y, shape{numX: 2, numY: 2}})
	sawShared, sawWide := false, map[core.Problem]bool{}
	for _, tc := range cases {
		idx, err := newSchemaIndex(tc.schema, tc.sh)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkBlocksAgainstSweep(t, tc.name, idx)
		sawShared = sawShared || (tc.schema == oneRoute && idx.classOf[1] == idx.classOf[idx.numX])
		for r := range tc.schema.Reducers {
			sawWide[tc.schema.Problem] = sawWide[tc.schema.Problem] || len(idx.election(r).b) > 64
		}
	}
	if !sawShared || !sawWide[core.ProblemA2A] || !sawWide[core.ProblemX2Y] {
		t.Fatalf("X input 1 and Y input 0 share a class: %v; a reducer's B side spans more than one word, per problem: %v", sawShared, sawWide)
	}
}

// fuzzedIndex decodes an index over at most 12 inputs. The first byte picks
// the problem (its low bit) and the shape: 1 to 12 A2A inputs, or 1 to 6 per
// X2Y side. Every following run of bytes is a reducer: a header byte whose
// low three bits count its (X-side) members and, for X2Y, the next three its
// Y-side members, then one byte per member, taken modulo its side's size, so
// members repeat and come in any order. A reducer's load is its member
// count, against a capacity of 8.
func fuzzedIndex(t *testing.T, data []byte) *schemaIndex {
	if len(data) == 0 {
		return nil
	}
	x2yProblem := data[0]&1 == 1
	ms := &core.MappingSchema{Problem: core.ProblemA2A, Capacity: 8}
	sh := shape{numA: 1 + int(data[0]>>1)%12}
	if x2yProblem {
		ms.Problem, sh = core.ProblemX2Y, shape{numX: 1 + int(data[0]>>1)%6, numY: 1 + int(data[0]>>4)%6}
	}
	members := func(count, side int, rest []byte) ([]int, []byte) {
		ids := make([]int, 0, count)
		for ; count > 0 && len(rest) > 0; count-- {
			ids, rest = append(ids, int(rest[0])%side), rest[1:]
		}
		return ids, rest
	}
	for rest := data[1:]; len(rest) > 0; {
		h := rest[0]
		var red core.Reducer
		if x2yProblem {
			red.XInputs, rest = members(int(h&7), sh.numX, rest[1:])
			red.YInputs, rest = members(int(h>>3&7), sh.numY, rest)
		} else {
			red.Inputs, rest = members(int(h&7), sh.numA, rest[1:])
		}
		red.Load = core.Size(len(red.Inputs) + len(red.XInputs) + len(red.YInputs))
		ms.Reducers = append(ms.Reducers, red)
	}
	idx, err := newSchemaIndex(ms, sh)
	if err != nil {
		t.Fatalf("a fuzzed schema out of its shape: %v", err)
	}
	return idx
}

// FuzzBlockOwnership holds the owned blocks of random schemas over at most 12
// inputs to the reference sweep, as TestBlockOwnershipMatchesPairSweep does
// for the portfolio's.
func FuzzBlockOwnership(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{6, 3, 0, 1, 2, 2, 0, 3, 2, 1, 3, 2, 2, 3})            // validSchema
	f.Add([]byte{6, 4, 0, 1, 1, 2, 2, 0, 3, 2, 1, 3, 2, 2})            // a member twice, pair (2,3) uncovered
	f.Add([]byte{27, 0o12, 0, 1, 0, 0o21, 1, 0, 1, 0o11, 0, 1})        // X2Y 2 x 2: X input 1 and Y input 0 on one route
	f.Add([]byte{22, 3, 7, 1, 4, 3, 5, 6, 0, 4, 2, 3, 9, 5, 8, 2, 10}) // 12 inputs, members out of order
	f.Fuzz(func(t *testing.T, data []byte) {
		if idx := fuzzedIndex(t, data); idx != nil {
			checkBlocksAgainstSweep(t, fmt.Sprintf("%v", data), idx)
		}
	})
}

// TestSplitClassFailsTheCompile hands Run, through a Compiler, a copy of a
// valid schema's index whose class numbering merges inputs 0 and 3, whose
// routes differ: PreCheck must fail naming reducer 0, the first to hold one
// of them without the other, and no reducer may run.
func TestSplitClassFailsTheCompile(t *testing.T) {
	ms, set := validSchema(t)
	idx, err := newSchemaIndex(cloneSchema(ms), shape{numA: 4})
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(idx.routes[0], idx.routes[3]) {
		t.Fatalf("inputs 0 and 3 share the route %v", idx.routes[0])
	}
	idx.classOf[3] = idx.classOf[0]
	cp := NewCompiler()
	h := cp.hash(ms, idx.shape)
	cp.entries[h] = cp.order.PushFront(&cacheEntry{hash: h, idx: idx})
	calls := 0
	res, err := Run(Request{Name: "split", Schema: ms, Inputs: makeInputs(set.Sizes()), Compiler: cp,
		Pair: func(a, b Record, emit func([]byte)) error { calls++; return nil }})
	if !errors.Is(err, errSplitClass) || !strings.Contains(err.Error(), "reducer 0 holds") || res != nil || calls != 0 {
		t.Fatalf("run over a split class: result %v, %d pair calls, err %v; want %v naming reducer 0 and no run", res, calls, err, errSplitClass)
	}
	if err := (&Auditor{idx: idx}).PreCheck(); !errors.Is(err, errSplitClass) {
		t.Fatalf("PreCheck = %v, want %v", err, errSplitClass)
	}
}
