package a2a

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/core"
)

func TestPlaneOrdersAreThePrimePowersUpTo64(t *testing.T) {
	want := []int{2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43, 47, 49, 53, 59, 61, 64}
	if !slices.Equal(planeOrders, want) {
		t.Fatalf("planeOrders = %v, want %v", planeOrders, want)
	}
}

// TestGFFieldAxioms checks every order's tables against the field axioms,
// exhaustively: closure, commutativity, associativity and distributivity over
// every triple, 0 and 1 as identities, and an additive inverse for every
// element and a multiplicative one for every non-zero element.
func TestGFFieldAxioms(t *testing.T) {
	for _, n := range planeOrders {
		f := planeFields()[n]
		add := func(a, b int) int { return int(f.add[a*n+b]) }
		mul := func(a, b int) int { return int(f.mul[a*n+b]) }
		for a := 0; a < n; a++ {
			if add(a, 0) != a || mul(a, 1) != a || mul(a, 0) != 0 {
				t.Fatalf("GF(%d): identities fail at %d", n, a)
			}
			negs, invs := 0, 0
			for b := 0; b < n; b++ {
				if add(a, b) >= n || mul(a, b) >= n {
					t.Fatalf("GF(%d): %d, %d leaves the field", n, a, b)
				}
				if add(a, b) != add(b, a) || mul(a, b) != mul(b, a) {
					t.Fatalf("GF(%d): not commutative at %d, %d", n, a, b)
				}
				if add(a, b) == 0 {
					negs++
				}
				if mul(a, b) == 1 {
					invs++
				}
				for c := 0; c < n; c++ {
					if add(add(a, b), c) != add(a, add(b, c)) || mul(mul(a, b), c) != mul(a, mul(b, c)) {
						t.Fatalf("GF(%d): not associative at %d, %d, %d", n, a, b, c)
					}
					if mul(a, add(b, c)) != add(mul(a, b), mul(a, c)) {
						t.Fatalf("GF(%d): not distributive at %d, %d, %d", n, a, b, c)
					}
				}
			}
			if negs != 1 || (a != 0 && invs != 1) || (a == 0 && invs != 0) {
				t.Fatalf("GF(%d): %d has %d additive and %d multiplicative inverses", n, a, negs, invs)
			}
		}
	}
}

// TestAffinePlaneLinesAreADesign checks, for every order, that the n(n+1)
// lines hold n distinct points each, ascending, that every point lies on n+1
// of them, and that every pair of points lies on exactly one.
func TestAffinePlaneLinesAreADesign(t *testing.T) {
	for _, n := range planeOrders {
		points := n * n
		pairIndex := func(i, j int) int { return i*(2*points-i-1)/2 + (j - i - 1) }
		covered := core.NewCoverSet(points * (points - 1) / 2)
		onLines := make([]int, points)
		lines := 0
		for line := range planeFields()[n].lines() {
			lines++
			if len(line) != n {
				t.Fatalf("order %d: line %d has %d points", n, lines, len(line))
			}
			for a, p := range line {
				if p < 0 || p >= points || (a > 0 && line[a-1] >= p) {
					t.Fatalf("order %d: line %v is not ascending points of the plane", n, line)
				}
				onLines[p]++
				for _, o := range line[a+1:] {
					if pi := pairIndex(p, o); covered.Contains(pi) {
						t.Fatalf("order %d: points %d and %d lie on two lines", n, p, o)
					} else {
						covered.Add(pi)
					}
				}
			}
		}
		if lines != n*(n+1) {
			t.Fatalf("order %d: %d lines, want %d", n, lines, n*(n+1))
		}
		if got := covered.Count(); got != covered.Len() {
			t.Fatalf("order %d: %d of %d pairs of points share a line", n, got, covered.Len())
		}
		for p, c := range onLines {
			if c != n+1 {
				t.Fatalf("order %d: point %d lies on %d lines, want %d", n, p, c, n+1)
			}
		}
	}
}

// TestPlanePriceMatchesConstructionSweep builds the plane of every order that
// fits each (m, k) of a sweep over m <= 3,000 and k <= 200, and holds the
// closed-form price to the schema: reducers, communication, and members
// ascending within k.
func TestPlanePriceMatchesConstructionSweep(t *testing.T) {
	sweepM := []int{3, 4, 5, 6, 7, 9, 10, 12, 16, 17, 20, 24, 25, 31, 36, 49, 50, 64, 65, 80, 81, 100, 121, 127,
		169, 200, 250, 256, 289, 300, 400, 500, 729, 1000, 2999, 3000}
	sweepK := []int{2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 20, 25, 31, 32, 50, 62, 64, 99, 100, 128, 199, 200}
	built := 0
	for _, m := range sweepM {
		set, _ := core.UniformInputSet(m, 1)
		for _, k := range sweepK {
			// Past 500 inputs every order's schema is large: a few k suffice.
			if k >= m || m > 500 && k != 7 && k != 100 && k != 199 {
				continue
			}
			q := core.Size(k)
			for _, n := range planeOrders {
				pr, fits := pricePlane(m, k, n)
				if !fits {
					continue
				}
				built++
				ms := binsOnBlocks(set, q, planeAlgorithm, pr.s, pr.reducers, planeFields()[n].lines())
				cost := core.SchemaCost(ms, set.TotalSize())
				if cost.Reducers != pr.reducers || int(cost.Communication) != pr.copies {
					t.Fatalf("m=%d k=%d n=%d: built %d reducers and %d copies, priced %d and %d",
						m, k, n, cost.Reducers, cost.Communication, pr.reducers, pr.copies)
				}
				for r, red := range ms.Reducers {
					if len(red.Inputs) < 2 || len(red.Inputs) > k || red.Load != core.Size(len(red.Inputs)) {
						t.Fatalf("m=%d k=%d n=%d: reducer %d is %v (load %d)", m, k, n, r, red.Inputs, red.Load)
					}
					for i := 1; i < len(red.Inputs); i++ {
						if red.Inputs[i-1] >= red.Inputs[i] {
							t.Fatalf("m=%d k=%d n=%d: reducer %d is not strictly ascending: %v", m, k, n, r, red.Inputs)
						}
					}
				}
			}
		}
	}
	if built < 1000 {
		t.Fatalf("only %d (m, k, order) combinations fit; the sweep does not exercise the price", built)
	}
}

// TestAffinePlaneBuildsTheCheapestOrder holds AffinePlane to the order
// bestPlane picks, and to validity, wherever one fits.
func TestAffinePlaneBuildsTheCheapestOrder(t *testing.T) {
	built := 0
	for m := 3; m <= 300; m += 7 {
		for _, w := range []core.Size{1, 3} {
			for k := 2; k <= 40 && k < m; k++ {
				set, _ := core.UniformInputSet(m, w)
				q := core.Size(k)*w + w/2
				ms, err := AffinePlane(set, q)
				pr, ok := bestPlane(m, k)
				if !ok {
					if !errors.Is(err, errNoPlaneOrder) {
						t.Fatalf("m=%d w=%d q=%d: no order fits, AffinePlane says %v", m, w, q, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("m=%d w=%d q=%d: %v", m, w, q, err)
				}
				built++
				cost := core.SchemaCost(ms, set.TotalSize())
				if cost.Reducers != pr.reducers || cost.Communication != core.Size(pr.copies)*w {
					t.Fatalf("m=%d w=%d q=%d: built %d reducers shipping %d, order %d prices %d and %d copies",
						m, w, q, cost.Reducers, cost.Communication, pr.n, pr.reducers, pr.copies)
				}
				if err := ms.ValidateA2A(set); err != nil {
					t.Fatalf("m=%d w=%d q=%d: %v", m, w, q, err)
				}
			}
		}
	}
	if built == 0 {
		t.Fatal("no instance of the sweep fits a plane")
	}
}

// TestAffinePlaneMeetsTheBoundOnAG24 pins m = 80, k = 20: n = 4, s = 5 fills
// all 16 points, and the 20 lines ship each input 5 times — the lower bound
// on both counts — where EqualSized's groups of 10 need C(8,2) = 28.
func TestAffinePlaneMeetsTheBoundOnAG24(t *testing.T) {
	set, _ := core.UniformInputSet(80, 1)
	ms, err := Solve(set, 20)
	if err != nil {
		t.Fatal(err)
	}
	if ms.Algorithm != planeAlgorithm {
		t.Fatalf("Solve chose %q, want %q", ms.Algorithm, planeAlgorithm)
	}
	cost := core.SchemaCost(ms, set.TotalSize())
	lb := EqualSizedLowerBound(80, 1, 20)
	if cost.Reducers != 20 || cost.ReplicationRate != 5 || cost.Reducers != lb.Reducers || cost.ReplicationRate != lb.Replication {
		t.Fatalf("reducers %d, replication %v; want 20 and 5, the bound (%d, %v)", cost.Reducers, cost.ReplicationRate, lb.Reducers, lb.Replication)
	}
	if n, _ := EqualSizedReducerCount(80, 1, 20); n != 28 {
		t.Fatalf("EqualSized counts %d reducers, want 28", n)
	}
}

// TestAffinePlaneOnTheExecJoinShape: 1,500 inputs at k = 100 take the plane
// of order 16 (250 bins of 6 on 256 points): 272 reducers, 17 copies each.
func TestAffinePlaneOnTheExecJoinShape(t *testing.T) {
	set, _ := core.UniformInputSet(1500, 16)
	ms, err := Solve(set, 1600)
	if err != nil {
		t.Fatal(err)
	}
	cost := core.SchemaCost(ms, set.TotalSize())
	if ms.Algorithm != planeAlgorithm || cost.Reducers != 272 || cost.ReplicationRate != 17 {
		t.Fatalf("%s: %d reducers, replication %v; want %s, 272 and 17", ms.Algorithm, cost.Reducers, cost.ReplicationRate, planeAlgorithm)
	}
	if pl, _ := bestPlane(1500, 100); pl.n != 16 || pl.s != 6 {
		t.Fatalf("best order %d with bins of %d, want 16 and 6", pl.n, pl.s)
	}
}

// TestSolveTakesThePlanePlusARemainder: the benchmark's equal-sized planning
// regime (m near 2,000, k = 62) and the golden a2a-equal-m120 shape (k = 8)
// have more bins than any plane that fits k has points. They take the plane
// plus a remainder, with about half of EqualSized's reducers at k = 62. At
// m = 2,000 that is AG(2,31) over 1,922 inputs (992 lines), a grid of bins
// of 26 remainder inputs beside bins of 36 main ones (3 × 54) and EqualSized
// on the 78 remainder inputs (3).
func TestSolveTakesThePlanePlusARemainder(t *testing.T) {
	for _, tc := range []struct {
		m                   int
		q                   core.Size
		reducers, groupings int
	}{{1950, 62, 1049, 1953}, {2000, 62, 1157, 2080}, {2049, 62, 1262, 2211}, {120, 8, 367, 435}} {
		set, _ := core.UniformInputSet(tc.m, 1)
		ms, err := Solve(set, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		groups, _ := EqualSized(set, tc.q)
		cost, base := core.SchemaCost(ms, set.TotalSize()), core.SchemaCost(groups, set.TotalSize())
		if ms.Algorithm != planeRemainderAlgorithm || cost.Reducers != tc.reducers || base.Reducers != tc.groupings ||
			cost.Communication >= base.Communication {
			t.Errorf("m=%d q=%d: %s with %d reducers shipping %d, EqualSized %d shipping %d; want %s with %d, EqualSized %d",
				tc.m, tc.q, ms.Algorithm, cost.Reducers, cost.Communication, base.Reducers, base.Communication,
				planeRemainderAlgorithm, tc.reducers, tc.groupings)
		}
	}
}

func TestAffinePlaneErrors(t *testing.T) {
	if _, err := AffinePlane(core.MustNewInputSet([]core.Size{1, 2, 1}), 10); !errors.Is(err, ErrNotEqualSized) {
		t.Errorf("mixed sizes: %v, want ErrNotEqualSized", err)
	}
	two, _ := core.UniformInputSet(2, 3)
	if _, err := AffinePlane(two, 5); !errors.Is(err, core.ErrInfeasible) {
		t.Errorf("two inputs over q: %v, want ErrInfeasible", err)
	}
	// k = 2 leaves only the order 2, whose 4 points hold at most 4 inputs.
	many, _ := core.UniformInputSet(5, 1)
	if _, err := AffinePlane(many, 2); !errors.Is(err, errNoPlaneOrder) {
		t.Errorf("5 inputs at k = 2: %v, want errNoPlaneOrder", err)
	}
	for _, tc := range []struct {
		m    int
		q    core.Size
		want int
	}{{1, 4, 0}, {3, 4, 1}} {
		set, _ := core.UniformInputSet(tc.m, 1)
		if ms, err := AffinePlane(set, tc.q); err != nil || ms.NumReducers() != tc.want {
			t.Errorf("m=%d q=%d: %v, %v; want %d reducers", tc.m, tc.q, ms, err, tc.want)
		}
	}
}

// TestTripleCoverMatchesPerTripleReference rebuilds TripleCover the way it
// was written before it went through binsOnBlocks — one AddReducerA2A per
// triple with two or more real inputs — and expects the same schema.
func TestTripleCoverMatchesPerTripleReference(t *testing.T) {
	for m := 3; m <= 60; m++ {
		sizes := make([]core.Size, m)
		for i := range sizes {
			sizes[i] = core.Size(26 + i%5)
		}
		set := core.MustNewInputSet(sizes)
		got, err := TripleCover(set, 90)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		want := &core.MappingSchema{Problem: core.ProblemA2A, Capacity: 90, Algorithm: "a2a/triple-cover"}
		for _, tr := range boseTriples(paddedPoints(m)) {
			var ids []int
			for _, p := range tr {
				if p < m {
					ids = append(ids, p)
				}
			}
			if len(ids) >= 2 {
				want.AddReducerA2A(set, ids)
			}
		}
		if got.NumReducers() != want.NumReducers() {
			t.Fatalf("m=%d: %d reducers, reference %d", m, got.NumReducers(), want.NumReducers())
		}
		for r := range got.Reducers {
			if !slices.Equal(got.Reducers[r].Inputs, want.Reducers[r].Inputs) || got.Reducers[r].Load != want.Reducers[r].Load {
				t.Fatalf("m=%d: reducer %d is %v, reference %v", m, r, got.Reducers[r], want.Reducers[r])
			}
		}
	}
}
