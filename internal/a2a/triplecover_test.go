package a2a

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestBoseTriplesAreASteinerSystem(t *testing.T) {
	for _, n := range []int{3, 9, 15, 21, 33} {
		triples := boseTriples(n)
		if want := n * (n - 1) / 6; len(triples) != want {
			t.Fatalf("n=%d: %d triples, want %d", n, len(triples), want)
		}
		// Every pair of points must be covered exactly once.
		counts := make(map[[2]int]int)
		for _, tr := range triples {
			for a := 0; a < 3; a++ {
				for b := a + 1; b < 3; b++ {
					i, j := tr[a], tr[b]
					if i == j {
						t.Fatalf("n=%d: triple %v repeats a point", n, tr)
					}
					if i > j {
						i, j = j, i
					}
					counts[[2]int{i, j}]++
				}
			}
			for _, p := range tr {
				if p < 0 || p >= n {
					t.Fatalf("n=%d: point %d out of range in %v", n, p, tr)
				}
			}
		}
		if len(counts) != n*(n-1)/2 {
			t.Fatalf("n=%d: %d distinct pairs covered, want %d", n, len(counts), n*(n-1)/2)
		}
		for pair, c := range counts {
			if c != 1 {
				t.Fatalf("n=%d: pair %v covered %d times", n, pair, c)
			}
		}
	}
}

func TestTripleCoverValidAndNearOneThirdOfPairs(t *testing.T) {
	// 99 inputs, every size in (q/4, q/3]: three fit, four do not.
	m := 99
	q := core.Size(100)
	sizes := make([]core.Size, m)
	for i := range sizes {
		sizes[i] = 28 + core.Size(i%6) // 28..33, all <= q/3=33, all > q/4=25
	}
	set := core.MustNewInputSet(sizes)
	ms, err := TripleCover(set, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.ValidateA2A(set); err != nil {
		t.Fatalf("ValidateA2A: %v", err)
	}
	pairs := m * (m - 1) / 2
	// The STS on m'=99 uses exactly pairs/3 triples; allow a little slack for
	// the padding when m' > m.
	if ms.NumReducers() > pairs/3+m {
		t.Errorf("triple cover used %d reducers, expected about %d", ms.NumReducers(), pairs/3)
	}
	// And it must beat one-pair-per-reducer by a wide margin.
	bpp, err := BinPackPair(set, q)
	if err != nil {
		t.Fatal(err)
	}
	if ms.NumReducers()*2 > bpp.NumReducers() {
		t.Errorf("triple cover %d reducers vs bin-pack-pair %d: expected ~3x fewer", ms.NumReducers(), bpp.NumReducers())
	}
}

func TestTripleCoverWithPadding(t *testing.T) {
	// m values that are not ≡ 3 (mod 6) exercise the virtual-point padding.
	for _, m := range []int{4, 5, 7, 10, 14, 20, 26} {
		set, _ := core.UniformInputSet(m, 3)
		q := core.Size(10)
		ms, err := TripleCover(set, q)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if err := ms.ValidateA2A(set); err != nil {
			t.Fatalf("m=%d invalid: %v", m, err)
		}
	}
}

func TestTripleCoverErrors(t *testing.T) {
	set := core.MustNewInputSet([]core.Size{40, 40, 40})
	if _, err := TripleCover(set, 100); !errors.Is(err, ErrTriplesDoNotFit) {
		t.Errorf("TripleCover = %v, want ErrTriplesDoNotFit", err)
	}
	infeasible := core.MustNewInputSet([]core.Size{60, 60})
	if _, err := TripleCover(infeasible, 100); !errors.Is(err, core.ErrInfeasible) {
		t.Errorf("TripleCover = %v, want ErrInfeasible", err)
	}
}

func TestTripleCoverDegenerate(t *testing.T) {
	single := core.MustNewInputSet([]core.Size{5})
	ms, err := TripleCover(single, 10)
	if err != nil || ms.NumReducers() != 0 {
		t.Errorf("single input: %d reducers, %v", ms.NumReducers(), err)
	}
	tiny := core.MustNewInputSet([]core.Size{2, 3, 4})
	ms, err = TripleCover(tiny, 100)
	if err != nil || ms.NumReducers() != 1 {
		t.Errorf("everything fits: %d reducers, %v", ms.NumReducers(), err)
	}
}

func TestSolvePicksTripleCoverInMediumRegime(t *testing.T) {
	// Equal sizes in (q/4, q/3]: the grouping algorithm degenerates to pairs,
	// so Solve must switch to the triple cover.
	set, _ := core.UniformInputSet(30, 30)
	q := core.Size(100)
	ms, err := Solve(set, q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ms.Algorithm, "triple-cover") {
		t.Errorf("algorithm = %q, want triple-cover dispatch", ms.Algorithm)
	}
	if err := ms.ValidateA2A(set); err != nil {
		t.Fatalf("ValidateA2A: %v", err)
	}
	grouping, err := EqualSized(set, q)
	if err != nil {
		t.Fatal(err)
	}
	if ms.NumReducers() >= grouping.NumReducers() {
		t.Errorf("triple cover %d reducers should beat grouping %d", ms.NumReducers(), grouping.NumReducers())
	}
}

func TestSolveKeepsPrimaryWhenTripleCoverLoses(t *testing.T) {
	// Tiny inputs: bins of q/2 hold many inputs, so bin-pack-pair wins and
	// Solve must not switch.
	set, _ := core.UniformInputSet(100, 1)
	ms, err := Solve(set, 64)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(ms.Algorithm, "triple-cover") {
		t.Errorf("triple cover should not be selected for tiny inputs (algorithm %q)", ms.Algorithm)
	}
	// Medium inputs whose three largest exceed q: TripleCover refuses them,
	// and Solve keeps its primary schema.
	set = core.MustNewInputSet([]core.Size{50, 40, 30, 30, 26})
	if ms, err = Solve(set, 100); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(ms.Algorithm, "triple-cover") || ms.ValidateA2A(set) != nil {
		t.Errorf("three largest above q: Solve built %q", ms.Algorithm)
	}
}

func TestTripleCoverRandomMediumInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 25; trial++ {
		m := 3 + rng.Intn(60)
		q := core.Size(90 + rng.Intn(60))
		sizes := make([]core.Size, m)
		for i := range sizes {
			// Sizes in (q/4, q/3].
			lo, hi := int64(q/4)+1, int64(q/3)
			sizes[i] = core.Size(lo + rng.Int63n(hi-lo+1))
		}
		set := core.MustNewInputSet(sizes)
		ms, err := TripleCover(set, q)
		if err != nil {
			t.Fatalf("m=%d q=%d: %v", m, q, err)
		}
		if err := ms.ValidateA2A(set); err != nil {
			t.Fatalf("m=%d q=%d invalid: %v", m, q, err)
		}
		lb := LowerBounds(set, q)
		if ms.NumReducers() < lb.Reducers {
			t.Fatalf("m=%d q=%d: %d reducers below bound %d", m, q, ms.NumReducers(), lb.Reducers)
		}
	}
}

// TestTripleCoverReducerCountMatchesConstruction holds the closed-form count
// Solve decides on to the construction, over every padding residue.
func TestTripleCoverReducerCountMatchesConstruction(t *testing.T) {
	for m := 3; m <= 200; m++ {
		set, _ := core.UniformInputSet(m, 1)
		ms, err := TripleCover(set, 3)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if got := tripleCoverReducers(m); got != ms.NumReducers() {
			t.Errorf("m=%d: counted %d reducers, TripleCover built %d", m, got, ms.NumReducers())
		}
	}
}

// TestCheckTriplesFitSumsTheThreeLargest compares the one-pass selection with
// a full sort, duplicates and sets of fewer than three inputs included.
func TestCheckTriplesFitSumsTheThreeLargest(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		sizes := make([]core.Size, 1+rng.Intn(8))
		for i := range sizes {
			sizes[i] = core.Size(1 + rng.Intn(6))
		}
		set := core.MustNewInputSet(sizes)
		var sum core.Size
		for i, id := range set.IDsBySizeDescending() {
			if i < 3 {
				sum += set.Size(id)
			}
		}
		if err := checkTriplesFit(set, sum); err != nil {
			t.Fatalf("sizes=%v q=%d: %v", sizes, sum, err)
		}
		if err := checkTriplesFit(set, sum-1); !errors.Is(err, ErrTriplesDoNotFit) {
			t.Fatalf("sizes=%v q=%d: err = %v, want ErrTriplesDoNotFit", sizes, sum-1, err)
		}
	}
}

// refSolve is Solve as it was before it counted first, over the given
// dispatch between the constructive algorithms (solvePrimary, or a
// reference of it): the triple cover is built whenever it applies and then
// compared.
func refSolve(set *core.InputSet, q core.Size, primaryOf func(*core.InputSet, core.Size) (*core.MappingSchema, error)) (*core.MappingSchema, error) {
	if err := CheckFeasible(set, q); err != nil {
		return nil, err
	}
	if set.Len() <= 1 {
		return emptySchema(q, "a2a/solve"), nil
	}
	if set.TotalSize() <= q {
		return singleReducer(set, q, "a2a/single-reducer"), nil
	}
	primary, err := primaryOf(set, q)
	if err != nil {
		return nil, err
	}
	if set.Len() >= 3 && checkTriplesFit(set, q) == nil && set.MaxSize() > q/4 {
		triple, err := TripleCover(set, q)
		if err == nil && betterSchema(triple, primary, set) {
			return triple, nil
		}
	}
	return primary, nil
}

// TestSolveMatchesBuildBothReference: skipping the triple cover on its count
// never changes which schema Solve returns — in the medium regime where the
// cover wins, around its boundary, and on the benchmark's regime shapes.
func TestSolveMatchesBuildBothReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	triples := 0
	check := func(set *core.InputSet, q core.Size) {
		t.Helper()
		got, gotErr := Solve(set, q)
		want, wantErr := refSolve(set, q, solvePrimary)
		if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
			t.Fatalf("sizes=%v q=%d: Solve differs from the build-both reference (err %v, reference %v)",
				set.Sizes(), q, gotErr, wantErr)
		}
		if got != nil && got.Algorithm == "a2a/triple-cover" {
			triples++
		}
	}
	for trial := 0; trial < 400; trial++ {
		// Sizes between q/8 and q/2 put about half the draws in the medium
		// regime and the rest on either side of it.
		q := core.Size(24 + rng.Intn(100))
		sizes := make([]core.Size, 3+rng.Intn(30))
		lo, hi := q/8, q/3
		if trial%2 == 1 {
			lo, hi = q/4+1, q/3
		}
		for i := range sizes {
			sizes[i] = lo + core.Size(rng.Int63n(int64(hi-lo)+1))
		}
		check(core.MustNewInputSet(sizes), q)
	}
	for trial := 0; trial < 16; trial++ {
		check(regimeInstance(rng, trial%4))
	}
	if triples == 0 {
		t.Error("the triple cover never won; the medium regime was not exercised")
	}
}
