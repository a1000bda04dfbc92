package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// refValidateA2A is ValidateA2A as it was before it covered by rows: one bit
// per member pair in a dense triangle, then a look at every pair. It defines
// which error ValidateA2A returns, for which reducer, naming which pair.
func refValidateA2A(ms *MappingSchema, set *InputSet) error {
	if ms.Problem != ProblemA2A {
		return fmt.Errorf("core: ValidateA2A called on %v schema", ms.Problem)
	}
	m := set.Len()
	covered := newPairSet(m)
	for r, red := range ms.Reducers {
		if red.Load > ms.Capacity {
			return fmt.Errorf("%w: reducer %d records load %d > q=%d", ErrCapacityExceeded, r, red.Load, ms.Capacity)
		}
		for _, id := range red.Inputs {
			if id < 0 || id >= m {
				return fmt.Errorf("%w: reducer %d references input %d (set has %d inputs)", ErrUnknownInput, r, id, m)
			}
		}
		var load Size
		for _, id := range red.Inputs {
			load += set.Size(id)
		}
		if load > ms.Capacity {
			return fmt.Errorf("%w: reducer %d holds %d > q=%d", ErrCapacityExceeded, r, load, ms.Capacity)
		}
		for i := 0; i < len(red.Inputs); i++ {
			for j := i + 1; j < len(red.Inputs); j++ {
				covered.add(red.Inputs[i], red.Inputs[j])
			}
		}
	}
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			if !covered.has(i, j) {
				return fmt.Errorf("%w: pair (%d,%d)", ErrPairUncovered, i, j)
			}
		}
	}
	return nil
}

// refValidateX2Y is ValidateX2Y as it was before it shared ValidateA2A's
// rows: one byte per (x, y) pair, each member pair stored one at a time, then
// a look at every pair. It defines which error ValidateX2Y returns, for which
// reducer, naming which pair.
func refValidateX2Y(ms *MappingSchema, xs, ys *InputSet) error {
	if ms.Problem != ProblemX2Y {
		return fmt.Errorf("core: ValidateX2Y called on %v schema", ms.Problem)
	}
	nx, ny := xs.Len(), ys.Len()
	covered := make([]bool, nx*ny)
	for r, red := range ms.Reducers {
		if red.Load > ms.Capacity {
			return fmt.Errorf("%w: reducer %d records load %d > q=%d", ErrCapacityExceeded, r, red.Load, ms.Capacity)
		}
		var load Size
		for _, id := range red.XInputs {
			if id < 0 || id >= nx {
				return fmt.Errorf("%w: reducer %d references X input %d (set has %d inputs)", ErrUnknownInput, r, id, nx)
			}
			load += xs.Size(id)
		}
		for _, id := range red.YInputs {
			if id < 0 || id >= ny {
				return fmt.Errorf("%w: reducer %d references Y input %d (set has %d inputs)", ErrUnknownInput, r, id, ny)
			}
			load += ys.Size(id)
		}
		if load > ms.Capacity {
			return fmt.Errorf("%w: reducer %d holds %d > q=%d", ErrCapacityExceeded, r, load, ms.Capacity)
		}
		for _, x := range red.XInputs {
			for _, y := range red.YInputs {
				covered[x*ny+y] = true
			}
		}
	}
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			if !covered[x*ny+y] {
				return fmt.Errorf("%w: pair (x=%d, y=%d)", ErrPairUncovered, x, y)
			}
		}
	}
	return nil
}

// validationKinds are the errors the validators tell apart.
var validationKinds = []error{ErrUnknownInput, ErrCapacityExceeded, ErrPairUncovered}

// sameVerdict reports how the validator's verdict got differs from the
// reference's want, in outcome, kind or text, or "" when they agree.
func sameVerdict(got, want error) string {
	if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
		return fmt.Sprintf("got %v, the reference says %v", got, want)
	}
	for _, kind := range validationKinds {
		if errors.Is(got, kind) != errors.Is(want, kind) {
			return fmt.Sprintf("got %v and the reference's %v differ in kind", got, want)
		}
	}
	return ""
}

// verdictKind names the verdict for the tests' tallies.
func verdictKind(err error) string {
	for _, kind := range validationKinds {
		if errors.Is(err, kind) {
			return kind.Error()
		}
	}
	if err == nil {
		return "valid"
	}
	return err.Error()
}

// drawSizes draws n sizes in [1, 30], heavy-tailed toward 1 like the shape
// workload.Sizes draws for the benchmarks, or uniform.
func drawSizes(rng *rand.Rand, n int, heavyTailed bool) []Size {
	zipf := rand.NewZipf(rng, 1.5, 1, 29)
	sizes := make([]Size, n)
	for i := range sizes {
		if heavyTailed {
			sizes[i] = 1 + Size(zipf.Uint64())
		} else {
			sizes[i] = 1 + Size(rng.Intn(30))
		}
	}
	return sizes
}

// drawGroups deals the inputs, in random order, into groups of total size at
// most room, as the solvers' packers do.
func drawGroups(rng *rand.Rand, sizes []Size, room Size) [][]int {
	var groups [][]int
	var left Size
	for _, id := range rng.Perm(len(sizes)) {
		if len(groups) == 0 || sizes[id] > left {
			groups, left = append(groups, nil), room
		}
		groups[len(groups)-1] = append(groups[len(groups)-1], id)
		left -= sizes[id]
	}
	return groups
}

// drawA2A builds a covering A2A schema the way the solvers do (groups of at
// most q/2, one reducer per pair of groups) over m drawn sizes.
func drawA2A(rng *rand.Rand, m int, heavyTailed bool) (*MappingSchema, *InputSet) {
	sizes := drawSizes(rng, m, heavyTailed)
	set := MustNewInputSet(sizes)
	q := Size(60 + rng.Intn(200))
	groups := drawGroups(rng, sizes, q/2)
	ms := &MappingSchema{Problem: ProblemA2A, Capacity: q}
	if len(groups) == 1 && m > 1 {
		ms.AddReducerA2A(set, groups[0])
	}
	for a := range groups {
		for b := a + 1; b < len(groups); b++ {
			ms.AddReducerA2A(set, append(append([]int(nil), groups[a]...), groups[b]...))
		}
	}
	return ms, set
}

// drawX2Y builds a covering X2Y schema the way the solvers do (each side in
// groups of at most q/2, one reducer per X group and Y group) over nx and ny
// drawn sizes; q reaches past 3,000, so a Y group can hold more members than
// a row of 5,000 inputs has words.
func drawX2Y(rng *rand.Rand, nx, ny int, heavyTailed bool) (*MappingSchema, *InputSet, *InputSet) {
	xSizes, ySizes := drawSizes(rng, nx, heavyTailed), drawSizes(rng, ny, heavyTailed)
	xs, ys := MustNewInputSet(xSizes), MustNewInputSet(ySizes)
	q := Size(60 + rng.Intn(200))
	if rng.Intn(3) == 0 {
		q = Size(60 + rng.Intn(3000))
	}
	ms := &MappingSchema{Problem: ProblemX2Y, Capacity: q}
	yGroups := drawGroups(rng, ySizes, q/2)
	for _, gx := range drawGroups(rng, xSizes, q/2) {
		for _, gy := range yGroups {
			ms.AddReducerX2Y(xs, ys, gx, gy)
		}
	}
	return ms, xs, ys
}

// damage applies up to three corruptions to the schema's reducers: each kind
// the validators tell apart, and some they must not mind (duplicate and
// unordered members, a Load that is too low). side picks the member list of
// a reducer to corrupt and the size of the set it indexes.
func damage(rng *rand.Rand, ms *MappingSchema, side func(red *Reducer) (*[]int, int)) {
	q := ms.Capacity
	for n := rng.Intn(4); n > 0 && len(ms.Reducers) > 0; n-- {
		red := &ms.Reducers[rng.Intn(len(ms.Reducers))]
		ids, m := side(red)
		switch rng.Intn(8) {
		case 0: // drop a member: some of its pairs may lose their only reducer
			if k := len(*ids); k > 0 {
				i := rng.Intn(k)
				*ids = append((*ids)[:i:i], (*ids)[i+1:]...)
			}
		case 1: // drop a reducer
			*red = ms.Reducers[len(ms.Reducers)-1]
			ms.Reducers = ms.Reducers[:len(ms.Reducers)-1]
		case 2: // repeat a member
			if k := len(*ids); k > 0 {
				*ids = append((*ids)[:k:k], (*ids)[rng.Intn(k)])
			}
		case 3:
			rng.Shuffle(len(*ids), func(i, j int) { (*ids)[i], (*ids)[j] = (*ids)[j], (*ids)[i] })
		case 4:
			red.Load = Size(rng.Intn(int(q) + 20)) // stale: above q only sometimes
		case 5:
			*ids = append((*ids)[:len(*ids):len(*ids)], []int{-1, m, m + 64, -64}[rng.Intn(4)])
		case 6: // over capacity by membership, Load left as it was
			for len(*ids) < m && rng.Intn(6) > 0 {
				*ids = append((*ids)[:len(*ids):len(*ids)], rng.Intn(m))
			}
		case 7:
			*ids = nil
		}
	}
}

// a2aSide is damage's side for an A2A schema over m inputs.
func a2aSide(m int) func(*Reducer) (*[]int, int) {
	return func(red *Reducer) (*[]int, int) { return &red.Inputs, m }
}

// x2ySide is damage's side for an X2Y schema: the X or the Y members.
func x2ySide(rng *rand.Rand, nx, ny int) func(*Reducer) (*[]int, int) {
	return func(red *Reducer) (*[]int, int) {
		if rng.Intn(2) == 0 {
			return &red.XInputs, nx
		}
		return &red.YInputs, ny
	}
}

// TestValidateA2AMatchesPairReference builds covering schemas the way the
// solvers do, damages most of them, and requires ValidateA2A to say exactly
// what the per-pair reference says. Set sizes straddle the word boundaries of
// the rows.
func TestValidateA2AMatchesPairReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	seen := map[string]int{}
	for trial := 0; trial < 1500; trial++ {
		m := []int{1, 2, 3, 63, 64, 65, 127, 128, 129, 200}[rng.Intn(10)]
		if trial%5 == 0 {
			m = 1 + rng.Intn(260)
		}
		ms, set := drawA2A(rng, m, trial%2 == 0)
		damage(rng, ms, a2aSide(m))
		got := ms.ValidateA2A(set)
		if diff := sameVerdict(got, refValidateA2A(ms, set)); diff != "" {
			t.Fatalf("trial %d (m=%d, %d reducers): ValidateA2A %s", trial, m, len(ms.Reducers), diff)
		}
		seen[verdictKind(got)]++
	}
	for _, kind := range []string{"valid", ErrUnknownInput.Error(), ErrCapacityExceeded.Error(), ErrPairUncovered.Error()} {
		if seen[kind] < 30 {
			t.Errorf("only %d of 1500 trials ended in %q: the generator no longer reaches it", seen[kind], kind)
		}
	}
}

// TestValidateX2YMatchesPairReference is the A2A test's twin for X2Y: covering
// schemas over sides that straddle the rows' word boundaries (a Y side of 65
// or 129 inputs ends mid-word), now and then 50 x 5000 or 5000 x 50, damaged
// on either side, and ValidateX2Y must say exactly what the per-pair reference
// says. The tally also requires reducers on both sides of the pass's choice
// (more Y members than a row has words and more than two X members, or not),
// so both ways of marking a reducer's pairs run.
func TestValidateX2YMatchesPairReference(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	sides := []int{1, 2, 3, 63, 64, 65, 127, 128, 129, 200}
	seen := map[string]int{}
	for trial := 0; trial < 1200; trial++ {
		nx, ny := sides[rng.Intn(len(sides))], sides[rng.Intn(len(sides))]
		switch {
		case trial%40 == 0:
			nx, ny = 50, 5000
		case trial%40 == 20:
			nx, ny = 5000, 50
		case trial%5 == 0:
			nx, ny = 1+rng.Intn(260), 1+rng.Intn(260)
		}
		ms, xs, ys := drawX2Y(rng, nx, ny, trial%2 == 0)
		words := (ny + 63) / 64
		for _, red := range ms.Reducers {
			if len(red.YInputs) > words && len(red.XInputs) > 2 {
				seen["mask"]++
			} else {
				seen["pairs"]++
			}
		}
		damage(rng, ms, x2ySide(rng, nx, ny))
		got := ms.ValidateX2Y(xs, ys)
		if diff := sameVerdict(got, refValidateX2Y(ms, xs, ys)); diff != "" {
			t.Fatalf("trial %d (%d x %d, %d reducers): ValidateX2Y %s", trial, nx, ny, len(ms.Reducers), diff)
		}
		seen[verdictKind(got)]++
	}
	for _, kind := range []string{"valid", ErrUnknownInput.Error(), ErrCapacityExceeded.Error(), ErrPairUncovered.Error(), "mask", "pairs"} {
		if seen[kind] < 30 {
			t.Errorf("only %d trials ended in or built %q: the generator no longer reaches it", seen[kind], kind)
		}
	}
}

// FuzzValidateMatchesReference draws a covering schema of either problem from
// the fuzz input, damages it, and requires the one coverage pass to return
// the per-pair reference's verdict: the same outcome, kind and text.
func FuzzValidateMatchesReference(f *testing.F) {
	f.Add(int64(1), false, uint16(65), uint16(0), false)
	f.Add(int64(2), true, uint16(50), uint16(129), true)
	f.Add(int64(3), true, uint16(1), uint16(1), false)
	f.Add(int64(4), false, uint16(1), uint16(1), true)
	f.Add(int64(5), true, uint16(300), uint16(900), true)
	f.Fuzz(func(t *testing.T, seed int64, x2y bool, a, b uint16, heavyTailed bool) {
		rng := rand.New(rand.NewSource(seed))
		if !x2y {
			m := 1 + int(a)%400
			ms, set := drawA2A(rng, m, heavyTailed)
			damage(rng, ms, a2aSide(m))
			if diff := sameVerdict(ms.ValidateA2A(set), refValidateA2A(ms, set)); diff != "" {
				t.Fatalf("A2A over %d inputs: ValidateA2A %s", m, diff)
			}
			return
		}
		nx, ny := 1+int(a)%1000, 1+int(b)%1000
		ms, xs, ys := drawX2Y(rng, nx, ny, heavyTailed)
		damage(rng, ms, x2ySide(rng, nx, ny))
		if diff := sameVerdict(ms.ValidateX2Y(xs, ys), refValidateX2Y(ms, xs, ys)); diff != "" {
			t.Fatalf("X2Y over %d x %d inputs: ValidateX2Y %s", nx, ny, diff)
		}
	})
}

// pairSet tracks coverage of unordered pairs over m items for the reference:
// a CoverSet over the strictly-upper-triangle offsets, so cardinality is a
// popcount.
type pairSet struct {
	m    int
	bits *CoverSet
}

func newPairSet(m int) *pairSet {
	return &pairSet{m: m, bits: NewCoverSet(m * (m - 1) / 2)}
}

// index maps the unordered pair (i, j), i < j, to a dense offset.
func (p *pairSet) index(i, j int) int {
	if i > j {
		i, j = j, i
	}
	// Offset of row i in the strictly upper triangle, then the column.
	return i*(2*p.m-i-1)/2 + (j - i - 1)
}

func (p *pairSet) add(i, j int) {
	if i == j {
		return
	}
	p.bits.Add(p.index(i, j))
}

func (p *pairSet) has(i, j int) bool {
	return p.bits.Contains(p.index(i, j))
}

// count returns the number of covered pairs.
func (p *pairSet) count() int { return p.bits.Count() }
