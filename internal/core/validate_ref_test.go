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
		if err := ms.checkLoad(r, red); err != nil {
			return err
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

// TestValidateA2AMatchesPairReference builds covering schemas the way the
// solvers do (groups of at most q/2, one reducer per pair of groups), damages
// most of them, and requires ValidateA2A to say exactly what the per-pair
// reference says. Set sizes straddle the word boundaries of the rows.
func TestValidateA2AMatchesPairReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	zipf := rand.NewZipf(rng, 1.5, 1, 29) // the shape workload.Sizes draws for the benchmarks
	seen := map[string]int{}
	for trial := 0; trial < 1500; trial++ {
		m := []int{1, 2, 3, 63, 64, 65, 127, 128, 129, 200}[rng.Intn(10)]
		if trial%5 == 0 {
			m = 1 + rng.Intn(260)
		}
		sizes := make([]Size, m)
		for i := range sizes {
			if trial%2 == 0 {
				sizes[i] = 1 + Size(zipf.Uint64())
			} else {
				sizes[i] = 1 + Size(rng.Intn(30))
			}
		}
		set := MustNewInputSet(sizes)
		q := Size(60 + rng.Intn(200))

		var groups [][]int
		var room Size
		for _, id := range rng.Perm(m) {
			if len(groups) == 0 || sizes[id] > room {
				groups, room = append(groups, nil), q/2
			}
			groups[len(groups)-1] = append(groups[len(groups)-1], id)
			room -= sizes[id]
		}
		ms := &MappingSchema{Problem: ProblemA2A, Capacity: q}
		if len(groups) == 1 && m > 1 {
			ms.AddReducerA2A(set, groups[0])
		}
		for a := range groups {
			for b := a + 1; b < len(groups); b++ {
				ms.AddReducerA2A(set, append(append([]int(nil), groups[a]...), groups[b]...))
			}
		}

		// Damage: each kind the validator tells apart, and some it must not
		// mind (duplicate and unordered members, a Load that is too low).
		for n := rng.Intn(4); n > 0 && len(ms.Reducers) > 0; n-- {
			red := &ms.Reducers[rng.Intn(len(ms.Reducers))]
			switch rng.Intn(8) {
			case 0: // drop a member: some of its pairs may lose their only reducer
				if k := len(red.Inputs); k > 0 {
					i := rng.Intn(k)
					red.Inputs = append(red.Inputs[:i:i], red.Inputs[i+1:]...)
				}
			case 1: // drop a reducer
				*red = ms.Reducers[len(ms.Reducers)-1]
				ms.Reducers = ms.Reducers[:len(ms.Reducers)-1]
			case 2: // repeat a member
				if k := len(red.Inputs); k > 0 {
					red.Inputs = append(red.Inputs[:k:k], red.Inputs[rng.Intn(k)])
				}
			case 3:
				rng.Shuffle(len(red.Inputs), func(i, j int) { red.Inputs[i], red.Inputs[j] = red.Inputs[j], red.Inputs[i] })
			case 4:
				red.Load = Size(rng.Intn(int(q) + 20)) // stale: above q only sometimes
			case 5:
				red.Inputs = append(red.Inputs[:len(red.Inputs):len(red.Inputs)], []int{-1, m, m + 64, -64}[rng.Intn(4)])
			case 6: // over capacity by membership, Load left as it was
				for len(red.Inputs) < m && rng.Intn(6) > 0 {
					red.Inputs = append(red.Inputs[:len(red.Inputs):len(red.Inputs)], rng.Intn(m))
				}
			case 7:
				red.Inputs = nil
			}
		}

		got, want := ms.ValidateA2A(set), refValidateA2A(ms, set)
		switch {
		case (got == nil) != (want == nil), got != nil && got.Error() != want.Error():
			t.Fatalf("trial %d (m=%d, %d reducers): ValidateA2A = %v, the reference says %v", trial, m, len(ms.Reducers), got, want)
		case got == nil:
			seen["valid"]++
		default:
			for _, kind := range []error{ErrUnknownInput, ErrCapacityExceeded, ErrPairUncovered} {
				if errors.Is(got, kind) != errors.Is(want, kind) {
					t.Fatalf("trial %d: ValidateA2A = %v and the reference's %v differ in kind", trial, got, want)
				}
				if errors.Is(got, kind) {
					seen[kind.Error()]++
				}
			}
		}
	}
	for _, kind := range []string{"valid", ErrUnknownInput.Error(), ErrCapacityExceeded.Error(), ErrPairUncovered.Error()} {
		if seen[kind] < 30 {
			t.Errorf("only %d of 1500 trials ended in %q: the generator no longer reaches it", seen[kind], kind)
		}
	}
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
