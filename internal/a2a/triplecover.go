package a2a

import (
	"fmt"
	"slices"

	"repro/internal/core"
)

// TripleCover handles the "medium-sized inputs" regime the bin-packing-based
// algorithm is weakest in: when inputs are larger than q/4 (so a q/2 bin
// holds only one of them) but any three of them still fit in a reducer
// together. In that regime BinPackPair degenerates to one reducer per pair —
// C(m,2) reducers — while reducers that hold three inputs cover three pairs
// each, so roughly C(m,2)/3 reducers suffice.
//
// TripleCover builds that three-per-reducer assignment from a Steiner triple
// system: the m inputs are embedded into m' >= m points with m' ≡ 3 (mod 6),
// the Bose construction yields m'(m'-1)/6 triples covering every pair of
// points exactly once, and each triple (restricted to the real inputs it
// contains) becomes one reducer: binsOnBlocks with one input per bin.
// Triples left with fewer than two real inputs cover nothing and are dropped.
//
// It returns ErrTriplesDoNotFit when some three inputs exceed q together (the
// construction would violate the capacity), and handles the degenerate m <= 2
// cases like the other algorithms.
func TripleCover(set *core.InputSet, q core.Size) (*core.MappingSchema, error) {
	const algorithm = "a2a/triple-cover"
	if set.Len() == 0 {
		return emptySchema(q, algorithm), nil
	}
	if err := CheckFeasible(set, q); err != nil {
		return nil, err
	}
	m := set.Len()
	if m == 1 {
		return emptySchema(q, algorithm), nil
	}
	if set.TotalSize() <= q {
		return singleReducer(set, q, algorithm), nil
	}
	if m >= 3 {
		if err := checkTriplesFit(set, q); err != nil {
			return nil, err
		}
	}

	triples := func(yield func([]int) bool) {
		points := make([]int, 3)
		for _, tr := range boseTriples(paddedPoints(m)) {
			copy(points, tr[:])
			slices.Sort(points)
			if !yield(points) {
				return
			}
		}
	}
	return binsOnBlocks(set, q, algorithm, 1, tripleCoverReducers(m), triples), nil
}

// ErrTriplesDoNotFit is returned by TripleCover when the three largest inputs
// do not fit together in one reducer.
var ErrTriplesDoNotFit = fmt.Errorf("a2a: three largest inputs exceed the reducer capacity together")

// checkTriplesFit verifies that the three largest inputs fit in one reducer,
// which implies every triple does.
func checkTriplesFit(set *core.InputSet, q core.Size) error {
	var a, b, c core.Size // the three largest sizes, a >= b >= c
	for i := 0; i < set.Len(); i++ {
		switch w := set.Size(i); {
		case w > a:
			a, b, c = w, a, b
		case w > b:
			b, c = w, b
		case w > c:
			c = w
		}
	}
	if sum := a + b + c; sum > q {
		return fmt.Errorf("%w: %d > q=%d", ErrTriplesDoNotFit, sum, q)
	}
	return nil
}

// paddedPoints embeds m inputs into the smallest m' >= m with m' ≡ 3 (mod 6),
// the point counts the Bose construction exists for.
func paddedPoints(m int) int {
	for m%6 != 3 {
		m++
	}
	return m
}

// tripleCoverReducers returns how many reducers TripleCover builds for m >= 3
// inputs that do not fit one reducer, without building them. The system on
// m' = paddedPoints(m) points has m'(m'-1)/6 triples, and TripleCover drops
// those holding two or more of the d = m'-m padding points. Every pair of
// points lies in exactly one triple, so the C(d,2) padding pairs name one
// dropped triple each — except that a triple made of padding alone is named
// by three of them. The padding is the last d <= 5 points, and the only
// triple that fits inside those is the last row {(t-1,0), (t-1,1), (t-1,2)},
// all padding once d >= 3.
func tripleCoverReducers(m int) int {
	mp := paddedPoints(m)
	d := mp - m
	dropped := d * (d - 1) / 2
	if d >= 3 {
		dropped -= 2
	}
	return mp*(mp-1)/6 - dropped
}

// tripleCoverCopies returns how many input copies TripleCover ships for
// m >= 3 inputs that do not fit one reducer: each of the m real points lies
// on (m'-1)/2 triples, less one for every dropped triple it is the only real
// point of — the C(d,2) - 3 triples of two padding points when d >= 3 leaves
// one triple of padding alone, and all C(d,2) otherwise.
func tripleCoverCopies(m int) int {
	mp := paddedPoints(m)
	d := mp - m
	lone := d * (d - 1) / 2
	if d >= 3 {
		lone -= 3
	}
	return m*(mp-1)/2 - lone
}

// boseTriples returns the triples of a Steiner triple system on n points,
// n ≡ 3 (mod 6), via the Bose construction: the points are pairs (i, k) with
// i in Z_t (t = n/3, odd) and k in {0, 1, 2}, encoded as i*3 + k. The triples
// are {(i,0), (i,1), (i,2)} for every i, and {(i,k), (j,k), (h,k+1)} for every
// i < j and every k, where h = (i+j)/2 in Z_t (division by the inverse of 2).
// Every pair of points occurs in exactly one triple.
func boseTriples(n int) [][3]int {
	t := n / 3 // odd because n ≡ 3 (mod 6)
	inv2 := (t + 1) / 2
	point := func(i, k int) int { return i*3 + k }
	out := make([][3]int, 0, n*(n-1)/6)
	for i := 0; i < t; i++ {
		out = append(out, [3]int{point(i, 0), point(i, 1), point(i, 2)})
	}
	for i := 0; i < t; i++ {
		for j := i + 1; j < t; j++ {
			h := ((i + j) * inv2) % t
			for k := 0; k < 3; k++ {
				out = append(out, [3]int{point(i, k), point(j, k), point(h, (k+1)%3)})
			}
		}
	}
	return out
}
