package a2a

import (
	"iter"

	"repro/internal/core"
)

// binsOnBlocks builds the schema of a block design whose points are bins of
// consecutive input IDs: point p holds the inputs [p*s, min((p+1)*s, m)), so
// the first ceil(m/s) points are real and any later ones are padding. Every
// block, listed by its points in ascending order, becomes one reducer holding
// the inputs of its real points; a block left with fewer than two real points
// covers no pair between bins and is dropped. Members therefore come out
// ascending, the way every solver emits them. reducers is how many blocks are
// kept, which the callers know from their counts before building.
//
// EqualSized (blocks: every pair of groups), TripleCover (Bose triples over
// one-input bins) and AffinePlane (the lines of a plane) are this builder fed
// different designs.
func binsOnBlocks(set *core.InputSet, q core.Size, algorithm string, s, reducers int, blocks iter.Seq[[]int]) *core.MappingSchema {
	m := set.Len()
	binLoad := make([]core.Size, (m+s-1)/s)
	for id := 0; id < m; id++ {
		binLoad[id/s] += set.Size(id)
	}
	ms := &core.MappingSchema{
		Problem:   core.ProblemA2A,
		Capacity:  q,
		Algorithm: algorithm,
		Reducers:  make([]core.Reducer, 0, reducers),
	}
	for points := range blocks {
		if red, ok := binsReducer(points, s, m, binLoad); ok {
			ms.Reducers = append(ms.Reducers, red)
		}
	}
	return ms
}

// binsReducer is the reducer of one block: the inputs of its real points,
// ascending, and their load; ok is false when fewer than two points are
// real.
func binsReducer(points []int, s, m int, binLoad []core.Size) (red core.Reducer, ok bool) {
	held, members := 0, 0
	for _, p := range points {
		if p < len(binLoad) {
			held++
			members += min(p*s+s, m) - p*s
			red.Load += binLoad[p]
		}
	}
	if held < 2 {
		return red, false
	}
	ids := make([]int, 0, members)
	for _, p := range points[:held] { // ascending: the real points come first
		for id, hi := p*s, min(p*s+s, m); id < hi; id++ {
			ids = append(ids, id)
		}
	}
	red.Inputs = ids
	return red, true
}
