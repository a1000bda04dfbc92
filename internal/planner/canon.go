package planner

import (
	"fmt"
	"slices"

	"repro/internal/core"
)

// canonical is the renaming-invariant form of a planning request: the size
// multisets sorted ascending, plus the permutations needed to translate a
// canonical solution back to the original input IDs. For X2Y instances the
// sides are additionally ordered (the cross-pair covering constraint is
// symmetric in X and Y), so an instance and its mirror share one cache entry.
type canonical struct {
	problem core.Problem
	q       core.Size
	// sizes holds the canonical sizes of the A2A set, or of the canonical X
	// side for X2Y; ySizes holds the canonical Y side (X2Y only).
	sizes  []core.Size
	ySizes []core.Size
	// perm maps canonical position -> original ID for sizes; yPerm likewise
	// for ySizes. When swapped is true the canonical X side was built from
	// the request's Y set (and vice versa), so perm indexes the original Y
	// IDs and yPerm the original X IDs.
	perm    []int
	yPerm   []int
	swapped bool
	// hash keys the cache; equal canonical instances always hash equally and
	// lookups re-compare the sizes to rule out collisions.
	hash uint64
}

// canonicalize validates the request and builds its canonical form.
func canonicalize(req Request) (*canonical, error) {
	if req.Capacity <= 0 {
		return nil, fmt.Errorf("planner: capacity must be positive, got %d", req.Capacity)
	}
	switch req.Problem {
	case core.ProblemA2A:
		if req.Set == nil {
			return nil, fmt.Errorf("planner: A2A request needs Set")
		}
		cn := &canonical{
			problem: core.ProblemA2A,
			q:       req.Capacity,
			sizes:   req.Set.CanonicalSizes(),
			perm:    req.Set.CanonicalPermutation(),
		}
		cn.hash = core.MixFingerprint(core.FingerprintSizes(cn.sizes), uint64(cn.problem), uint64(cn.q))
		return cn, nil
	case core.ProblemX2Y:
		if req.X == nil || req.Y == nil {
			return nil, fmt.Errorf("planner: X2Y request needs X and Y")
		}
		cn := &canonical{problem: core.ProblemX2Y, q: req.Capacity}
		xSizes, ySizes := req.X.CanonicalSizes(), req.Y.CanonicalSizes()
		if sideLess(ySizes, xSizes) {
			cn.swapped = true
			cn.sizes, cn.ySizes = ySizes, xSizes
			cn.perm, cn.yPerm = req.Y.CanonicalPermutation(), req.X.CanonicalPermutation()
		} else {
			cn.sizes, cn.ySizes = xSizes, ySizes
			cn.perm, cn.yPerm = req.X.CanonicalPermutation(), req.Y.CanonicalPermutation()
		}
		cn.hash = core.MixFingerprint(core.FingerprintSizes(cn.sizes),
			uint64(cn.problem), uint64(cn.q), core.FingerprintSizes(cn.ySizes))
		return cn, nil
	default:
		return nil, fmt.Errorf("planner: unknown problem %v", req.Problem)
	}
}

// cacheable reports whether a planner's cache retains the instance's plan.
func (cn *canonical) cacheable() bool {
	return len(cn.sizes)+len(cn.ySizes) <= maxCacheableInputs
}

// inputSets builds input sets over the canonical sizes. The portfolio solves
// these, so cached schemas reference canonical IDs. Construction is deferred
// to the solve path: cache hits never need them.
func (cn *canonical) inputSets() (set, ySet *core.InputSet, err error) {
	if set, err = core.NewInputSet(cn.sizes); err != nil {
		return nil, nil, fmt.Errorf("planner: canonicalizing instance: %w", err)
	}
	if cn.problem == core.ProblemX2Y {
		if ySet, err = core.NewInputSet(cn.ySizes); err != nil {
			return nil, nil, fmt.Errorf("planner: canonicalizing Y side: %w", err)
		}
	}
	return set, ySet, nil
}

// sideLess orders size multisets: shorter first, then lexicographically
// smaller. It decides which X2Y side becomes the canonical X.
func sideLess(a, b []core.Size) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// matches reports whether the canonical instance equals the one an entry was
// stored for, guarding against fingerprint collisions.
func (cn *canonical) matches(problem core.Problem, q core.Size, sizes, ySizes []core.Size) bool {
	return cn.problem == problem && cn.q == q &&
		slices.Equal(cn.sizes, sizes) && slices.Equal(cn.ySizes, ySizes)
}

// materialize translates the plan's schema over canonical IDs into one over
// the request's original IDs, using the stored permutations. The returned
// schema is a fresh deep copy; cached schemas are never handed out directly.
// Its ID lists are sections of one array, each capped at its length, and come
// out ascending without a sort: original IDs are dealt out in ascending order
// through the plan's input -> reducers index. Loads are the cached ones — a
// permutation maps every input to one of its own size.
func (cn *canonical) materialize(plan *cachedPlan) *core.MappingSchema {
	canon := plan.schema
	ms := &core.MappingSchema{Problem: canon.Problem, Capacity: canon.Capacity, Algorithm: canon.Algorithm}
	if len(canon.Reducers) == 0 {
		return ms
	}
	ms.Reducers = make([]core.Reducer, len(canon.Reducers))
	for r := range canon.Reducers {
		ms.Reducers[r].Load = canon.Reducers[r].Load
	}
	nx := len(plan.byInput.reducer)
	ids := make([]int, nx+len(plan.byYInput.reducer))
	if cn.problem == core.ProblemA2A {
		plan.byInput.relabel(cn.perm, ids)
		for r := range ms.Reducers {
			ms.Reducers[r].Inputs = plan.byInput.list(ids, r)
		}
		return ms
	}
	xIDs, yIDs := ids[:nx], ids[nx:]
	plan.byInput.relabel(cn.perm, xIDs)
	plan.byYInput.relabel(cn.yPerm, yIDs)
	for r := range ms.Reducers {
		red := &ms.Reducers[r]
		red.XInputs, red.YInputs = plan.byInput.list(xIDs, r), plan.byYInput.list(yIDs, r)
		if cn.swapped {
			// perm maps to original Y IDs, yPerm to original X IDs.
			red.XInputs, red.YInputs = red.YInputs, red.XInputs
		}
	}
	return ms
}

// inputIndex is one side of a cached schema transposed: for every canonical
// input the reducers that hold it, and for every reducer where its list lies
// when the side's lists are laid end to end. It is built once per plan and
// read by every materialize.
type inputIndex struct {
	// reducer[first[c]:first[c+1]] are the reducers holding canonical input c,
	// ascending, one entry per occurrence in a list.
	first   []int32
	reducer []int32
	// offset[r]:offset[r+1] bounds reducer r's list.
	offset []int32
}

// newInputIndex transposes the lists list(r) of the schema's reducers over n
// canonical inputs.
func newInputIndex(n int, reducers []core.Reducer, list func(*core.Reducer) []int) inputIndex {
	ix := inputIndex{first: make([]int32, n+1), offset: make([]int32, len(reducers)+1)}
	for r := range reducers {
		ids := list(&reducers[r])
		ix.offset[r+1] = ix.offset[r] + int32(len(ids))
		for _, c := range ids {
			ix.first[c+1]++
		}
	}
	for c := 0; c < n; c++ {
		ix.first[c+1] += ix.first[c]
	}
	ix.reducer = make([]int32, ix.first[n])
	next := slices.Clone(ix.first[:n])
	for r := range reducers {
		for _, c := range list(&reducers[r]) {
			ix.reducer[next[c]] = int32(r)
			next[c]++
		}
	}
	return ix
}

// relabel fills ids, the side's lists laid end to end, with original IDs:
// perm maps canonical position to original ID, and walking the original IDs
// upwards leaves every list ascending.
func (ix *inputIndex) relabel(perm []int, ids []int) {
	canonOf := make([]int32, len(perm))
	for c, id := range perm {
		canonOf[id] = int32(c)
	}
	next := slices.Clone(ix.offset[:len(ix.offset)-1])
	for id, c := range canonOf {
		for _, r := range ix.reducer[ix.first[c]:ix.first[c+1]] {
			ids[next[r]] = id
			next[r]++
		}
	}
}

// list cuts reducer r's list from the filled ids; an empty one is nil, as a
// reducer built by core.AddReducerA2A has it.
func (ix *inputIndex) list(ids []int, r int) []int {
	lo, hi := ix.offset[r], ix.offset[r+1]
	if lo == hi {
		return nil
	}
	return ids[lo:hi:hi]
}
