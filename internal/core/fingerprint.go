package core

import (
	"cmp"
	"slices"
)

// Canonical fingerprint support. The mapping-schema problems are invariant
// under permutations of the input IDs: only the multiset of sizes matters.
// The planner exploits this to serve isomorphic instances from a cache; this
// file provides the canonical order and the multiset hash it keys on.

// fnvOffset and fnvPrime are the 64-bit FNV-1a parameters.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// CanonicalSizes returns the input sizes sorted ascending. Two input sets
// with equal canonical sizes are isomorphic: any solution of one becomes a
// solution of the other by renaming IDs along the canonical permutations.
func (s *InputSet) CanonicalSizes() []Size {
	out := s.Sizes()
	slices.Sort(out)
	return out
}

// CanonicalPermutation returns the input IDs ordered by ascending size,
// breaking ties by ascending ID. Position i of the result is the original ID
// of the i-th canonical input, i.e. the input whose size is CanonicalSizes[i].
func (s *InputSet) CanonicalPermutation() []int {
	ids := make([]int, len(s.inputs))
	for i := range ids {
		ids[i] = i
	}
	// IDs start ascending, so a stable sort by size alone breaks ties by ID.
	slices.SortStableFunc(ids, func(a, b int) int {
		return cmp.Compare(s.inputs[a].Size, s.inputs[b].Size)
	})
	return ids
}

// Fingerprint returns a 64-bit FNV-1a hash of the sorted size multiset.
// Isomorphic input sets (equal size multisets) always have equal
// fingerprints; distinct multisets collide only with hash probability, so
// callers that must be exact compare CanonicalSizes on fingerprint equality.
func (s *InputSet) Fingerprint() uint64 {
	return FingerprintSizes(s.CanonicalSizes())
}

// FingerprintSizes hashes the sizes in the order given. Callers that already
// hold canonical (sorted) sizes use it to skip Fingerprint's re-sort.
func FingerprintSizes(sizes []Size) uint64 {
	h := MixFingerprint(fnvOffset, uint64(len(sizes)))
	for _, w := range sizes {
		h = MixFingerprint(h, uint64(w))
	}
	return h
}

// MixFingerprint folds the values into the running FNV-1a hash h byte by
// byte. It lets callers compose an instance key from several fingerprints
// plus scalars such as the capacity q and the problem kind.
func MixFingerprint(h uint64, vs ...uint64) uint64 {
	for _, v := range vs {
		for b := 0; b < 8; b++ {
			h ^= v & 0xff
			h *= fnvPrime
			v >>= 8
		}
	}
	return h
}
