package core

import (
	"math/bits"
	"sync"
)

// CoverSet is a fixed-universe bitset over input (or reducer) indexes
// 0..n-1, backed by a []uint64 with popcount-based cardinality. It is the
// internal representation of the hot paths that previously walked sorted
// slices pair-by-pair: solver coverage rows, the executor's per-input reducer
// membership, and the stream session's assignment tests. Sorted slices remain
// the exchange type on every public surface; CoverSets are rebuilt from them
// at the boundary.
//
// The zero value is an empty set over a zero universe; use NewCoverSet or
// Reset to size one. Methods never allocate except NewCoverSet, Reset and
// Grow.
type CoverSet struct {
	words []uint64
	n     int
}

// NewCoverSet returns an empty set over the universe 0..n-1.
func NewCoverSet(n int) *CoverSet {
	if n < 0 {
		n = 0
	}
	return &CoverSet{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the universe size n.
func (s *CoverSet) Len() int { return s.n }

// Reset re-sizes the set to the universe 0..n-1 and clears every bit,
// reusing the existing words when they are large enough.
func (s *CoverSet) Reset(n int) {
	if n < 0 {
		n = 0
	}
	s.words = resizeWords(s.words, (n+63)/64)
	s.n = n
}

// resizeWords returns a zeroed slice of n words, reusing buf when it is large
// enough.
func resizeWords(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// Grow extends the universe to at least n, preserving current members.
func (s *CoverSet) Grow(n int) {
	if n <= s.n {
		return
	}
	w := (n + 63) / 64
	if old := len(s.words); cap(s.words) >= w {
		// Words beyond the old length may hold stale bits from before an
		// earlier Reset to a smaller universe; clear what Grow re-exposes.
		s.words = s.words[:w]
		for i := old; i < w; i++ {
			s.words[i] = 0
		}
	} else {
		words := make([]uint64, w, w+w/2)
		copy(words, s.words)
		s.words = words
	}
	s.n = n
}

// Add sets bit i. Out-of-range indexes (including negatives) are ignored so
// callers can feed defensively-filtered IDs without pre-checking.
func (s *CoverSet) Add(i int) {
	if i < 0 || i >= s.n {
		return
	}
	s.words[i>>6] |= 1 << (uint(i) & 63)
}

// Remove clears bit i.
func (s *CoverSet) Remove(i int) {
	if i < 0 || i >= s.n {
		return
	}
	s.words[i>>6] &^= 1 << (uint(i) & 63)
}

// Contains reports whether bit i is set.
func (s *CoverSet) Contains(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Count returns the cardinality via popcount.
func (s *CoverSet) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clear removes every member, keeping the universe size.
func (s *CoverSet) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Fill adds every index 0..n-1.
func (s *CoverSet) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	if tail := uint(s.n) & 63; tail != 0 {
		s.words[len(s.words)-1] = 1<<tail - 1
	}
}

// Union adds every member of o and returns how many of them were new.
func (s *CoverSet) Union(o *CoverSet) int {
	added := 0
	for i := range min(len(s.words), len(o.words)) {
		added += bits.OnesCount64(o.words[i] &^ s.words[i])
		s.words[i] |= o.words[i]
	}
	return added
}

// Intersects reports whether s and o share a member, short-circuiting on the
// first common word.
func (s *CoverSet) Intersects(o *CoverSet) bool {
	n := len(s.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		if s.words[i]&o.words[i] != 0 {
			return true
		}
	}
	return false
}

// IntersectMin returns the smallest common member of s and o, or -1 when the
// sets are disjoint. This is owner election: the lowest-indexed reducer two
// inputs share.
func (s *CoverSet) IntersectMin(o *CoverSet) int {
	n := len(s.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		if w := s.words[i] & o.words[i]; w != 0 {
			return i<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// IntersectsBelow reports whether s and o share a member smaller than limit,
// reading only the words that hold indexes below it. A reducer r that holds
// two inputs owns their pair exactly when their membership rows do not
// intersect below r, so this is owner election from r's side: it never looks
// past r's own word.
func (s *CoverSet) IntersectsBelow(o *CoverSet, limit int) bool {
	// last is the highest word of both sets that holds an index below limit.
	last := min(len(s.words), len(o.words), (limit+63)>>6) - 1
	if last < 0 {
		return false
	}
	for i := 0; i < last; i++ {
		if s.words[i]&o.words[i] != 0 {
			return true
		}
	}
	w := s.words[last] & o.words[last]
	if below := limit - last<<6; below < 64 {
		w &= 1<<uint(below) - 1
	}
	return w != 0
}

// CountAndNot returns |s \ o| without materializing the difference.
func (s *CoverSet) CountAndNot(o *CoverSet) int {
	c := 0
	n := len(s.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		c += bits.OnesCount64(s.words[i] &^ o.words[i])
	}
	for i := n; i < len(s.words); i++ {
		c += bits.OnesCount64(s.words[i])
	}
	return c
}

// NextAbsent returns the smallest index >= from that is NOT a member, or n
// when every index from from..n-1 is set. Solver coverage rows use it to
// find the first uncovered partner.
func (s *CoverSet) NextAbsent(from int) int {
	if from < 0 {
		from = 0
	}
	if from >= s.n {
		return s.n
	}
	wi := from >> 6
	// Mask off bits below from, then look for a zero bit.
	w := ^s.words[wi] &^ ((1 << (uint(from) & 63)) - 1)
	for {
		if w != 0 {
			i := wi<<6 + bits.TrailingZeros64(w)
			if i >= s.n {
				return s.n
			}
			return i
		}
		wi++
		if wi >= len(s.words) {
			return s.n
		}
		w = ^s.words[wi]
	}
}

// AppendTo appends the members to dst in ascending order.
func (s *CoverSet) AppendTo(dst []int) []int {
	for wi, w := range s.words {
		for ; w != 0; w &= w - 1 {
			dst = append(dst, wi<<6+bits.TrailingZeros64(w))
		}
	}
	return dst
}

// AddAll sets every listed bit (out-of-range indexes ignored).
func (s *CoverSet) AddAll(ids []int) {
	for _, id := range ids {
		s.Add(id)
	}
}

// coverSetPool recycles CoverSets used as per-call scratch, so steady-state
// planning and auditing allocate near-zero per call. Sets come out of the
// pool with arbitrary stale universe; callers must Reset before use.
var coverSetPool = sync.Pool{New: func() any { return new(CoverSet) }}

// GetCoverSet returns a cleared scratch CoverSet over 0..n-1 from the pool.
// Release it with PutCoverSet when done; using it after release is a race.
func GetCoverSet(n int) *CoverSet {
	s := coverSetPool.Get().(*CoverSet)
	s.Reset(n)
	return s
}

// PutCoverSet returns a scratch CoverSet to the pool.
func PutCoverSet(s *CoverSet) {
	if s != nil {
		coverSetPool.Put(s)
	}
}
