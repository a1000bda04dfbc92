package core

import "math/bits"

// Gains holds one small counter per index 0..n-1 — a coverage greedy's gain
// per candidate — bit-sliced: plane k is a bitset of bit k of every counter.
// Bump adds one to every counter outside a set by a ripple-carry add of whole
// words, and Best finds the highest counter among a candidate set by
// narrowing the set plane by plane from the top, so neither visits the
// indexes one at a time.
//
// The zero value holds no counters; use Reset to size it. Methods never
// allocate except Reset.
type Gains struct {
	planes  []uint64 // plane k is planes[k*words : (k+1)*words]
	scratch []uint64 // Best's two candidate buffers
	words   int
	k       int // number of planes
	top     int // planes[:top*words] hold every set bit
}

// Reset sizes g for the indexes 0..n-1 and counters up to limit, and zeroes
// every counter. A counter bumped past limit wraps.
func (g *Gains) Reset(n, limit int) {
	g.words, g.k, g.top = (n+63)/64, bits.Len(uint(limit)), 0
	g.planes = resizeWords(g.planes, g.k*g.words)
	g.scratch = resizeWords(g.scratch, 2*g.words)
}

// Clear zeroes every counter.
func (g *Gains) Clear() {
	clear(g.planes[:g.top*g.words])
	g.top = 0
}

// Bump adds one to the counter of every index that is not in row, whose
// universe must be g's.
func (g *Gains) Bump(row *CoverSet) {
	for w, covered := range row.words {
		carry, k := ^covered, 0
		for p := w; carry != 0 && k < g.k; p, k = p+g.words, k+1 {
			next := g.planes[p] & carry
			g.planes[p] ^= carry
			carry = next
		}
		g.top = max(g.top, k)
	}
}

// Best returns the lowest index of cand with the highest counter, and that
// counter; it is -1, 0 when cand is empty. cand's universe must be g's.
func (g *Gains) Best(cand *CoverSet) (int, int) {
	cur, next := g.scratch[:g.words], g.scratch[g.words:]
	copy(cur, cand.words)
	gain := 0
	for k := g.top - 1; k >= 0; k-- {
		plane := g.planes[k*g.words : (k+1)*g.words]
		var hit uint64
		for w, c := range cur {
			next[w] = c & plane[w]
			hit |= next[w]
		}
		if hit != 0 {
			cur, next = next, cur
			gain |= 1 << k
		}
	}
	for w, c := range cur {
		if c != 0 {
			return w<<6 + bits.TrailingZeros64(c), gain
		}
	}
	return -1, 0
}
