package a2a

import (
	"errors"
	"fmt"
	"iter"
	"sync"

	"repro/internal/core"
)

// maxPlaneOrder is the largest plane AffinePlane builds on: 64 × 65 = 4,160
// lines of 64 points.
const maxPlaneOrder = 64

// planeOrders are the orders AffinePlane tries: the prime powers up to
// maxPlaneOrder, for which the finite field, and so the plane over it,
// exists.
var planeOrders = func() []int {
	var out []int
	for n := 2; n <= maxPlaneOrder; n++ {
		if p, _ := primePower(n); p != 0 {
			out = append(out, n)
		}
	}
	return out
}()

// errNoPlaneOrder is returned by AffinePlane when no order up to
// maxPlaneOrder has room for the bins.
var errNoPlaneOrder = errors.New("a2a: no affine plane of order <= 64 has a point for every bin")

// AffinePlane builds a schema for m equal-sized inputs from the affine plane
// AG(2, n) over the finite field of prime-power order n. With k = floor(q/w)
// inputs per reducer, the inputs are cut into b = ceil(m/s) bins of
// s = floor(k/n) consecutive IDs, and bin i is the point (i div n, i mod n) of
// GF(n)². The plane has n(n+1) lines of n points — y = a·x + c and x = c —
// every point lies on n+1 of them, and every two points lie on exactly one.
// Each line holding two or more real bins becomes one reducer of at most
// n·s <= k inputs, so every pair of bins meets exactly once and each input is
// shipped at most n+1 times, against the g-1 of EqualSized's g groups.
// Pairs inside one bin meet on every line through it.
//
// Of the orders that fit (s >= 1 and b <= n²), the one with the fewest
// reducers, then the fewest copies, is built; each is priced from m, k and n
// without building. An instance no order up to 64 fits is an error.
// Mixed sizes return ErrNotEqualSized, and the degenerate cases are handled
// as in EqualSized.
func AffinePlane(set *core.InputSet, q core.Size) (*core.MappingSchema, error) {
	k, done, err := equalSizedInstance(set, q, planeAlgorithm)
	if k == 0 {
		return done, err
	}
	pr, ok := bestPlane(set.Len(), k)
	if !ok {
		return nil, fmt.Errorf("%w: %d inputs at %d per reducer", errNoPlaneOrder, set.Len(), k)
	}
	return planeSchema(set, q, pr), nil
}

// planeSchema builds the plane pr prices for set.
func planeSchema(set *core.InputSet, q core.Size, pr planePrice) *core.MappingSchema {
	return binsOnBlocks(set, q, planeAlgorithm, pr.s, pr.reducers, planeFields()[pr.n].lines())
}

const planeAlgorithm = "a2a/affine-plane"

// price is what an equal-sized design builds: the reducers kept and the input
// copies shipped.
type price struct{ reducers, copies int }

// below reports whether p is cheaper than o: fewer reducers, or as many and
// fewer copies.
func (p price) below(o price) bool {
	return p.reducers < o.reducers || p.reducers == o.reducers && p.copies < o.copies
}

// planePrice is what the plane of order n builds for m inputs at k per
// reducer: bins of s inputs, and its price. Order 0 stands for EqualSized.
type planePrice struct {
	n, s int
	price
}

// bestPlane prices every order and returns the cheapest that fits: fewest
// reducers, then fewest copies, then the smallest order. It needs m > k >= 2.
func bestPlane(m, k int) (best planePrice, ok bool) {
	for _, n := range planeOrders {
		pr, fits := pricePlane(m, k, n)
		if fits && (!ok || pr.below(best.price)) {
			best, ok = pr, true
		}
	}
	return best, ok
}

// pricePlane counts the plane of order n for m > k >= 2 inputs at k per
// reducer without building it. It does not fit when a line cannot hold one
// input per point (k < n) or the bins outnumber the n² points.
//
// The b real bins are the points 0..b-1: rows x < R = b div n are full and
// row R holds the t = b mod n points y < t. Since m > k >= n·s, b > n and
// R >= 1. A vertical line is kept when it holds two real points: the R full
// ones, and the partial one when t >= 2. A line y = a·x + c meets each full
// row once and row R at a·R + c, which runs over the whole field as c does,
// so each slope has t lines through R+1 real points and n-t through R. With
// R >= 2 all n lines of a slope are kept, with R = 1 only those t. A point of
// a full row therefore lies on 1 + (kept lines per slope) reducers — for
// R = 1 the lines through (0, y) kept are the t whose value at x = 1 is below
// t — and a point of row R on the n lines that also meet row 0, plus its
// vertical when t >= 2. Every bin holds s inputs except the last.
func pricePlane(m, k, n int) (planePrice, bool) {
	s := k / n
	if s < 1 {
		return planePrice{}, false
	}
	b := (m + s - 1) / s
	if b > n*n {
		return planePrice{}, false
	}
	rows, t := b/n, b%n
	perSlope := n
	if rows == 1 {
		perSlope = t
	}
	partialVertical := 0
	if t >= 2 {
		partialVertical = 1
	}
	onFull, onPartial := 1+perSlope, n+partialVertical
	onLast := onFull
	if t > 0 {
		onLast = onPartial
	}
	short := b*s - m // inputs the last bin lacks
	return planePrice{n, s, price{
		reducers: rows + partialVertical + n*perSlope,
		copies:   s*(rows*n*onFull+t*onPartial) - short*onLast,
	}}, true
}

// gf is the finite field of prime-power order n = p^e. An element is an int
// in [0, n) read as the base-p digits of a polynomial over Z_p of degree < e
// (for a prime order, the residue itself). add and mul are the field's n×n
// tables: a op b is at a*n + b.
type gf struct {
	n        int
	add, mul []uint8
}

// planeFields holds GF(n) for every order in planeOrders, indexed by n and
// built on first use.
var planeFields = sync.OnceValue(func() []*gf {
	fields := make([]*gf, maxPlaneOrder+1)
	for _, n := range planeOrders {
		fields[n] = newGF(n)
	}
	return fields
})

// newGF builds the tables of GF(n) for a prime power n. Addition adds the
// digits mod p; multiplication goes through the powers of a generator, from
// log/antilog tables.
func newGF(n int) *gf {
	p, e := primePower(n)
	f := &gf{n: n, add: make([]uint8, n*n), mul: make([]uint8, n*n)}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			sum, place := 0, 1
			for x, y := a, b; x > 0 || y > 0; x, y = x/p, y/p {
				sum += (x%p + y%p) % p * place
				place *= p
			}
			f.add[a*n+b] = uint8(sum)
		}
	}
	exp := generatorPowers(p, e, n)
	log := make([]int, n)
	for i, v := range exp {
		log[v] = i
	}
	for a := 1; a < n; a++ {
		for b := 1; b < n; b++ {
			f.mul[a*n+b] = uint8(exp[(log[a]+log[b])%(n-1)])
		}
	}
	return f
}

// generatorPowers returns x^0 .. x^(n-2) in Z_p[x] modulo the first monic
// polynomial x^e + f of degree e — f's coefficients read as base-p digits,
// smallest first — under which x has order n-1 = p^e - 1. Such an f is
// primitive: an element of order p^e - 1 needs p^e - 1 units, which only a
// field has, so the search also proves it irreducible. One exists for every
// prime power (for e = 1 it is x - g for a primitive root g).
func generatorPowers(p, e, n int) []int {
	for f := 1; f < n; f++ {
		exp := []int{1}
		v := 1
		for len(exp) < n {
			if v = mulX(v, f, p, e); v == 1 {
				break
			}
			exp = append(exp, v)
		}
		if v == 1 && len(exp) == n-1 {
			return exp
		}
	}
	panic(fmt.Sprintf("a2a: no primitive polynomial of degree %d over Z_%d", e, p))
}

// mulX multiplies v by x modulo x^e + f, both given by their base-p digits:
// the digits move up one place, and the one that falls off the top returns
// times x^e = -f.
func mulX(v, f, p, e int) int {
	hi := 1
	for range e - 1 {
		hi *= p
	}
	top := v / hi
	v = v % hi * p
	out, place := 0, 1
	for range e {
		out += (v/place%p + (p-top)*(f/place%p)) % p * place
		place *= p
	}
	return out
}

// primePower returns p and e with n = p^e for a prime p, or 0, 0 when n is
// not a prime power.
func primePower(n int) (p, e int) {
	if n < 2 {
		return 0, 0
	}
	p = 2
	for n%p != 0 {
		p++
	}
	for ; n%p == 0; n /= p {
		e++
	}
	if n != 1 {
		return 0, 0
	}
	return p, e
}

// lines yields the n(n+1) lines of the affine plane over f, each as its
// points in ascending order, where point (x, y) is x*n + y: first the n
// vertical lines x = c, then y = a·x + c by slope a and intercept c. The
// yielded slice is reused between lines.
func (f *gf) lines() iter.Seq[[]int] {
	n := f.n
	return func(yield func([]int) bool) {
		line := make([]int, n)
		for c := 0; c < n; c++ {
			for y := range line {
				line[y] = c*n + y
			}
			if !yield(line) {
				return
			}
		}
		for a := 0; a < n; a++ {
			for c := 0; c < n; c++ {
				for x := range line {
					line[x] = x*n + int(f.add[int(f.mul[a*n+x])*n+c])
				}
				if !yield(line) {
					return
				}
			}
		}
	}
}
