package a2a

import "repro/internal/core"

const planeRemainderAlgorithm = "a2a/plane-remainder"

// remainderPrice is what planeRemainder builds for m equal inputs at k per
// reducer. The full plane of order n takes the first main = n²·s inputs in
// bins of s; a grid covers remainder × main with bins of a remainder inputs
// beside bins of k-a main inputs; and when a is less than the remainder, sub
// covers the remainder's own pairs.
type remainderPrice struct {
	price
	plane planePrice
	a     int
	sub   planePrice
}

// bestPlaneRemainder prices the remainder design for every order whose full
// plane leaves inputs over and every remainder bin a, and returns the
// cheapest that ships at most maxCopies: fewest reducers, then fewest copies,
// then the smallest order and bin. It needs m > k >= 2.
//
// The full plane keeps its n(n+1) lines and ships every input n+1 times.
// The grid has ceil(rem/a)·ceil(main/b) reducers, b = k-a: each remainder
// input is shipped once per main bin and each main input once per remainder
// bin. The remainder's own pairs are priced by groupsOrPlane, never by this
// design again, so the price is one level deep.
func bestPlaneRemainder(m, k, maxCopies int) (best remainderPrice, ok bool) {
	for _, n := range planeOrders {
		s := k / n
		if s < 1 {
			break // the orders ascend, so s only falls
		}
		main := n * n * s
		rem := m - main
		if rem < 1 {
			continue
		}
		plane := planePrice{n, s, price{n * (n + 1), main * (n + 1)}}
		sub := groupsOrPlane(rem, k)
		for a := 1; a <= min(rem, k-1); a++ {
			remBins, mainBins := (rem+a-1)/a, (main+k-a-1)/(k-a)
			pr := remainderPrice{
				price: price{
					reducers: plane.reducers + remBins*mainBins,
					copies:   plane.copies + rem*mainBins + main*remBins,
				},
				plane: plane,
				a:     a,
			}
			if a < rem {
				pr.sub = sub
				pr.reducers += sub.reducers
				pr.copies += sub.copies
			}
			if pr.copies <= maxCopies && (!ok || pr.below(best.price)) {
				best, ok = pr, true
			}
		}
	}
	return best, ok
}

// planeRemainder builds the design pr prices for set: the plane's lines over
// the first main inputs (no line names a point >= n², so binsOnBlocks takes
// the whole set), then the grid, remainder bin by remainder bin, then the
// remainder's own schema with its IDs shifted past main. A main and a
// remainder input meet once, on the grid. Two main inputs meet as on the
// plane. Two remainder inputs meet in the sub-schema, and also on every
// grid reducer of their bin when they share one, so those pairs meet more
// than once.
func planeRemainder(set *core.InputSet, q core.Size, pr remainderPrice) (*core.MappingSchema, error) {
	m, w := set.Len(), set.Size(0)
	main := pr.plane.n * pr.plane.n * pr.plane.s
	b := int(q/w) - pr.a
	ms := binsOnBlocks(set, q, planeRemainderAlgorithm, pr.plane.s, pr.reducers, planeFields()[pr.plane.n].lines())
	for lo := main; lo < m; lo += pr.a {
		hi := min(lo+pr.a, m)
		for mainLo := 0; mainLo < main; mainLo += b {
			mainHi := min(mainLo+b, main)
			ids := make([]int, 0, mainHi-mainLo+hi-lo)
			ids = appendRange(appendRange(ids, mainLo, mainHi), lo, hi)
			ms.Reducers = append(ms.Reducers, core.Reducer{Inputs: ids, Load: core.Size(len(ids)) * w})
		}
	}
	if pr.a < m-main {
		rest, err := core.UniformInputSet(m-main, w)
		if err != nil {
			return nil, err
		}
		sub, err := groupsOrPlaneSchema(rest, q, pr.sub)
		if err != nil {
			return nil, err
		}
		for _, red := range sub.Reducers {
			for i := range red.Inputs {
				red.Inputs[i] += main
			}
			ms.Reducers = append(ms.Reducers, red)
		}
	}
	return ms, nil
}

// appendRange appends the IDs lo..hi-1 to ids.
func appendRange(ids []int, lo, hi int) []int {
	for id := lo; id < hi; id++ {
		ids = append(ids, id)
	}
	return ids
}
