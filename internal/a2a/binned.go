package a2a

import (
	"slices"
	"strings"

	"repro/internal/binpack"
	"repro/internal/core"
)

// binnedPrefix names a design laid over bins: the unit design's algorithm
// with its "a2a/" replaced, as in "a2a/binned/affine-plane".
const binnedPrefix = "a2a/binned/"

// binnedDesign is an equal-sized design laid over the bins of a
// First-Fit-Decreasing packing at capacity floor(q/n): each bin is one unit
// input and a reducer holds n of them. At n = 2 the design is every pair of
// bins, C(B,2) reducers, which BinPackPair builds.
type binnedDesign struct {
	n, bins int
	design  equalDesign
}

// below reports whether a is cheaper than b: fewer reducers, or as many and
// fewer copies per bin — which is less communication were every bin equally
// full.
func (a binnedDesign) below(b binnedDesign) bool {
	if a.design.reducers != b.design.reducers {
		return a.design.reducers < b.design.reducers
	}
	return a.design.copies*b.bins < b.design.copies*a.bins
}

// solveBinned serves different-sized inputs that are all at most q/2 and do
// not fit one reducer. It prices, for every n from 2 to floor(q/w_max) (at
// most maxPlaneOrder; past it the equal-sized dispatch lays its planes over
// runs of units anyway), the equal-sized dispatch over the B bins of an FFD
// packing at floor(q/n), at k = n: what Solve would build for B unit inputs
// at capacity n. At n = 2 that is BinPackPair's every pair of q/2 bins. It
// builds only the cheapest, and a design only where it beats the pairs on
// fewer reducers, then less communication: on a tie in reducers the built
// design's communication is compared with the pairs' W·(B₂−1), every input
// shipped once per other bin.
//
// Pricing one n is an FFD count over the items ordered once, and the
// equal-sized dispatch's count. An n is skipped uncounted when its bins'
// lower bound ceil(W/floor(q/n)) does not price below the cheapest so far.
func solveBinned(set *core.InputSet, q core.Size) (*core.MappingSchema, error) {
	items := binpack.ItemsFromIDs(set, set.IDsBySizeDescending())
	pair, err := priceBinned(items, q, 2)
	if err != nil {
		return nil, err
	}
	best := pair
	for n := 3; n <= min(int(q/set.MaxSize()), maxPlaneOrder); n++ {
		least := int(core.CeilDiv(set.TotalSize(), q/core.Size(n))) // more than n, since W > q
		if !(binnedDesign{n, least, equalSizedDesign(least, n)}).below(best) {
			continue
		}
		cand, err := priceBinned(items, q, n)
		if err != nil {
			return nil, err
		}
		if cand.below(best) {
			best = cand
		}
	}
	if best.n > 2 {
		ms, err := buildBinned(items, q, best)
		if err != nil || best.design.reducers < pair.design.reducers ||
			core.SchemaCost(ms).Communication < core.MulSat(set.TotalSize(), core.Size(pair.bins-1)) {
			return ms, err
		}
	}
	return packPairs(set, q, items)
}

// priceBinned prices the design over the FFD bins of items at floor(q/n):
// what buildBinned builds for n >= 3, and BinPackPair's pairs for n = 2. The
// items must not fit one reducer, so there are more than n bins.
func priceBinned(items []binpack.Item, q core.Size, n int) (binnedDesign, error) {
	bins, err := binpack.Count(items, q/core.Size(n))
	return binnedDesign{n, bins, equalSizedDesign(bins, n)}, err
}

// buildBinned builds d for the items: the FFD packing at floor(q/n), the
// equal-sized design over its bins as unit inputs at capacity n, and each
// reducer of that with its bins expanded to their inputs. Every reducer holds
// whole bins, at most n of them of load at most floor(q/n) each. The inputs
// are dealt out in ID order, each to the reducers of its bin, so every
// reducer's members come out ascending without a sort or a merge.
func buildBinned(items []binpack.Item, q core.Size, d binnedDesign) (*core.MappingSchema, error) {
	packing, err := binpack.Pack(items, q/core.Size(d.n), binpack.FirstFitDecreasing)
	if err != nil {
		return nil, err
	}
	bins := packing.Bins
	units, err := core.UniformInputSet(len(bins), 1)
	if err != nil {
		return nil, err
	}
	unit, err := buildEqualSized(units, core.Size(d.n), d.design)
	if err != nil {
		return nil, err
	}
	ms := &core.MappingSchema{
		Problem:   core.ProblemA2A,
		Capacity:  q,
		Algorithm: binnedPrefix + strings.TrimPrefix(unit.Algorithm, "a2a/"),
		Reducers:  make([]core.Reducer, len(unit.Reducers)),
	}
	// The reducers of bin b are held[first[b]:first[b+1]].
	first := make([]int, len(bins)+1)
	for r, red := range unit.Reducers {
		members := 0
		for _, b := range red.Inputs {
			first[b+1]++
			members += len(bins[b].Items)
			ms.Reducers[r].Load += bins[b].Load
		}
		ms.Reducers[r].Inputs = make([]int, 0, members)
	}
	for b := range bins {
		first[b+1] += first[b]
	}
	held, next := make([]int, first[len(bins)]), slices.Clone(first)
	for r, red := range unit.Reducers {
		for _, b := range red.Inputs {
			held[next[b]] = r
			next[b]++
		}
	}
	binOf := make([]int, len(items))
	for b, bin := range bins {
		for _, id := range bin.Items {
			binOf[id] = b
		}
	}
	for id, b := range binOf {
		for _, r := range held[first[b]:first[b+1]] {
			ms.Reducers[r].Inputs = append(ms.Reducers[r].Inputs, id)
		}
	}
	return ms, nil
}
