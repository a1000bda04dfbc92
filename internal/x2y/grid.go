package x2y

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/binpack"
	"repro/internal/core"
)

// ErrHasBigInputs is returned when some input exceeds the capacity share a
// split allots to its side; such instances are handled by BigSmallSplit (or
// Solve, which dispatches automatically).
var ErrHasBigInputs = errors.New("x2y: instance has inputs larger than the per-side capacity share; use BigSmallSplit")

// countSplit counts the bins First-Fit Decreasing packs the two sides' items
// into at capacities xShare and q-xShare. The counts alone price the grid:
// b_x*b_y reducers, and since every X-bin meets every Y-bin, communication
// b_y*ΣX + b_x*ΣY.
func countSplit(xs, ys *core.InputSet, xItems, yItems []binpack.Item, q, xShare core.Size) (bx, by int, err error) {
	yShare := q - xShare
	if xShare <= 0 || yShare <= 0 {
		return 0, 0, fmt.Errorf("x2y: invalid capacity split %d/%d for q=%d", xShare, yShare, q)
	}
	if xs.MaxSize() > xShare {
		return 0, 0, fmt.Errorf("%w: max X size %d > X share %d", ErrHasBigInputs, xs.MaxSize(), xShare)
	}
	if ys.MaxSize() > yShare {
		return 0, 0, fmt.Errorf("%w: max Y size %d > Y share %d", ErrHasBigInputs, ys.MaxSize(), yShare)
	}
	if bx, err = binpack.Count(xItems, xShare); err != nil {
		return 0, 0, fmt.Errorf("x2y: packing X side: %w", err)
	}
	if by, err = binpack.Count(yItems, yShare); err != nil {
		return 0, 0, fmt.Errorf("x2y: packing Y side: %w", err)
	}
	return bx, by, nil
}

// buildGrid assigns every (X-bin, Y-bin) pair to one reducer. Every bin is
// sorted once and comes priced from its packing; each of the b_x*b_y reducers
// then just copies the two pre-sorted member lists and sums the two bin
// loads, instead of re-sorting and re-pricing per reducer.
func buildGrid(q core.Size, algorithm string, xBins, yBins []binpack.Bin) *core.MappingSchema {
	sortBins := func(bins []binpack.Bin) [][]int {
		ids := make([][]int, len(bins))
		for i, b := range bins {
			ids[i] = slices.Clone(b.Items)
			slices.Sort(ids[i])
		}
		return ids
	}
	xIDs, yIDs := sortBins(xBins), sortBins(yBins)
	ms := &core.MappingSchema{
		Problem:   core.ProblemX2Y,
		Capacity:  q,
		Algorithm: algorithm,
		Reducers:  make([]core.Reducer, 0, len(xIDs)*len(yIDs)),
	}
	for i := range xIDs {
		for j := range yIDs {
			ms.Reducers = append(ms.Reducers, core.Reducer{
				XInputs: slices.Clone(xIDs[i]),
				YInputs: slices.Clone(yIDs[j]),
				Load:    xBins[i].Load + yBins[j].Load,
			})
		}
	}
	return ms
}

// packOrderItems returns the side's pack items in decreasing size order, the
// order binpack.Pack packs in, so that a sweep of Packs over one side sorts it
// once: Pack takes decreasing input as it comes.
func packOrderItems(set *core.InputSet) []binpack.Item {
	return binpack.ItemsFromIDs(set, set.IDsBySizeDescending())
}

// GridWithSplit is the bin-packing-based approximation for the X2Y problem:
// for a capacity split xShare, X is packed into bins of capacity xShare, Y
// into bins of capacity q-xShare, and every (X-bin, Y-bin) pair is assigned
// to one reducer, so b_x X-bins and b_y Y-bins make b_x*b_y reducers and
// every cross pair meets in the reducer of its two bins. It tries a set of
// candidate splits and returns the schema with the fewest reducers (ties
// broken by smaller communication, then by candidate order). The first
// candidate is the paper's even split q/2 wherever each side's inputs fit
// their half; the others are splits proportional to the two sides' total
// sizes and a small sweep in between.
// Each candidate is priced from its two bin counts (binpack.Count, over each
// side ordered once); only the winner is packed and its reducers built.
func GridWithSplit(xs, ys *core.InputSet, q core.Size) (*core.MappingSchema, error) {
	const algorithm = "x2y/grid-best-split/first-fit-decreasing"
	if xs.Len() == 0 || ys.Len() == 0 {
		return emptySchema(q, algorithm), nil
	}
	if err := CheckFeasible(xs, ys, q); err != nil {
		return nil, err
	}
	xItems, yItems := packOrderItems(xs), packOrderItems(ys)
	var best core.Size // the winning X share; every candidate is positive
	var bestReducers int
	var bestComm core.Size
	var firstErr error
	for _, s := range splitCandidates(xs, ys, q) {
		bx, by, err := countSplit(xs, ys, xItems, yItems, q, s)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		reducers := bx * by
		comm := core.Size(by)*xs.TotalSize() + core.Size(bx)*ys.TotalSize()
		if best == 0 || reducers < bestReducers || (reducers == bestReducers && comm < bestComm) {
			best, bestReducers, bestComm = s, reducers, comm
		}
	}
	if best == 0 {
		return nil, firstErr
	}
	xPack, err := binpack.Pack(xItems, best, binpack.FirstFitDecreasing)
	if err != nil {
		return nil, err
	}
	yPack, err := binpack.Pack(yItems, q-best, binpack.FirstFitDecreasing)
	if err != nil {
		return nil, err
	}
	return buildGrid(q, algorithm, xPack.Bins, yPack.Bins), nil
}

// splitCandidates proposes X-side capacity shares to try.
func splitCandidates(xs, ys *core.InputSet, q core.Size) []core.Size {
	seen := map[core.Size]bool{}
	var out []core.Size
	add := func(s core.Size) {
		if s <= 0 || s >= q || seen[s] {
			return
		}
		// The split must leave room for the largest input on each side.
		if xs.MaxSize() > s || ys.MaxSize() > q-s {
			return
		}
		seen[s] = true
		out = append(out, s)
	}
	add(q / 2)
	add((q + 1) / 2)
	// Proportional to total sizes: q*ΣX/(ΣX+ΣY). With byte-sized inputs the
	// product leaves 64 bits (8 GiB times 2 TiB is 2^74), so it is kept in
	// 128; the quotient is below q and fits again.
	totX, totY := uint64(xs.TotalSize()), uint64(ys.TotalSize())
	if totX+totY > 0 {
		hi, lo := bits.Mul64(uint64(q), totX)
		share, _ := bits.Div64(hi, lo, totX+totY)
		add(core.Size(share))
	}
	// A coarse sweep of eighths.
	for i := core.Size(1); i < 8; i++ {
		add(q * i / 8)
	}
	// Tight against each side's largest input.
	add(xs.MaxSize())
	add(q - ys.MaxSize())
	if len(out) == 0 {
		// Fall back to the only possibly feasible region midpoint.
		out = append(out, q/2)
	}
	return out
}
