package x2y

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/binpack"
	"repro/internal/core"
	"repro/internal/workload"
)

// The constructions as they were before they priced candidates from their
// packings: every candidate split is built in full, one AddReducerX2Y (copy,
// sort, re-price) per bin pair, and priced by core.SchemaCost; every Pack
// gets the items in ID order and sorts them itself. They share nothing with
// the production path below binpack.Pack and splitCandidates, and are the
// reference the tests and FuzzX2YSolve hold Solve to.

func refGridSplit(xs, ys *core.InputSet, q, xShare core.Size) (*core.MappingSchema, error) {
	yShare := q - xShare
	if xShare <= 0 || yShare <= 0 {
		return nil, fmt.Errorf("x2y: invalid capacity split %d/%d for q=%d", xShare, yShare, q)
	}
	if xs.MaxSize() > xShare || ys.MaxSize() > yShare {
		return nil, ErrHasBigInputs
	}
	xPack, err := binpack.Pack(binpack.ItemsFromInputSet(xs), xShare, binpack.FirstFitDecreasing)
	if err != nil {
		return nil, err
	}
	yPack, err := binpack.Pack(binpack.ItemsFromInputSet(ys), yShare, binpack.FirstFitDecreasing)
	if err != nil {
		return nil, err
	}
	ms := &core.MappingSchema{Problem: core.ProblemX2Y, Capacity: q}
	for _, xb := range xPack.Bins {
		for _, yb := range yPack.Bins {
			ms.AddReducerX2Y(xs, ys, xb.Items, yb.Items)
		}
	}
	return ms, nil
}

func refGridWithSplit(xs, ys *core.InputSet, q core.Size) (*core.MappingSchema, error) {
	var best *core.MappingSchema
	var bestCost core.Cost
	var firstErr error
	for _, s := range splitCandidates(xs, ys, q) {
		ms, err := refGridSplit(xs, ys, q, s)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		cost := core.SchemaCost(ms, xs.TotalSize()+ys.TotalSize())
		if best == nil || cost.Reducers < bestCost.Reducers ||
			(cost.Reducers == bestCost.Reducers && cost.Communication < bestCost.Communication) {
			best, bestCost = ms, cost
		}
	}
	if best == nil {
		return nil, firstErr
	}
	best.Algorithm = "x2y/grid-best-split/first-fit-decreasing"
	return best, nil
}

func refBigSmallSplit(xs, ys *core.InputSet, q core.Size) (*core.MappingSchema, error) {
	const algorithm = "x2y/big-small-split/first-fit-decreasing"
	bigX, smallX := xs.SplitBySize(q / 2)
	bigY, smallY := ys.SplitBySize(q / 2)
	if len(bigX) == 0 && len(bigY) == 0 {
		ms, err := refGridWithSplit(xs, ys, q)
		if err != nil {
			return nil, err
		}
		ms.Algorithm = algorithm
		return ms, nil
	}
	if len(bigX) > 0 && len(bigY) > 0 {
		return nil, core.ErrInfeasible
	}
	flipped := len(bigY) > 0
	if flipped {
		xs, ys = ys, xs
		bigX, smallX = bigY, smallY
	}
	ms := &core.MappingSchema{Problem: core.ProblemX2Y, Capacity: q, Algorithm: algorithm}
	for _, bx := range bigX {
		pack, err := binpack.Pack(binpack.ItemsFromInputSet(ys), q-xs.Size(bx), binpack.FirstFitDecreasing)
		if err != nil {
			return nil, err
		}
		for _, bin := range pack.Bins {
			addReducer(ms, xs, ys, []int{bx}, bin.Items, flipped)
		}
	}
	if len(smallX) > 0 {
		smallSet, err := subset(xs, smallX)
		if err != nil {
			return nil, err
		}
		grid, err := refGridWithSplit(smallSet, ys, q)
		if err != nil {
			return nil, err
		}
		for _, r := range grid.Reducers {
			orig := make([]int, len(r.XInputs))
			for i, id := range r.XInputs {
				orig[i] = smallX[id]
			}
			addReducer(ms, xs, ys, orig, r.YInputs, flipped)
		}
	}
	return ms, nil
}

// refSolve is Solve's dispatch over the reference constructions.
func refSolve(xs, ys *core.InputSet, q core.Size) (*core.MappingSchema, error) {
	if err := CheckFeasible(xs, ys, q); err != nil {
		return nil, err
	}
	if xs.TotalSize()+ys.TotalSize() <= q {
		return singleReducer(xs, ys, q, "x2y/single-reducer"), nil
	}
	if xs.MaxSize() > q/2 || ys.MaxSize() > q/2 {
		return refBigSmallSplit(xs, ys, q)
	}
	return refGridWithSplit(xs, ys, q)
}

// checkSolveMatchesReference solves the instance both ways and expects the
// same error verdict and, on success, the same valid schema.
func checkSolveMatchesReference(t *testing.T, xs, ys *core.InputSet, q core.Size) {
	t.Helper()
	got, gotErr := Solve(xs, ys, q)
	want, wantErr := refSolve(xs, ys, q)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("x=%v y=%v q=%d: err = %v, reference %v", xs.Sizes(), ys.Sizes(), q, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if err := got.ValidateX2Y(xs, ys); err != nil {
		t.Fatalf("x=%v y=%v q=%d: invalid schema: %v", xs.Sizes(), ys.Sizes(), q, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("x=%v y=%v q=%d: schema differs from the build-every-candidate reference (%d reducers, reference %d)",
			xs.Sizes(), ys.Sizes(), q, got.NumReducers(), want.NumReducers())
	}
}

// zipfSizes draws n sizes in [1, max] with a heavy tail, like the benchmark's
// x2y and x2y_big regimes.
func zipfSizes(rng *rand.Rand, n int, max core.Size) []core.Size {
	sizes, err := workload.Sizes(workload.SizeSpec{Dist: workload.Zipf, Min: 1, Max: max, Skew: 1.5}, n, rng.Int63())
	if err != nil {
		panic(err)
	}
	return sizes
}

// halfBinsCapacity is the q at which the sizes fill about bins bins of q/2.
func halfBinsCapacity(bins int, floor core.Size, sides ...[]core.Size) core.Size {
	var total core.Size
	for _, sizes := range sides {
		for _, w := range sizes {
			total += w
		}
	}
	return max(2*(total+core.Size(bins)-1)/core.Size(bins), floor)
}

// TestGridWithSplitMatchesBuildEveryCandidate is the licence for pricing the
// sweep from the packings: the winner, its tie-break and its reducers are
// those of building every candidate, on random instances and on the
// benchmark's two X2Y regimes.
func TestGridWithSplitMatchesBuildEveryCandidate(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 300; trial++ {
		q := core.Size(10 + rng.Intn(60))
		draw := func(n int, hi core.Size) *core.InputSet {
			sizes := make([]core.Size, n)
			for i := range sizes {
				sizes[i] = 1 + core.Size(rng.Int63n(int64(hi)))
			}
			return core.MustNewInputSet(sizes)
		}
		// A third of the draws put inputs above q/2 on one side.
		xHi, yHi := q/2, q/2
		switch trial % 3 {
		case 1:
			xHi, yHi = q-q/4, q/4
		case 2:
			xHi, yHi = q/5, q-q/5
		}
		checkSolveMatchesReference(t, draw(1+rng.Intn(25), xHi), draw(1+rng.Intn(40), yHi), q)
	}
	for trial := 0; trial < 4; trial++ {
		// x2y: different sizes on both sides, about 300 x 900.
		x := zipfSizes(rng, 280+rng.Intn(40), 30)
		y := zipfSizes(rng, 850+rng.Intn(100), 30)
		checkSolveMatchesReference(t, core.MustNewInputSet(x), core.MustNewInputSet(y), halfBinsCapacity(40, 60, x, y))

		// x2y_big: every X input above q/2, many small Y inputs.
		y = zipfSizes(rng, 550+rng.Intn(100), 20)
		q := halfBinsCapacity(12, 80, y)
		x = make([]core.Size, 30+rng.Intn(10))
		for i := range x {
			x[i] = q/2 + 1 + core.Size(rng.Intn(int(q/8)))
		}
		checkSolveMatchesReference(t, core.MustNewInputSet(x), core.MustNewInputSet(y), q)
	}
}

// TestSplitCandidatesProportionalShareAtByteSizes: with sizes in bytes the
// product q*ΣX leaves 64 bits (8 GiB times 2 TiB is 2^74, which wraps to 0),
// and the proportional candidate used to drop out of the sweep.
func TestSplitCandidatesProportionalShareAtByteSizes(t *testing.T) {
	const GiB = core.Size(1) << 30
	for _, tc := range []struct {
		nx, ny int
		w, q   core.Size
	}{
		{2048, 5120, GiB, 8 * GiB}, // 2 TiB against 5 TiB
		{3000, 4000, 3 * GiB, 7*GiB + 12345},
		{3, 4, 5, 40}, // small sizes still divide as before
	} {
		xs, _ := core.UniformInputSet(tc.nx, tc.w)
		ys, _ := core.UniformInputSet(tc.ny, tc.w)
		totX, totY := big.NewInt(int64(xs.TotalSize())), big.NewInt(int64(ys.TotalSize()))
		share := new(big.Int).Mul(big.NewInt(int64(tc.q)), totX)
		share.Div(share, new(big.Int).Add(totX, totY))
		want := core.Size(share.Int64())
		if !slices.Contains(splitCandidates(xs, ys, tc.q), want) {
			t.Errorf("%d x %d inputs of %d, q=%d: the proportional share %d is not among the candidates %v",
				tc.nx, tc.ny, tc.w, tc.q, want, splitCandidates(xs, ys, tc.q))
		}
	}
}

// FuzzX2YSolve feeds arbitrary byte strings as the two sides' sizes and one
// byte as the capacity: Solve either fails or returns a schema that passes
// ValidateX2Y, respects the lower bound and equals the reference sweep's.
func FuzzX2YSolve(f *testing.F) {
	f.Add([]byte{3, 2, 4}, []byte{1, 5, 2, 2}, byte(10))
	f.Add([]byte{40, 35}, []byte{1, 2, 3, 1, 2, 3, 4}, byte(50))
	f.Add([]byte{1, 1, 1}, []byte{60, 60, 70, 3}, byte(90))
	f.Add([]byte{9}, []byte{9}, byte(8))
	f.Add([]byte{}, []byte{1}, byte(4))
	f.Fuzz(func(t *testing.T, rawX, rawY []byte, qRaw byte) {
		q := core.Size(qRaw)%200 + 2
		side := func(raw []byte) *core.InputSet {
			if len(raw) > 48 {
				raw = raw[:48]
			}
			sizes := make([]core.Size, len(raw))
			for i, b := range raw {
				sizes[i] = core.Size(b)%(q+q/8) + 1 // some above q/2, a few above q
			}
			set, err := core.NewInputSet(sizes)
			if err != nil && !errors.Is(err, core.ErrEmptyInputSet) {
				t.Fatalf("unexpected input-set error: %v", err)
			}
			return set
		}
		xs, ys := side(rawX), side(rawY)
		if xs == nil || ys == nil {
			return
		}
		checkSolveMatchesReference(t, xs, ys, q)
		if ms, err := Solve(xs, ys, q); err == nil {
			if lb := LowerBounds(xs, ys, q); ms.NumReducers() < lb.Reducers {
				t.Fatalf("x=%v y=%v q=%d: %d reducers beat the lower bound %d", xs.Sizes(), ys.Sizes(), q, ms.NumReducers(), lb.Reducers)
			}
		}
	})
}
