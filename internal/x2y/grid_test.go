package x2y

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/binpack"
	"repro/internal/core"
)

func TestGridSmallInstance(t *testing.T) {
	xs := core.MustNewInputSet([]core.Size{3, 2, 4})
	ys := core.MustNewInputSet([]core.Size{1, 5, 2, 2})
	q := core.Size(10)
	ms, err := GridWithSplit(xs, ys, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.ValidateX2Y(xs, ys); err != nil {
		t.Errorf("ValidateX2Y: %v", err)
	}
}

func TestGridReducerCountMatchesBins(t *testing.T) {
	xs := core.MustNewInputSet([]core.Size{3, 3, 3, 3})
	ys := core.MustNewInputSet([]core.Size{4, 4, 4})
	q := core.Size(10)
	ms, err := GridWithSplit(xs, ys, q)
	if err != nil {
		t.Fatal(err)
	}
	// One reducer per (X-bin, Y-bin) pair of the winning split.
	xBins, yBins := map[string]bool{}, map[string]bool{}
	for _, r := range ms.Reducers {
		xBins[fmt.Sprint(r.XInputs)] = true
		yBins[fmt.Sprint(r.YInputs)] = true
	}
	if want := len(xBins) * len(yBins); ms.NumReducers() != want {
		t.Errorf("reducers = %d, want %d X-bins x %d Y-bins", ms.NumReducers(), len(xBins), len(yBins))
	}
}

func TestGridRejectsBigInputs(t *testing.T) {
	xs := core.MustNewInputSet([]core.Size{6, 2})
	ys := core.MustNewInputSet([]core.Size{2, 2})
	// The even split leaves X no room for its 6.
	if _, _, err := packSplit(xs, ys, binpack.ItemsFromInputSet(xs), binpack.ItemsFromInputSet(ys), 10, 5); !errors.Is(err, ErrHasBigInputs) {
		t.Errorf("packSplit = %v, want ErrHasBigInputs", err)
	}
}

func TestGridInfeasible(t *testing.T) {
	xs := core.MustNewInputSet([]core.Size{8})
	ys := core.MustNewInputSet([]core.Size{8})
	if _, err := GridWithSplit(xs, ys, 10); !errors.Is(err, core.ErrInfeasible) {
		t.Errorf("GridWithSplit = %v, want ErrInfeasible", err)
	}
}

func TestGridEmptySide(t *testing.T) {
	xs := core.MustNewInputSet([]core.Size{2})
	ms, err := GridWithSplit(xs, &core.InputSet{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ms.NumReducers() != 0 {
		t.Errorf("empty Y side: %d reducers, want 0", ms.NumReducers())
	}
}

func TestGridSplitInvalidShare(t *testing.T) {
	xs := core.MustNewInputSet([]core.Size{2})
	ys := core.MustNewInputSet([]core.Size{2})
	xItems, yItems := binpack.ItemsFromInputSet(xs), binpack.ItemsFromInputSet(ys)
	if _, _, err := packSplit(xs, ys, xItems, yItems, 10, 0); err == nil {
		t.Error("packSplit accepted a zero X share")
	}
	if _, _, err := packSplit(xs, ys, xItems, yItems, 10, 10); err == nil {
		t.Error("packSplit accepted a full-capacity X share")
	}
}

func TestGridWithSplitAtLeastAsGoodAsEvenSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 25; trial++ {
		nx, ny := 2+rng.Intn(20), 2+rng.Intn(20)
		q := core.Size(20 + rng.Intn(40))
		xSizes := make([]core.Size, nx)
		ySizes := make([]core.Size, ny)
		for i := range xSizes {
			xSizes[i] = core.Size(1 + rng.Int63n(int64(q/4)))
		}
		for i := range ySizes {
			ySizes[i] = core.Size(1 + rng.Int63n(int64(q/2)))
		}
		xs := core.MustNewInputSet(xSizes)
		ys := core.MustNewInputSet(ySizes)
		xPack, yPack, err := packSplit(xs, ys, binpack.ItemsFromInputSet(xs), binpack.ItemsFromInputSet(ys), q, q/2)
		if err != nil {
			t.Fatal(err)
		}
		even := xPack.NumBins() * yPack.NumBins()
		best, err := GridWithSplit(xs, ys, q)
		if err != nil {
			t.Fatal(err)
		}
		if err := best.ValidateX2Y(xs, ys); err != nil {
			t.Fatalf("best-split schema invalid: %v", err)
		}
		if best.NumReducers() > even {
			t.Errorf("best-split used %d reducers, even split %d", best.NumReducers(), even)
		}
	}
}

func TestGridWithSplitAsymmetricSides(t *testing.T) {
	// X is tiny, Y is bulky: an uneven split should let all of X share one
	// bin and cut the reducer count versus the even split.
	xs := core.MustNewInputSet([]core.Size{1, 1, 1, 1})
	ys := core.MustNewInputSet([]core.Size{7, 7, 7, 7, 7, 7})
	q := core.Size(12)
	best, err := GridWithSplit(xs, ys, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := best.ValidateX2Y(xs, ys); err != nil {
		t.Fatalf("ValidateX2Y: %v", err)
	}
	if best.NumReducers() > 6 {
		t.Errorf("best-split used %d reducers, want <= 6 (one X bin x six Y bins)", best.NumReducers())
	}
}
