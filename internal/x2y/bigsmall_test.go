package x2y

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestBigSmallSplitHeavyHittersOnX(t *testing.T) {
	// Two heavy hitters on X (bigger than q/2) plus small X inputs; Y small.
	xs := core.MustNewInputSet([]core.Size{7, 6, 2, 1})
	ys := core.MustNewInputSet([]core.Size{1, 2, 1, 1, 2})
	q := core.Size(10)
	ms, err := BigSmallSplit(xs, ys, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.ValidateX2Y(xs, ys); err != nil {
		t.Errorf("ValidateX2Y: %v", err)
	}
}

func TestBigSmallSplitHeavyHittersOnY(t *testing.T) {
	xs := core.MustNewInputSet([]core.Size{1, 2, 1})
	ys := core.MustNewInputSet([]core.Size{8, 7, 1, 2})
	q := core.Size(10)
	ms, err := BigSmallSplit(xs, ys, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.ValidateX2Y(xs, ys); err != nil {
		t.Errorf("ValidateX2Y: %v", err)
	}
}

// TestBigSmallSplitRefusesWithoutBigInputs: with no input above q/2 on
// either side there is nothing for BigSmallSplit to split, and the error
// points at Solve, which serves every instance.
func TestBigSmallSplitRefusesWithoutBigInputs(t *testing.T) {
	xs := core.MustNewInputSet([]core.Size{2, 3})
	ys := core.MustNewInputSet([]core.Size{2, 3})
	if ms, err := BigSmallSplit(xs, ys, 10); err == nil || !strings.Contains(err.Error(), "use Solve") {
		t.Errorf("BigSmallSplit = %v, %v; want an error naming Solve", ms, err)
	}
}

func TestBigSmallSplitInfeasibleBothSidesBig(t *testing.T) {
	xs := core.MustNewInputSet([]core.Size{7, 1})
	ys := core.MustNewInputSet([]core.Size{7, 1})
	if _, err := BigSmallSplit(xs, ys, 10); !errors.Is(err, core.ErrInfeasible) {
		t.Errorf("BigSmallSplit = %v, want ErrInfeasible", err)
	}
}

func TestBigSmallSplitEmptySide(t *testing.T) {
	xs := core.MustNewInputSet([]core.Size{2})
	ms, err := BigSmallSplit(xs, &core.InputSet{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ms.NumReducers() != 0 {
		t.Errorf("empty side: %d reducers, want 0", ms.NumReducers())
	}
}

func TestBigSmallSplitOnlyBigInputs(t *testing.T) {
	// Every X input is a heavy hitter; Y is a sea of small inputs. This is
	// the skew-join shape: each heavy hitter must meet all of Y.
	xs := core.MustNewInputSet([]core.Size{9, 8, 7})
	ys := core.MustNewInputSet([]core.Size{1, 1, 1, 1, 1, 1, 1, 1})
	q := core.Size(12)
	ms, err := BigSmallSplit(xs, ys, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.ValidateX2Y(xs, ys); err != nil {
		t.Fatalf("ValidateX2Y: %v", err)
	}
	// Each big input i needs at least ceil(W_Y / (q - w_i)) reducers.
	xc := make([]int, xs.Len())
	for _, r := range ms.Reducers {
		for _, id := range r.XInputs {
			xc[id]++
		}
	}
	for i := 0; i < xs.Len(); i++ {
		room := q - xs.Size(i)
		min := int((ys.TotalSize() + room - 1) / room)
		if xc[i] < min {
			t.Errorf("big input %d replicated %d times, want >= %d", i, xc[i], min)
		}
	}
}

func TestBigSmallSplitRandomValid(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 30; trial++ {
		q := core.Size(20 + rng.Intn(40))
		nBig := 1 + rng.Intn(3)
		nSmallX := rng.Intn(10)
		ny := 1 + rng.Intn(15)
		maxBig := q - 1
		xSizes := make([]core.Size, 0, nBig+nSmallX)
		for i := 0; i < nBig; i++ {
			xSizes = append(xSizes, q/2+1+core.Size(rng.Int63n(int64(maxBig-q/2))))
		}
		for i := 0; i < nSmallX; i++ {
			xSizes = append(xSizes, core.Size(1+rng.Int63n(int64(q/4))))
		}
		// Y inputs must fit beside the biggest X input.
		var biggest core.Size
		for _, w := range xSizes {
			if w > biggest {
				biggest = w
			}
		}
		maxY := q - biggest
		if maxY < 1 {
			maxY = 1
		}
		ySizes := make([]core.Size, ny)
		for i := range ySizes {
			ySizes[i] = core.Size(1 + rng.Int63n(int64(maxY)))
		}
		xs := core.MustNewInputSet(xSizes)
		ys := core.MustNewInputSet(ySizes)
		ms, err := BigSmallSplit(xs, ys, q)
		if err != nil {
			t.Fatalf("q=%d x=%v y=%v: %v", q, xSizes, ySizes, err)
		}
		if err := ms.ValidateX2Y(xs, ys); err != nil {
			t.Fatalf("q=%d x=%v y=%v invalid: %v", q, xSizes, ySizes, err)
		}
		lb := LowerBounds(xs, ys, q)
		if ms.NumReducers() < lb.Reducers {
			t.Fatalf("schema uses %d reducers, below lower bound %d", ms.NumReducers(), lb.Reducers)
		}
	}
}
