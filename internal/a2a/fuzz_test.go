package a2a

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
)

// FuzzSolve feeds arbitrary byte strings interpreted as input sizes (and one
// byte as the capacity scale) into the solver and checks the fundamental
// invariant: whatever Solve returns either is a valid schema that respects
// the lower bounds or is an error — never a silently invalid schema.
func FuzzSolve(f *testing.F) {
	f.Add([]byte{3, 3, 2, 2, 4, 1}, byte(10))
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1}, byte(4))
	f.Add([]byte{30, 1, 2, 3}, byte(40))
	f.Add([]byte{}, byte(1))
	// Every size at most q/3, so Solve prices designs over bins: a plane plus
	// a remainder with as many reducers as BinPackPair and less
	// communication, a triple cover and a plane, in that order.
	f.Add([]byte{19, 3, 7, 1, 0, 12, 5, 9, 2, 15, 4, 8, 0, 1, 6, 11, 3, 2, 19, 10, 7, 0, 5, 13, 1, 4, 9, 2, 17, 6}, byte(58))
	f.Add([]byte{2, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 2, 1, 0, 2, 1, 0, 2, 1, 0, 2, 1, 0}, byte(7))
	f.Add([]byte{9, 1, 4, 0, 7, 2, 9, 3, 0, 5, 8, 1, 6, 2, 0, 9, 4, 1, 3, 7, 0, 2, 5, 9, 1, 6, 0, 3, 8, 2, 4, 0,
		1, 7, 9, 2, 5, 0, 3, 6, 9, 1, 4, 0, 7, 2, 9, 3, 0, 5, 8, 1, 6, 2, 0, 9, 4, 1, 3, 7, 0, 2, 5, 9}, byte(64))
	// Few bins of q/2: three or four, where a design prices the same as the
	// pairs and the loop skips it, and seven or eight, where a plane plus a
	// remainder has as many reducers as the pairs and less communication.
	f.Add([]byte{3, 24, 20, 23, 13, 22, 24, 11}, byte(77))
	f.Add([]byte{4, 0, 0, 9, 14, 19, 0, 10, 3, 3, 9, 12}, byte(86))
	f.Add([]byte{0, 19, 20, 2, 19, 2, 7, 1, 3, 16, 2, 19, 13}, byte(68))
	f.Add([]byte{13, 13, 10, 16, 27, 14, 14, 9, 8, 20, 14, 0, 16, 23, 23, 26, 10}, byte(86))
	f.Add([]byte{3, 0, 0, 1, 8, 8, 18, 1, 13, 16, 8, 1, 13, 0, 17, 13, 13, 4, 13, 3, 7, 8, 12, 0}, byte(56))
	// One input above q/2 beside small inputs at most q/3: BigSmallSplit
	// covers the small inputs' pairs with Solve over them, here a plane plus
	// a remainder, a triple cover, a plane and the groups over bins, each
	// with fewer reducers than BinPackPair's pairs.
	f.Add([]byte{19, 7, 6, 19, 19, 9, 7, 8, 8, 15, 2, 19, 14, 9, 17, 3, 6, 16, 4, 16, 16, 5, 13, 1, 4, 11, 8, 19, 6,
		6, 1, 7, 17, 20, 14, 18, 1, 12, 2, 10, 13, 18, 1, 87, 12, 1}, byte(166))
	f.Add([]byte{7, 29, 12, 16, 16, 21, 1, 24, 25, 20, 3, 26, 8, 12, 28, 29, 12, 4, 17, 25, 22, 5, 10, 16, 31, 30,
		27, 7, 59, 3, 12, 30, 3, 16, 19, 19, 3, 17, 32, 20, 5, 6, 22, 3, 26, 9, 29}, byte(99))
	f.Add([]byte{17, 49, 5, 50, 38, 16, 49, 19, 92, 41, 22, 44, 21, 8, 19}, byte(153))
	f.Add([]byte{3, 40, 2, 2, 7, 3, 6, 7, 5, 5, 2, 1, 3, 7, 3, 1, 2, 2, 4, 6, 6, 1, 6, 4, 5, 6, 6, 0, 5, 5}, byte(71))
	f.Fuzz(func(t *testing.T, raw []byte, qRaw byte) {
		if len(raw) > 64 {
			raw = raw[:64]
		}
		q := core.Size(qRaw)%200 + 2
		sizes := make([]core.Size, 0, len(raw))
		for _, b := range raw {
			// Keep sizes positive; zero would be rejected at construction.
			sizes = append(sizes, core.Size(b)%q+1)
		}
		if len(sizes) == 0 {
			return
		}
		set, err := core.NewInputSet(sizes)
		if err != nil {
			t.Fatalf("unexpected input-set error: %v", err)
		}
		ms, err := Solve(set, q)
		if err != nil {
			// Infeasible instances are allowed to fail; nothing more to check.
			return
		}
		if verr := ms.ValidateA2A(set); verr != nil {
			t.Fatalf("Solve returned an invalid schema for sizes=%v q=%d: %v", sizes, q, verr)
		}
		lb := LowerBounds(set, q)
		if set.Len() > 1 && ms.NumReducers() < lb.Reducers {
			t.Fatalf("schema beats the lower bound: %d < %d", ms.NumReducers(), lb.Reducers)
		}
	})
}

// FuzzGreedyMatchesReference feeds arbitrary byte strings as input sizes and
// one byte as the capacity: Greedy must return refGreedy's schema on every
// feasible instance and ErrInfeasible on the others.
func FuzzGreedyMatchesReference(f *testing.F) {
	f.Add([]byte{3, 3, 2, 2, 4, 1}, byte(10))
	f.Add(make([]byte, 70), byte(12))
	f.Add([]byte{30, 1, 2, 3}, byte(40))
	f.Add([]byte{9, 9}, byte(8))
	f.Fuzz(func(t *testing.T, raw []byte, qRaw byte) {
		if len(raw) > 100 {
			raw = raw[:100] // past one word; the reference is cubic
		}
		q := core.Size(qRaw)%200 + 2
		sizes := make([]core.Size, len(raw))
		for i, b := range raw {
			sizes[i] = core.Size(b)%(q+q/8) + 1 // some above q/2, a few above q
		}
		if len(sizes) == 0 {
			return
		}
		set := core.MustNewInputSet(sizes)
		got, err := Greedy(set, q)
		if CheckFeasible(set, q) != nil {
			if !errors.Is(err, core.ErrInfeasible) {
				t.Fatalf("sizes=%v q=%d: infeasible, but err = %v", sizes, q, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("sizes=%v q=%d: %v", sizes, q, err)
		}
		if want := refGreedy(set, q); !reflect.DeepEqual(got, want) {
			t.Fatalf("sizes=%v q=%d: schema differs from the reference (%d reducers, reference %d)",
				sizes, q, got.NumReducers(), want.NumReducers())
		}
	})
}

// FuzzExactMatchesReference feeds arbitrary byte strings as input sizes, one
// byte as the capacity and one word as the node budget: Exact must return
// the reference's schema, node count and ErrNodeBudget verdict, or its
// error, the reference taking the inputs in the same largest-first order.
func FuzzExactMatchesReference(f *testing.F) {
	f.Add([]byte{3, 3, 2, 2, 4, 1}, byte(10), uint32(200_000))
	f.Add([]byte{14, 15, 24, 18, 17, 16, 8, 10}, byte(47), uint32(137))
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, byte(3), uint32(10))
	f.Add([]byte{30, 1, 2, 3}, byte(40), uint32(1_000))
	f.Add([]byte{9, 9}, byte(8), uint32(5))
	f.Fuzz(func(t *testing.T, raw []byte, qRaw byte, budget uint32) {
		if len(raw) == 0 || len(raw) > 12 {
			return
		}
		q := core.Size(qRaw)%60 + 2
		sizes := make([]core.Size, len(raw))
		for i, b := range raw {
			sizes[i] = core.Size(b)%(q+q/8) + 1 // some above q/2, a few above q
		}
		set := core.MustNewInputSet(sizes)
		opts := ExactOptions{MaxNodes: int(budget%200_000) + 1}
		got, gotNodes, gotErr := exact(set, q, opts)
		want, wantNodes, wantErr := refExactLargestFirst(set, q, opts)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("sizes=%v q=%d budget=%d: err = %v, reference %v", sizes, q, opts.MaxNodes, gotErr, wantErr)
		}
		if gotNodes != wantNodes {
			t.Fatalf("sizes=%v q=%d budget=%d: visited %d nodes, reference %d", sizes, q, opts.MaxNodes, gotNodes, wantNodes)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("sizes=%v q=%d budget=%d: schema differs from the reference\n got %+v\nwant %+v", sizes, q, opts.MaxNodes, got, want)
		}
	})
}
