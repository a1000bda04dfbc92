package core

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewInputSet(t *testing.T) {
	s, err := NewInputSet([]Size{3, 1, 2})
	if err != nil {
		t.Fatalf("NewInputSet: %v", err)
	}
	if got := s.Len(); got != 3 {
		t.Errorf("Len() = %d, want 3", got)
	}
	if got := s.TotalSize(); got != 6 {
		t.Errorf("TotalSize() = %d, want 6", got)
	}
	if got := s.MaxSize(); got != 3 {
		t.Errorf("MaxSize() = %d, want 3", got)
	}
	if got := s.MinSize(); got != 1 {
		t.Errorf("MinSize() = %d, want 1", got)
	}
	if got := s.Size(1); got != 1 {
		t.Errorf("Size(1) = %d, want 1", got)
	}
	if got := s.Input(2); got.ID != 2 || got.Size != 2 {
		t.Errorf("Input(2) = %+v, want {2 2}", got)
	}
}

func TestNewInputSetErrors(t *testing.T) {
	if _, err := NewInputSet(nil); !errors.Is(err, ErrEmptyInputSet) {
		t.Errorf("empty set error = %v, want ErrEmptyInputSet", err)
	}
	if _, err := NewInputSet([]Size{1, 0, 2}); !errors.Is(err, ErrNonPositiveSize) {
		t.Errorf("zero size error = %v, want ErrNonPositiveSize", err)
	}
	if _, err := NewInputSet([]Size{-5}); !errors.Is(err, ErrNonPositiveSize) {
		t.Errorf("negative size error = %v, want ErrNonPositiveSize", err)
	}
}

// TestNewInputSetRefusesWrappingTotal: three sizes of 4e18 sum past
// math.MaxInt64, and a wrapped total made every "fits in one reducer" check
// pass with a negative load.
func TestNewInputSetRefusesWrappingTotal(t *testing.T) {
	if _, err := NewInputSet([]Size{4e18, 4e18, 4e18}); !errors.Is(err, ErrTotalTooLarge) {
		t.Errorf("wrapping total error = %v, want ErrTotalTooLarge", err)
	}
	s, err := NewInputSet([]Size{4e18, 4e18, math.MaxInt64 - 8e18})
	if err != nil {
		t.Fatalf("total of exactly math.MaxInt64: %v", err)
	}
	if s.TotalSize() != math.MaxInt64 {
		t.Errorf("TotalSize() = %d, want %d", s.TotalSize(), int64(math.MaxInt64))
	}
}

func TestMustNewInputSetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNewInputSet did not panic on invalid sizes")
		}
	}()
	MustNewInputSet([]Size{0})
}

func TestUniformInputSet(t *testing.T) {
	s, err := UniformInputSet(5, 7)
	if err != nil {
		t.Fatalf("UniformInputSet: %v", err)
	}
	if s.Len() != 5 || s.TotalSize() != 35 || s.MinSize() != 7 || s.MaxSize() != 7 {
		t.Errorf("unexpected uniform set: len=%d total=%d", s.Len(), s.TotalSize())
	}
	if _, err := UniformInputSet(0, 7); !errors.Is(err, ErrEmptyInputSet) {
		t.Errorf("UniformInputSet(0) error = %v, want ErrEmptyInputSet", err)
	}
}

func TestInputsAndSizesAreCopies(t *testing.T) {
	s := MustNewInputSet([]Size{1, 2, 3})
	in := s.Inputs()
	in[0].Size = 99
	if s.Size(0) != 1 {
		t.Error("mutating Inputs() copy changed the set")
	}
	sz := s.Sizes()
	sz[1] = 99
	if s.Size(1) != 2 {
		t.Error("mutating Sizes() copy changed the set")
	}
	if !reflect.DeepEqual(s.Sizes(), []Size{1, 2, 3}) {
		t.Errorf("Sizes() = %v, want [1 2 3]", s.Sizes())
	}
}

func TestIDsBySizeOrdering(t *testing.T) {
	s := MustNewInputSet([]Size{5, 2, 9, 2, 7})
	desc := s.IDsBySizeDescending()
	want := []int{2, 4, 0, 1, 3}
	if !reflect.DeepEqual(desc, want) {
		t.Errorf("IDsBySizeDescending() = %v, want %v", desc, want)
	}
	asc := s.IDsBySizeAscending()
	wantAsc := []int{3, 1, 0, 4, 2}
	if !reflect.DeepEqual(asc, wantAsc) {
		t.Errorf("IDsBySizeAscending() = %v, want %v", asc, wantAsc)
	}
}

func TestIDsBySizeDescendingIsStable(t *testing.T) {
	s := MustNewInputSet([]Size{4, 4, 4, 4})
	if got := s.IDsBySizeDescending(); !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Errorf("ties not broken by ID: %v", got)
	}
}

func TestSplitBySize(t *testing.T) {
	s := MustNewInputSet([]Size{10, 3, 8, 5, 1})
	big, small := s.SplitBySize(5)
	if !reflect.DeepEqual(big, []int{0, 2}) {
		t.Errorf("big = %v, want [0 2]", big)
	}
	if !reflect.DeepEqual(small, []int{1, 3, 4}) {
		t.Errorf("small = %v, want [1 3 4]", small)
	}
}

func TestCountFitting(t *testing.T) {
	s := MustNewInputSet([]Size{5, 2, 9, 2, 7})
	for budget, want := range map[Size]int{-1: 0, 0: 0, 1: 0, 2: 1, 4: 2, 8: 2, 9: 3, 25: 5} {
		if got := s.CountFitting(budget); got != want {
			t.Errorf("CountFitting(%d) = %d, want %d", budget, got, want)
		}
	}
}

func TestInputString(t *testing.T) {
	in := Input{ID: 3, Size: 12}
	if got := in.String(); got != "input(3, size=12)" {
		t.Errorf("String() = %q", got)
	}
}

// Property: IDsBySizeDescending always returns a permutation of 0..m-1 in
// non-increasing size order.
func TestIDsBySizeDescendingProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		sizes := make([]Size, len(raw))
		for i, r := range raw {
			sizes[i] = Size(r)%100 + 1
		}
		s := MustNewInputSet(sizes)
		ids := s.IDsBySizeDescending()
		if len(ids) != len(sizes) {
			return false
		}
		seen := make([]bool, len(sizes))
		for _, id := range ids {
			if id < 0 || id >= len(sizes) || seen[id] {
				return false
			}
			seen[id] = true
		}
		for i := 1; i < len(ids); i++ {
			if s.Size(ids[i-1]) < s.Size(ids[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: SplitBySize partitions all IDs and respects the threshold.
func TestSplitBySizeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		m := 1 + rng.Intn(50)
		sizes := make([]Size, m)
		for i := range sizes {
			sizes[i] = Size(1 + rng.Intn(40))
		}
		s := MustNewInputSet(sizes)
		threshold := Size(rng.Intn(45))
		big, small := s.SplitBySize(threshold)
		if len(big)+len(small) != m {
			t.Fatalf("partition sizes %d+%d != %d", len(big), len(small), m)
		}
		all := append(append([]int(nil), big...), small...)
		sort.Ints(all)
		for i, id := range all {
			if id != i {
				t.Fatalf("partition is not a permutation: %v", all)
			}
		}
		for _, id := range big {
			if s.Size(id) <= threshold {
				t.Fatalf("big input %d has size %d <= threshold %d", id, s.Size(id), threshold)
			}
		}
		for _, id := range small {
			if s.Size(id) > threshold {
				t.Fatalf("small input %d has size %d > threshold %d", id, s.Size(id), threshold)
			}
		}
	}
}
