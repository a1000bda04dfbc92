package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Size is the size of an input in abstract units. The paper measures the
// reducer capacity q and every input size in the same unit (for example
// bytes, or kilobytes); the algorithms only ever compare and add sizes, so
// the unit is irrelevant as long as it is consistent.
type Size int64

// Input is a single MapReduce input: an opaque identifier together with its
// size. For the A2A problem the identifier indexes one set; for the X2Y
// problem identifiers are unique within their side.
type Input struct {
	// ID identifies the input within its input set. IDs are dense indexes
	// starting at zero so that algorithms can use them as slice offsets.
	ID int
	// Size is the size of the input. It must be positive: an input that
	// occupies no space constrains nothing and should simply be appended to
	// any reducer after the fact.
	Size Size
}

// InputSet is an immutable collection of inputs, indexed by ID.
type InputSet struct {
	inputs []Input
	total  Size
	maxSz  Size
	minSz  Size
}

// Common construction errors.
var (
	// ErrEmptyInputSet is returned when an input set with no inputs is built.
	ErrEmptyInputSet = errors.New("core: input set has no inputs")
	// ErrNonPositiveSize is returned when an input has size <= 0.
	ErrNonPositiveSize = errors.New("core: input size must be positive")
	// ErrTotalTooLarge is returned when the sizes of an input set sum past
	// the largest Size, where every comparison against the total would wrap.
	ErrTotalTooLarge = errors.New("core: total input size exceeds the largest size")
)

// NewInputSet builds an InputSet from raw sizes. The i-th size becomes the
// input with ID i. It returns an error if sizes is empty, any size is not
// positive, or the sizes sum past math.MaxInt64.
func NewInputSet(sizes []Size) (*InputSet, error) {
	if len(sizes) == 0 {
		return nil, ErrEmptyInputSet
	}
	inputs := make([]Input, len(sizes))
	var total Size
	maxSz := sizes[0]
	minSz := sizes[0]
	for i, s := range sizes {
		if s <= 0 {
			return nil, fmt.Errorf("%w: input %d has size %d", ErrNonPositiveSize, i, s)
		}
		if s > math.MaxInt64-total {
			return nil, fmt.Errorf("%w: inputs 0..%d sum past %d", ErrTotalTooLarge, i, Size(math.MaxInt64))
		}
		inputs[i] = Input{ID: i, Size: s}
		total += s
		if s > maxSz {
			maxSz = s
		}
		if s < minSz {
			minSz = s
		}
	}
	return &InputSet{inputs: inputs, total: total, maxSz: maxSz, minSz: minSz}, nil
}

// MustNewInputSet is NewInputSet that panics on error. It is intended for
// tests and examples where the sizes are literals.
func MustNewInputSet(sizes []Size) *InputSet {
	s, err := NewInputSet(sizes)
	if err != nil {
		panic(err)
	}
	return s
}

// UniformInputSet builds an input set of m inputs that all have size w.
func UniformInputSet(m int, w Size) (*InputSet, error) {
	if m <= 0 {
		return nil, ErrEmptyInputSet
	}
	sizes := make([]Size, m)
	for i := range sizes {
		sizes[i] = w
	}
	return NewInputSet(sizes)
}

// Len returns the number of inputs.
func (s *InputSet) Len() int { return len(s.inputs) }

// Input returns the input with the given ID.
func (s *InputSet) Input(id int) Input { return s.inputs[id] }

// Size returns the size of the input with the given ID.
func (s *InputSet) Size(id int) Size { return s.inputs[id].Size }

// TotalSize returns the sum of all input sizes.
func (s *InputSet) TotalSize() Size { return s.total }

// MaxSize returns the largest input size.
func (s *InputSet) MaxSize() Size { return s.maxSz }

// MinSize returns the smallest input size.
func (s *InputSet) MinSize() Size { return s.minSz }

// Inputs returns a copy of the inputs in ID order.
func (s *InputSet) Inputs() []Input {
	out := make([]Input, len(s.inputs))
	copy(out, s.inputs)
	return out
}

// Sizes returns a copy of the sizes in ID order.
func (s *InputSet) Sizes() []Size {
	out := make([]Size, len(s.inputs))
	for i, in := range s.inputs {
		out[i] = in.Size
	}
	return out
}

// IDsBySizeDescending returns the input IDs ordered from largest to smallest
// size, breaking ties by ascending ID so the order is deterministic.
func (s *InputSet) IDsBySizeDescending() []int {
	ids := make([]int, len(s.inputs))
	for i := range ids {
		ids[i] = i
	}
	slices.SortFunc(ids, func(a, b int) int {
		if c := cmp.Compare(s.inputs[b].Size, s.inputs[a].Size); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return ids
}

// IDsBySizeAscending returns the input IDs ordered from smallest to largest
// size, breaking ties by ascending ID.
func (s *InputSet) IDsBySizeAscending() []int {
	ids := s.IDsBySizeDescending()
	for i, j := 0, len(ids)-1; i < j; i, j = i+1, j-1 {
		ids[i], ids[j] = ids[j], ids[i]
	}
	return ids
}

// CountFitting returns how many inputs fit together within budget, taken
// smallest first: the most inputs any reducer with that room can hold.
func (s *InputSet) CountFitting(budget Size) int {
	count := 0
	for _, id := range s.IDsBySizeAscending() {
		if s.inputs[id].Size > budget {
			break
		}
		budget -= s.inputs[id].Size
		count++
	}
	return count
}

// SplitBySize partitions the input IDs into those with size greater than the
// threshold ("big" inputs in the paper's terminology, typically q/2) and the
// rest ("small" inputs). Both slices are in ascending ID order.
func (s *InputSet) SplitBySize(threshold Size) (big, small []int) {
	for _, in := range s.inputs {
		if in.Size > threshold {
			big = append(big, in.ID)
		} else {
			small = append(small, in.ID)
		}
	}
	return big, small
}

// String implements fmt.Stringer for Input.
func (in Input) String() string {
	return fmt.Sprintf("input(%d, size=%d)", in.ID, in.Size)
}
