// Package workload generates deterministic synthetic workloads for the tests,
// the root benchmarks and the application CLIs: input-size distributions for
// the mapping-schema algorithms, document corpora for the similarity-join
// application, skewed relations for the skew-join application, and churn
// traces for live sessions. Every generator takes an explicit seed so runs are
// reproducible.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
)

// Distribution names a family of input-size distributions.
type Distribution int

const (
	// Constant: every input has the same size.
	Constant Distribution = iota
	// Uniform: sizes drawn uniformly from [Min, Max].
	Uniform
	// Zipf: sizes follow a Zipf law with exponent Skew over [Min, Max];
	// most inputs are near Min with a heavy tail toward Max.
	Zipf
	// Exponential: sizes are exponentially distributed around Mean, clamped
	// to [Min, Max].
	Exponential
	// Bimodal: a fraction BigFraction of the inputs take size Max, the rest
	// take size Min — the canonical "a few huge inputs" shape.
	Bimodal
)

// String implements fmt.Stringer.
func (d Distribution) String() string {
	switch d {
	case Constant:
		return "constant"
	case Uniform:
		return "uniform"
	case Zipf:
		return "zipf"
	case Exponential:
		return "exponential"
	case Bimodal:
		return "bimodal"
	default:
		return fmt.Sprintf("Distribution(%d)", int(d))
	}
}

// SizeSpec describes an input-size distribution.
type SizeSpec struct {
	Dist Distribution
	// Min and Max bound the sizes (inclusive). Min must be >= 1.
	Min, Max core.Size
	// Mean is used by Exponential; 0 means (Min+Max)/2.
	Mean float64
	// Skew is the Zipf exponent; values <= 1 are clamped to 1.01.
	Skew float64
	// BigFraction is used by Bimodal; 0 means 0.05.
	BigFraction float64
}

// Validate checks the spec.
func (s SizeSpec) Validate() error {
	if s.Min < 1 {
		return fmt.Errorf("workload: Min must be >= 1, got %d", s.Min)
	}
	if s.Max < s.Min {
		return fmt.Errorf("workload: Max (%d) must be >= Min (%d)", s.Max, s.Min)
	}
	if s.BigFraction < 0 || s.BigFraction > 1 {
		return fmt.Errorf("workload: BigFraction must be in [0,1], got %v", s.BigFraction)
	}
	return nil
}

// Sizes generates m input sizes according to the spec, deterministically for
// a given seed.
func Sizes(spec SizeSpec, m int, seed int64) ([]core.Size, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if m <= 0 {
		return nil, fmt.Errorf("workload: m must be positive, got %d", m)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]core.Size, m)
	span := int64(spec.Max-spec.Min) + 1
	switch spec.Dist {
	case Constant:
		for i := range out {
			out[i] = spec.Min
		}
	case Uniform:
		for i := range out {
			out[i] = spec.Min + core.Size(rng.Int63n(span))
		}
	case Zipf:
		skew := spec.Skew
		if skew <= 1 {
			skew = 1.01
		}
		z := rand.NewZipf(rng, skew, 1, uint64(span-1))
		for i := range out {
			out[i] = spec.Min + core.Size(z.Uint64())
		}
	case Exponential:
		mean := spec.Mean
		if mean <= 0 {
			mean = float64(spec.Min+spec.Max) / 2
		}
		for i := range out {
			v := core.Size(math.Round(rng.ExpFloat64() * mean))
			if v < spec.Min {
				v = spec.Min
			}
			if v > spec.Max {
				v = spec.Max
			}
			out[i] = v
		}
	case Bimodal:
		frac := spec.BigFraction
		if frac == 0 {
			frac = 0.05
		}
		for i := range out {
			if rng.Float64() < frac {
				out[i] = spec.Max
			} else {
				out[i] = spec.Min
			}
		}
	default:
		return nil, fmt.Errorf("workload: unknown distribution %v", spec.Dist)
	}
	return out, nil
}

// InputSet generates an input set directly from a size spec.
func InputSet(spec SizeSpec, m int, seed int64) (*core.InputSet, error) {
	sizes, err := Sizes(spec, m, seed)
	if err != nil {
		return nil, err
	}
	return core.NewInputSet(sizes)
}
