package main

import (
	"math/rand"

	"repro/internal/core"
)

// instance is one planning problem: the sizes and the reducer capacity q.
type instance struct {
	regime  int
	problem core.Problem
	q       core.Size
	sizes   []core.Size // A2A
	x, y    []core.Size // X2Y
}

// The paper's regimes plan_cold cycles through, in op order.
const (
	regimeA2AEqual = iota // equal-sized inputs, m~2000
	regimeA2AZipf         // different-sized, every input <= q/2, m~500
	regimeA2ABig          // one input > q/2, m~300
	regimeX2Y             // different-sized both sides, ~300 x 900
	regimeX2YBig          // X inputs > q/2, small Y inputs
	regimeTiny            // m <= 12: the exact branch-and-bound members run
	numRegimes
)

var regimeNames = [numRegimes]string{"a2a_equal", "a2a_zipf", "a2a_big", "x2y", "x2y_big", "tiny"}

// instanceGen draws a reproducible stream of pairwise non-isomorphic
// instances: the planner canonicalizes by sorted size multiset, so two draws
// with the same multiset and q would be a cache hit.
type instanceGen struct {
	rng  *rand.Rand
	n    int
	seen map[uint64]struct{}
}

func newInstanceGen(seed int64) *instanceGen {
	return &instanceGen{rng: rand.New(rand.NewSource(seed)), seen: make(map[uint64]struct{})}
}

// next returns the next instance of the round-robin over regimes.
func (g *instanceGen) next() *instance {
	regime := g.n % numRegimes
	g.n++
	for {
		in := g.draw(regime)
		key := in.key()
		if _, dup := g.seen[key]; dup {
			continue
		}
		g.seen[key] = struct{}{}
		return in
	}
}

// key fingerprints the canonical form: the size multisets and q.
func (in *instance) key() uint64 {
	h := core.MixFingerprint(uint64(in.problem), uint64(in.q))
	if in.problem == core.ProblemA2A {
		return core.MixFingerprint(h, core.FingerprintSizes(in.sizes))
	}
	fx, fy := core.FingerprintSizes(in.x), core.FingerprintSizes(in.y)
	if fx > fy { // the planner orders the two sides canonically
		fx, fy = fy, fx
	}
	return core.MixFingerprint(h, fx, fy)
}

// zipfSizes draws n sizes in [1, max] with a heavy tail toward max.
func zipfSizes(rng *rand.Rand, n int, max core.Size) []core.Size {
	z := rand.NewZipf(rng, 1.5, 1, uint64(max-1))
	out := make([]core.Size, n)
	for i := range out {
		out[i] = 1 + core.Size(z.Uint64())
	}
	return out
}

func total(sizes []core.Size) core.Size {
	var t core.Size
	for _, s := range sizes {
		t += s
	}
	return t
}

// capacityFor returns the q at which the sizes fill about bins half-capacity
// bins, never below floor. Tying q to the drawn total keeps the schema shape
// (and so the quality ratios) comparable from seed to seed.
func capacityFor(sizes []core.Size, bins int, floor core.Size) core.Size {
	q := 2 * (total(sizes) + core.Size(bins) - 1) / core.Size(bins)
	if q < floor {
		q = floor
	}
	return q
}

func (g *instanceGen) draw(regime int) *instance {
	rng := g.rng
	in := &instance{regime: regime, problem: core.ProblemA2A}
	switch regime {
	case regimeA2AEqual:
		m := 1950 + rng.Intn(100)
		w := core.Size(1 + rng.Intn(40))
		in.sizes = make([]core.Size, m)
		for i := range in.sizes {
			in.sizes[i] = w
		}
		// Exactly 62 inputs fit a reducer, whatever w: this regime's
		// replication rate is by far the largest, and a varying fit would
		// move the workload's mean by half a percent from seed to seed.
		in.q = 62*w + core.Size(rng.Intn(int(w)))
	case regimeA2AZipf:
		in.sizes = zipfSizes(rng, 450+rng.Intn(100), 30)
		in.q = capacityFor(in.sizes, 24, 60)
	case regimeA2ABig:
		in.sizes = zipfSizes(rng, 280+rng.Intn(40), 20)
		in.q = capacityFor(in.sizes, 16, 40)
		// One input above q/2; every small one still fits beside it.
		in.sizes[rng.Intn(len(in.sizes))] = in.q/2 + 1 + core.Size(rng.Intn(int(in.q/8)))
	case regimeX2Y:
		in.problem = core.ProblemX2Y
		in.x = zipfSizes(rng, 280+rng.Intn(40), 30)
		in.y = zipfSizes(rng, 850+rng.Intn(100), 30)
		in.q = capacityFor(append(append([]core.Size(nil), in.x...), in.y...), 40, 60)
	case regimeX2YBig:
		in.problem = core.ProblemX2Y
		in.y = zipfSizes(rng, 550+rng.Intn(100), 20)
		in.q = capacityFor(in.y, 12, 80)
		in.x = make([]core.Size, 30+rng.Intn(10))
		for i := range in.x {
			in.x[i] = in.q/2 + 1 + core.Size(rng.Intn(int(in.q/8)))
		}
	case regimeTiny:
		// Sizes from q/8 up, so the inputs never fit one reducer and the
		// exact members always have a search to run.
		in.q = core.Size(24 + rng.Intn(40))
		in.sizes = make([]core.Size, 8+rng.Intn(5))
		for i := range in.sizes {
			in.sizes[i] = in.q/8 + core.Size(rng.Intn(int(in.q/2-in.q/8)+1))
		}
	}
	return in
}
