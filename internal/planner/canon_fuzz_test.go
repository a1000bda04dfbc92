package planner

// Fuzz and property tests of canonicalization: the mapping-schema problems
// are invariant under input permutations (and, for X2Y, under swapping the
// sides), so shuffling a request must never change its canonical fingerprint
// — and the plan served for a shuffled instance must be equivalent to the
// plan for the original.

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
)

// sizesFromBytes derives a non-empty positive size multiset from fuzz bytes.
func sizesFromBytes(raw []byte) []core.Size {
	if len(raw) == 0 {
		raw = []byte{1}
	}
	if len(raw) > 64 {
		raw = raw[:64]
	}
	sizes := make([]core.Size, len(raw))
	for i, b := range raw {
		sizes[i] = core.Size(int(b)%50 + 1)
	}
	return sizes
}

// shuffledCopy returns a deterministic permutation of sizes derived from seed.
func shuffledCopy(sizes []core.Size, seed uint64) []core.Size {
	out := append([]core.Size(nil), sizes...)
	rng := rand.New(rand.NewSource(int64(seed)))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// checkCanonicalInvariants verifies a canonical form against its request:
// sorted sizes, a true permutation, and sizes matching through it.
func checkCanonicalInvariants(t *testing.T, cn *canonical, orig []core.Size, perm []int) {
	t.Helper()
	if !slices.IsSorted(cn.sizes) {
		t.Fatalf("canonical sizes not sorted: %v", cn.sizes)
	}
	if len(perm) != len(orig) {
		t.Fatalf("permutation has %d entries for %d inputs", len(perm), len(orig))
	}
	seen := make([]bool, len(orig))
	for i, p := range perm {
		if p < 0 || p >= len(orig) || seen[p] {
			t.Fatalf("perm %v is not a permutation", perm)
		}
		seen[p] = true
		if cn.sizes[i] != orig[p] {
			t.Fatalf("canonical size %d is %d, original ID %d has %d", i, cn.sizes[i], p, orig[p])
		}
	}
}

func FuzzCanonicalizeA2AShuffleInvariance(f *testing.F) {
	f.Add([]byte{3, 5, 2, 2, 9}, uint64(1))
	f.Add([]byte{1}, uint64(42))
	f.Add([]byte{7, 7, 7, 7}, uint64(7))
	f.Fuzz(func(t *testing.T, raw []byte, seed uint64) {
		sizes := sizesFromBytes(raw)
		shuffled := shuffledCopy(sizes, seed)
		q := core.Size(101) // canonicalization never solves, any q works

		cn1, err := canonicalize(Request{Problem: core.ProblemA2A, Set: core.MustNewInputSet(sizes), Capacity: q})
		if err != nil {
			t.Fatal(err)
		}
		cn2, err := canonicalize(Request{Problem: core.ProblemA2A, Set: core.MustNewInputSet(shuffled), Capacity: q})
		if err != nil {
			t.Fatal(err)
		}
		if cn1.hash != cn2.hash {
			t.Fatalf("shuffle changed the fingerprint: %x vs %x", cn1.hash, cn2.hash)
		}
		if !slices.Equal(cn1.sizes, cn2.sizes) {
			t.Fatalf("shuffle changed the canonical sizes: %v vs %v", cn1.sizes, cn2.sizes)
		}
		checkCanonicalInvariants(t, cn1, sizes, cn1.perm)
		checkCanonicalInvariants(t, cn2, shuffled, cn2.perm)

		// A different capacity must change the fingerprint (same multiset,
		// different instance).
		cn3, err := canonicalize(Request{Problem: core.ProblemA2A, Set: core.MustNewInputSet(sizes), Capacity: q + 1})
		if err != nil {
			t.Fatal(err)
		}
		if cn3.hash == cn1.hash {
			t.Fatal("capacity change did not change the fingerprint")
		}
	})
}

func FuzzCanonicalizeX2YSideSymmetry(f *testing.F) {
	f.Add([]byte{3, 5, 2}, []byte{2, 9}, uint64(1))
	f.Add([]byte{1}, []byte{1}, uint64(2))
	f.Add([]byte{4, 4}, []byte{4, 4}, uint64(3))
	f.Fuzz(func(t *testing.T, rawX, rawY []byte, seed uint64) {
		xSizes := sizesFromBytes(rawX)
		ySizes := sizesFromBytes(rawY)
		q := core.Size(101)
		canonOf := func(x, y []core.Size) *canonical {
			cn, err := canonicalize(Request{
				Problem: core.ProblemX2Y,
				X:       core.MustNewInputSet(x), Y: core.MustNewInputSet(y),
				Capacity: q,
			})
			if err != nil {
				t.Fatal(err)
			}
			return cn
		}
		cn := canonOf(xSizes, ySizes)
		// The cross-pair constraint is symmetric in X and Y: the mirrored
		// request must canonicalize identically.
		mirrored := canonOf(ySizes, xSizes)
		if cn.hash != mirrored.hash {
			t.Fatalf("side swap changed the fingerprint: %x vs %x", cn.hash, mirrored.hash)
		}
		if !slices.Equal(cn.sizes, mirrored.sizes) || !slices.Equal(cn.ySizes, mirrored.ySizes) {
			t.Fatalf("side swap changed the canonical sides: %v/%v vs %v/%v",
				cn.sizes, cn.ySizes, mirrored.sizes, mirrored.ySizes)
		}
		// Shuffling within each side must not matter either.
		shuffledBoth := canonOf(shuffledCopy(xSizes, seed), shuffledCopy(ySizes, seed+1))
		if cn.hash != shuffledBoth.hash {
			t.Fatalf("within-side shuffle changed the fingerprint: %x vs %x", cn.hash, shuffledBoth.hash)
		}
	})
}

// deterministicPlanner builds an uncached planner, so every plan is a fresh
// solve of the instance alone.
func deterministicPlanner() *Planner {
	return New(Config{CacheEntries: -1})
}

// TestShuffledA2AInstancePlansEquivalently is the property behind the cache:
// shuffling the input order yields an isomorphic instance, so the plan must
// be equivalent — same reducer count and cost — and valid for the shuffled
// IDs.
func TestShuffledA2AInstancePlansEquivalently(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := deterministicPlanner()
	for iter := 0; iter < 20; iter++ {
		m := 3 + rng.Intn(20)
		sizes := make([]core.Size, m)
		var maxSize core.Size
		for i := range sizes {
			sizes[i] = core.Size(rng.Intn(20) + 1)
			if sizes[i] > maxSize {
				maxSize = sizes[i]
			}
		}
		q := 2*maxSize + core.Size(rng.Intn(10)) // every pair fits: feasible
		shuffled := shuffledCopy(sizes, uint64(iter))

		res1, err := p.Plan(context.Background(), Request{
			Problem: core.ProblemA2A, Set: core.MustNewInputSet(sizes), Capacity: q})
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		res2, err := p.Plan(context.Background(), Request{
			Problem: core.ProblemA2A, Set: core.MustNewInputSet(shuffled), Capacity: q})
		if err != nil {
			t.Fatalf("iter %d (shuffled): %v", iter, err)
		}
		if res1.Schema.NumReducers() != res2.Schema.NumReducers() {
			t.Errorf("iter %d: %d reducers vs %d for the shuffled instance",
				iter, res1.Schema.NumReducers(), res2.Schema.NumReducers())
		}
		if res1.Cost.Communication != res2.Cost.Communication || res1.Cost.MaxLoad != res2.Cost.MaxLoad {
			t.Errorf("iter %d: cost %v vs %v", iter, res1.Cost, res2.Cost)
		}
		if err := res2.Schema.ValidateA2A(core.MustNewInputSet(shuffled)); err != nil {
			t.Errorf("iter %d: shuffled plan invalid: %v", iter, err)
		}
	}
}

// TestSwappedX2YInstancePlansEquivalently checks the side-symmetry property
// end to end: planning (Y, X) must cost the same as planning (X, Y), and the
// mirrored schema must be valid for the mirrored sets.
func TestSwappedX2YInstancePlansEquivalently(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := deterministicPlanner()
	for iter := 0; iter < 15; iter++ {
		nx, ny := 2+rng.Intn(10), 2+rng.Intn(10)
		var maxSize core.Size
		mk := func(n int) []core.Size {
			out := make([]core.Size, n)
			for i := range out {
				out[i] = core.Size(rng.Intn(15) + 1)
				if out[i] > maxSize {
					maxSize = out[i]
				}
			}
			return out
		}
		xSizes, ySizes := mk(nx), mk(ny)
		q := 2*maxSize + core.Size(rng.Intn(8))

		res1, err := p.Plan(context.Background(), Request{
			Problem: core.ProblemX2Y,
			X:       core.MustNewInputSet(xSizes), Y: core.MustNewInputSet(ySizes), Capacity: q})
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		res2, err := p.Plan(context.Background(), Request{
			Problem: core.ProblemX2Y,
			X:       core.MustNewInputSet(ySizes), Y: core.MustNewInputSet(xSizes), Capacity: q})
		if err != nil {
			t.Fatalf("iter %d (swapped): %v", iter, err)
		}
		if res1.Schema.NumReducers() != res2.Schema.NumReducers() {
			t.Errorf("iter %d: %d reducers vs %d for the swapped instance",
				iter, res1.Schema.NumReducers(), res2.Schema.NumReducers())
		}
		if res1.Cost.Communication != res2.Cost.Communication {
			t.Errorf("iter %d: communication %d vs %d", iter, res1.Cost.Communication, res2.Cost.Communication)
		}
		if err := res2.Schema.ValidateX2Y(core.MustNewInputSet(ySizes), core.MustNewInputSet(xSizes)); err != nil {
			t.Errorf("iter %d: swapped plan invalid: %v", iter, err)
		}
	}
}

// TestShuffledInstanceHitsCacheAndValidates ties the property to the cache:
// a shuffled isomorphic instance must be served from the cache, and the
// materialized schema must be valid for the shuffled request's own IDs.
func TestShuffledInstanceHitsCacheAndValidates(t *testing.T) {
	p := New(Config{})
	sizes := []core.Size{9, 1, 4, 4, 2, 7, 3, 3}
	shuffled := shuffledCopy(sizes, 99)
	req := Request{Problem: core.ProblemA2A, Set: core.MustNewInputSet(sizes), Capacity: 18}
	if _, err := p.Plan(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	res, err := p.Plan(context.Background(), Request{
		Problem: core.ProblemA2A, Set: core.MustNewInputSet(shuffled), Capacity: 18})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Error("shuffled isomorphic instance missed the cache")
	}
	if err := res.Schema.ValidateA2A(core.MustNewInputSet(shuffled)); err != nil {
		t.Errorf("cached schema invalid for the shuffled instance: %v", err)
	}
}
