package binpack

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func items(sizes ...core.Size) []Item {
	out := make([]Item, len(sizes))
	for i, s := range sizes {
		out[i] = Item{ID: i, Size: s}
	}
	return out
}

func TestPackRejectsOversizedItem(t *testing.T) {
	_, err := Pack(items(5, 12), 10, FirstFitDecreasing)
	if !errors.Is(err, ErrItemTooLarge) {
		t.Errorf("Pack() error = %v, want ErrItemTooLarge", err)
	}
}

func TestPackRejectsNonPositiveItem(t *testing.T) {
	if _, err := Pack([]Item{{ID: 0, Size: 0}}, 10, FirstFit); err == nil {
		t.Error("Pack() accepted a zero-size item")
	}
}

func TestPackRejectsUnknownPolicy(t *testing.T) {
	if _, err := Pack(items(1), 10, Policy(99)); err == nil {
		t.Error("Pack() accepted an unknown policy")
	}
}

func TestFirstFitDecreasingClassic(t *testing.T) {
	// Sizes 7,6,5,4,3,2,1 with capacity 10: FFD yields (7,3) (6,4) (5,2,1) = 3 bins.
	p, err := Pack(items(7, 6, 5, 4, 3, 2, 1), 10, FirstFitDecreasing)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumBins() != 3 {
		t.Errorf("FFD bins = %d, want 3", p.NumBins())
	}
	if err := p.Validate(items(7, 6, 5, 4, 3, 2, 1)); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestNextFitUsesMoreBins(t *testing.T) {
	in := items(6, 5, 6, 5, 6, 5)
	nf, err := Pack(in, 11, NextFit)
	if err != nil {
		t.Fatal(err)
	}
	ffd, err := Pack(in, 11, FirstFitDecreasing)
	if err != nil {
		t.Fatal(err)
	}
	if nf.NumBins() < ffd.NumBins() {
		t.Errorf("NextFit used %d bins, FFD %d; NextFit should not beat FFD here", nf.NumBins(), ffd.NumBins())
	}
	if ffd.NumBins() != 3 {
		t.Errorf("FFD bins = %d, want 3", ffd.NumBins())
	}
}

func TestAllPoliciesProduceValidPackings(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(60)
		capacity := core.Size(20 + rng.Intn(80))
		in := make([]Item, n)
		for i := range in {
			in[i] = Item{ID: i, Size: core.Size(1 + rng.Int63n(int64(capacity)))}
		}
		for _, pol := range Policies() {
			p, err := Pack(in, capacity, pol)
			if err != nil {
				t.Fatalf("%v: %v", pol, err)
			}
			if err := p.Validate(in); err != nil {
				t.Fatalf("%v produced invalid packing: %v", pol, err)
			}
			if p.NumBins() < SizeLowerBound(in, capacity) {
				t.Fatalf("%v produced %d bins below the size lower bound %d", pol, p.NumBins(), SizeLowerBound(in, capacity))
			}
		}
	}
}

func TestPolicyString(t *testing.T) {
	for _, pol := range Policies() {
		if strings.HasPrefix(pol.String(), "Policy(") {
			t.Errorf("policy %d has no name", int(pol))
		}
	}
	if !strings.Contains(Policy(77).String(), "77") {
		t.Error("unknown policy String() should include the number")
	}
}

func TestMaxLoad(t *testing.T) {
	p, err := Pack(items(4, 4, 9), 10, FirstFitDecreasing)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.MaxLoad(); got != 9 {
		t.Errorf("MaxLoad = %d, want 9", got)
	}
	empty := &Packing{Capacity: 10}
	if empty.MaxLoad() != 0 {
		t.Error("empty packing MaxLoad should be 0")
	}
}

func TestValidateCatchesCorruptPackings(t *testing.T) {
	in := items(3, 4)
	p, err := Pack(in, 10, FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	// Unknown item.
	bad := &Packing{Capacity: 10, Bins: []Bin{{Items: []int{9}, Load: 3}}}
	if err := bad.Validate(in); err == nil {
		t.Error("Validate accepted a bin with an unknown item")
	}
	// Duplicate across bins.
	dup := &Packing{Capacity: 10, Bins: []Bin{{Items: []int{0}, Load: 3}, {Items: []int{0, 1}, Load: 7}}}
	if err := dup.Validate(in); err == nil {
		t.Error("Validate accepted a duplicated item")
	}
	// Missing item.
	missing := &Packing{Capacity: 10, Bins: []Bin{{Items: []int{0}, Load: 3}}}
	if err := missing.Validate(in); err == nil {
		t.Error("Validate accepted a packing that drops an item")
	}
	// Wrong recorded load.
	wrong := &Packing{Capacity: 10, Bins: []Bin{{Items: []int{0, 1}, Load: 5}}}
	if err := wrong.Validate(in); err == nil {
		t.Error("Validate accepted a wrong recorded load")
	}
	// Over capacity.
	over := &Packing{Capacity: 5, Bins: []Bin{{Items: []int{0, 1}, Load: 7}}}
	if err := over.Validate(in); err == nil {
		t.Error("Validate accepted an over-capacity bin")
	}
	// Duplicate IDs in the input itself.
	if err := p.Validate([]Item{{ID: 0, Size: 3}, {ID: 0, Size: 4}}); err == nil {
		t.Error("Validate accepted duplicate input IDs")
	}
}

func TestItemsFromInputSet(t *testing.T) {
	set := core.MustNewInputSet([]core.Size{4, 2, 9})
	in := ItemsFromInputSet(set)
	if len(in) != 3 || in[2].ID != 2 || in[2].Size != 9 {
		t.Errorf("ItemsFromInputSet = %v", in)
	}
	sel := ItemsFromIDs(set, []int{2, 0})
	if len(sel) != 2 || sel[0].ID != 2 || sel[0].Size != 9 || sel[1].ID != 0 {
		t.Errorf("ItemsFromIDs = %v", sel)
	}
}

func TestSizeLowerBound(t *testing.T) {
	if got := SizeLowerBound(items(5, 5, 5), 10); got != 2 {
		t.Errorf("SizeLowerBound = %d, want 2", got)
	}
	if got := SizeLowerBound(nil, 10); got != 0 {
		t.Errorf("SizeLowerBound(nil) = %d, want 0", got)
	}
	if got := SizeLowerBound(items(1), 0); got != 0 {
		t.Errorf("SizeLowerBound(capacity=0) = %d, want 0", got)
	}
}

func TestL2LowerBoundBeatsL1OnBigItems(t *testing.T) {
	// Six items of size 6 with capacity 10: L1 = ceil(36/10) = 4, but no two
	// items fit together so the true optimum (and L2) is 6.
	in := items(6, 6, 6, 6, 6, 6)
	if l1 := SizeLowerBound(in, 10); l1 != 4 {
		t.Fatalf("L1 = %d, want 4", l1)
	}
	if l2 := L2LowerBound(in, 10); l2 != 6 {
		t.Errorf("L2 = %d, want 6", l2)
	}
}

func TestLowerBoundsNeverExceedOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(10)
		capacity := core.Size(10 + rng.Intn(20))
		in := make([]Item, n)
		for i := range in {
			in[i] = Item{ID: i, Size: core.Size(1 + rng.Int63n(int64(capacity)))}
		}
		opt, err := PackExact(in, capacity, ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if lb := BestLowerBound(in, capacity); lb > opt.NumBins() {
			t.Fatalf("lower bound %d exceeds optimum %d for %v capacity %d", lb, opt.NumBins(), in, capacity)
		}
	}
}

func TestPackExactOptimal(t *testing.T) {
	// 4 items of size 5 and capacity 10: optimum is 2 bins.
	p, err := PackExact(items(5, 5, 5, 5), 10, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumBins() != 2 {
		t.Errorf("exact bins = %d, want 2", p.NumBins())
	}
	if err := p.Validate(items(5, 5, 5, 5)); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestPackExactBeatsOrMatchesFFD(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(12)
		capacity := core.Size(12 + rng.Intn(24))
		in := make([]Item, n)
		for i := range in {
			in[i] = Item{ID: i, Size: core.Size(1 + rng.Int63n(int64(capacity)))}
		}
		ffd, err := Pack(in, capacity, FirstFitDecreasing)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := PackExact(in, capacity, ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if opt.NumBins() > ffd.NumBins() {
			t.Fatalf("exact %d bins worse than FFD %d bins", opt.NumBins(), ffd.NumBins())
		}
		if err := opt.Validate(in); err != nil {
			t.Fatalf("exact packing invalid: %v", err)
		}
	}
}

func TestPackExactLimits(t *testing.T) {
	big := make([]Item, 30)
	for i := range big {
		big[i] = Item{ID: i, Size: 1}
	}
	if _, err := PackExact(big, 10, ExactOptions{}); !errors.Is(err, ErrTooLargeForExact) {
		t.Errorf("PackExact on 30 items = %v, want ErrTooLargeForExact", err)
	}
	if _, err := PackExact(items(11), 10, ExactOptions{}); !errors.Is(err, ErrItemTooLarge) {
		t.Errorf("PackExact oversized = %v, want ErrItemTooLarge", err)
	}
	if _, err := PackExact([]Item{{ID: 0, Size: -1}}, 10, ExactOptions{}); err == nil {
		t.Error("PackExact accepted a negative size")
	}
	p, err := PackExact(nil, 10, ExactOptions{})
	if err != nil || p.NumBins() != 0 {
		t.Errorf("PackExact(nil) = %v bins, err %v", p.NumBins(), err)
	}
}

func TestOptimalBins(t *testing.T) {
	n, err := OptimalBins(items(5, 5, 5), 10, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("OptimalBins = %d, want 2", n)
	}
	if _, err := OptimalBins(items(11), 10, ExactOptions{}); err == nil {
		t.Error("OptimalBins accepted an infeasible instance")
	}
}

// Property: FFD never uses more than (11/9)*OPT + 1 bins (classical bound),
// checked against the exact optimum on small instances.
func TestFFDApproximationBound(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(10)
		capacity := core.Size(20 + rng.Intn(30))
		in := make([]Item, n)
		for i := range in {
			in[i] = Item{ID: i, Size: core.Size(1 + rng.Int63n(int64(capacity)))}
		}
		ffd, err := Pack(in, capacity, FirstFitDecreasing)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := PackExact(in, capacity, ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if float64(ffd.NumBins()) > 11.0/9.0*float64(opt.NumBins())+1 {
			t.Fatalf("FFD %d bins violates 11/9 OPT+1 with OPT=%d", ffd.NumBins(), opt.NumBins())
		}
	}
}

// Property: packing with any policy preserves all items exactly once.
func TestPackPreservesItemsProperty(t *testing.T) {
	f := func(raw []uint8, capRaw uint8) bool {
		capacity := core.Size(capRaw%50) + 10
		in := make([]Item, 0, len(raw))
		for i, r := range raw {
			size := core.Size(r%uint8(capacity)) + 1
			in = append(in, Item{ID: i, Size: size})
		}
		for _, pol := range Policies() {
			p, err := Pack(in, capacity, pol)
			if err != nil {
				return false
			}
			if err := p.Validate(in); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPackDecreasingIgnoresInputOrder: the decreasing policies pack in one
// total order (size down, ID up), so the same items give the same packing
// however they arrive — shuffled, ascending, or already decreasing, which is
// the case Pack takes as given without copying or sorting. The expected order
// is the stable reflection sort Pack used before; the caller's slice is never
// written to.
func TestPackDecreasingIgnoresInputOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		capacity := core.Size(10 + rng.Intn(40))
		base := make([]Item, 1+rng.Intn(60))
		for i := range base {
			// A handful of distinct sizes, so most items tie on size.
			base[i] = Item{ID: i, Size: 1 + core.Size(rng.Intn(6))*capacity/8}
		}
		decreasing := slices.Clone(base)
		sort.SliceStable(decreasing, func(i, j int) bool {
			if decreasing[i].Size != decreasing[j].Size {
				return decreasing[i].Size > decreasing[j].Size
			}
			return decreasing[i].ID < decreasing[j].ID
		})
		ascending := slices.Clone(decreasing)
		slices.Reverse(ascending)
		shuffled := slices.Clone(base)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

		for _, policy := range []Policy{FirstFitDecreasing, BestFitDecreasing, WorstFitDecreasing} {
			// First-Fit over the reference order is what FFD must equal.
			want, err := Pack(decreasing, capacity, policy)
			if err != nil {
				t.Fatal(err)
			}
			if policy == FirstFitDecreasing {
				ff, _ := Pack(decreasing, capacity, FirstFit)
				if !reflect.DeepEqual(ff.Bins, want.Bins) {
					t.Fatalf("trial %d: FFD of decreasing input is not First-Fit in that order", trial)
				}
			}
			for name, in := range map[string][]Item{"ascending": ascending, "shuffled": shuffled, "id-order": base} {
				before := slices.Clone(in)
				got, err := Pack(in, capacity, policy)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d %v: %s input packs differently from decreasing input", trial, policy, name)
				}
				if !slices.Equal(in, before) {
					t.Fatalf("trial %d %v: Pack reordered its %s input", trial, policy, name)
				}
			}
			if err := want.Validate(base); err != nil {
				t.Fatalf("trial %d %v: %v", trial, policy, err)
			}
		}
	}
}
