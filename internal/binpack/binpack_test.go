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
	if _, err := Count(items(5, 12), 10); !errors.Is(err, ErrItemTooLarge) {
		t.Errorf("Count() error = %v, want ErrItemTooLarge", err)
	}
}

func TestPackRejectsNonPositiveItem(t *testing.T) {
	if _, err := Pack([]Item{{ID: 0, Size: 0}}, 10, FirstFitDecreasing); err == nil {
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

func TestPolicyString(t *testing.T) {
	if strings.HasPrefix(FirstFitDecreasing.String(), "Policy(") {
		t.Error("FirstFitDecreasing has no name")
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
	p, err := Pack(in, 10, FirstFitDecreasing)
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

// optimalBins is the reference optimum: the fewest bins over all subsets of
// the items, by the O(2ⁿ·n) subset DP that keeps, per subset, the fewest bins
// and then the smallest load of the last one. Every item must fit; n ≤ 14.
func optimalBins(in []Item, capacity core.Size) int {
	if len(in) == 0 {
		return 0
	}
	type state struct {
		bins int
		load core.Size
	}
	best := make([]state, 1<<len(in))
	best[0] = state{bins: 1}
	for mask := 1; mask < len(best); mask++ {
		best[mask] = state{bins: len(in) + 1}
		for i, it := range in {
			if mask&(1<<i) == 0 {
				continue
			}
			s := best[mask^(1<<i)]
			if s.load+it.Size <= capacity {
				s.load += it.Size
			} else {
				s = state{s.bins + 1, it.Size}
			}
			if s.bins < best[mask].bins || s.bins == best[mask].bins && s.load < best[mask].load {
				best[mask] = s
			}
		}
	}
	return best[len(best)-1].bins
}

// sizeBound is the trivial lower bound ⌈Σ sizes / capacity⌉.
func sizeBound(in []Item, capacity core.Size) int {
	var total core.Size
	for _, it := range in {
		total += it.Size
	}
	return int((total + capacity - 1) / capacity)
}

func randomItems(rng *rand.Rand, n int, capacity core.Size) []Item {
	in := make([]Item, n)
	for i := range in {
		in[i] = Item{ID: i, Size: core.Size(1 + rng.Int63n(int64(capacity)))}
	}
	return in
}

func TestOptimalBins(t *testing.T) {
	for _, tc := range []struct {
		in       []Item
		capacity core.Size
		want     int
	}{
		{nil, 10, 0},
		{items(5, 5, 5), 10, 2},
		{items(5, 5, 5, 5), 10, 2},
		{items(7, 6, 5, 4, 3, 2, 1), 10, 3},
		// No two items fit together: six bins where ⌈36/10⌉ is 4.
		{items(6, 6, 6, 6, 6, 6), 10, 6},
		// Two full bins: 4+4+2 and 3+3+2+2.
		{items(4, 4, 3, 3, 2, 2, 2), 10, 2},
	} {
		if got := optimalBins(tc.in, tc.capacity); got != tc.want {
			t.Errorf("optimalBins(%v, %d) = %d, want %d", tc.in, tc.capacity, got, tc.want)
		}
	}
}

// TestLowerBoundsNeverExceedOptimal: the size bound never exceeds the
// optimum.
func TestLowerBoundsNeverExceedOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		capacity := core.Size(12 + rng.Intn(24))
		in := randomItems(rng, 3+rng.Intn(12), capacity)
		opt := optimalBins(in, capacity)
		if lb := sizeBound(in, capacity); lb > opt {
			t.Fatalf("size bound %d exceeds optimum %d for %v capacity %d", lb, opt, in, capacity)
		}
	}
}

// TestPackExactBeatsOrMatchesFFD: the exact optimum never uses more bins than
// FFD on the same random instances.
func TestPackExactBeatsOrMatchesFFD(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		capacity := core.Size(12 + rng.Intn(24))
		in := randomItems(rng, 3+rng.Intn(12), capacity)
		opt := optimalBins(in, capacity)
		p, err := Pack(in, capacity, FirstFitDecreasing)
		if err != nil {
			t.Fatal(err)
		}
		if p.NumBins() < opt {
			t.Fatalf("FFD used %d bins, below the optimum %d for %v capacity %d", p.NumBins(), opt, in, capacity)
		}
	}
}

// Property: FFD never uses more than (11/9)*OPT + 1 bins (classical bound),
// checked against the exact optimum on small instances.
func TestFFDApproximationBound(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		capacity := core.Size(20 + rng.Intn(30))
		in := randomItems(rng, 4+rng.Intn(10), capacity)
		ffd, err := Pack(in, capacity, FirstFitDecreasing)
		if err != nil {
			t.Fatal(err)
		}
		opt := optimalBins(in, capacity)
		if float64(ffd.NumBins()) > 11.0/9.0*float64(opt)+1 {
			t.Fatalf("FFD %d bins violates 11/9 OPT+1 with OPT=%d", ffd.NumBins(), opt)
		}
	}
}

// Property: packing preserves all items exactly once.
func TestPackPreservesItemsProperty(t *testing.T) {
	f := func(raw []uint8, capRaw uint8) bool {
		capacity := core.Size(capRaw%50) + 10
		in := make([]Item, 0, len(raw))
		for i, r := range raw {
			size := core.Size(r%uint8(capacity)) + 1
			in = append(in, Item{ID: i, Size: size})
		}
		p, err := Pack(in, capacity, FirstFitDecreasing)
		return err == nil && p.Validate(in) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPackDecreasingIgnoresInputOrder: Pack packs in one total order
// (size down, ID up), so the same items give the same packing however they
// arrive — shuffled, ascending, or already decreasing, which is the case Pack
// takes as given without copying or sorting. The expected order is the
// stable reflection sort Pack used before; the caller's slice is never
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

		want, err := Pack(decreasing, capacity, FirstFitDecreasing)
		if err != nil {
			t.Fatal(err)
		}
		for name, in := range map[string][]Item{"ascending": ascending, "shuffled": shuffled, "id-order": base} {
			before := slices.Clone(in)
			got, err := Pack(in, capacity, FirstFitDecreasing)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: %s input packs differently from decreasing input", trial, name)
			}
			if !slices.Equal(in, before) {
				t.Fatalf("trial %d: Pack reordered its %s input", trial, name)
			}
		}
		if err := want.Validate(base); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// refFirstFit is First Fit as the paper states it: each item, in order, into
// the first open bin with room, scanning the bins one by one. firstFit's tree
// and batches are held to it.
func refFirstFit(items []Item, capacity core.Size) []Bin {
	var bins []Bin
	for _, it := range items {
		placed := false
		for b := range bins {
			if bins[b].Load+it.Size <= capacity {
				bins[b].Items = append(bins[b].Items, it.ID)
				bins[b].Load += it.Size
				placed = true
				break
			}
		}
		if !placed {
			bins = append(bins, Bin{Items: []int{it.ID}, Load: it.Size})
		}
	}
	return bins
}

// TestPackMatchesReferenceFirstFit holds Pack and Count to the bin-by-bin
// scan on random items, with runs of equal sizes among them, at capacities
// from the largest size up: the same bins, each with the same items in the
// same order, and Count says how many.
func TestPackMatchesReferenceFirstFit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		top := 1 + rng.Intn(40)
		items := make([]Item, 1+rng.Intn(300))
		for i := range items {
			items[i] = Item{ID: i, Size: core.Size(1 + rng.Intn(top))}
		}
		capacity := core.Size(top + rng.Intn(3*top))
		p, err := Pack(items, capacity, FirstFitDecreasing)
		if err != nil {
			t.Fatal(err)
		}
		ordered := slices.Clone(items)
		slices.SortFunc(ordered, bySizeDecreasing)
		if want := refFirstFit(ordered, capacity); !reflect.DeepEqual(p.Bins, want) {
			t.Fatalf("capacity %d: Pack's bins differ from the reference's\n got %v\nwant %v", capacity, p.Bins, want)
		}
		if n, err := Count(ordered, capacity); err != nil || n != p.NumBins() {
			t.Fatalf("capacity %d: Count = %d, %v; Pack opened %d bins", capacity, n, err, p.NumBins())
		}
	}
}
