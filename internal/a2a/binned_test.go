package a2a

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/binpack"
	"repro/internal/core"
)

// TestTripleCoverCopiesMatchConstruction: the triple cover's priced copies
// are the inputs its reducers hold, for every padding d from 0 to 5.
func TestTripleCoverCopiesMatchConstruction(t *testing.T) {
	for m := 4; m <= 200; m++ {
		set, _ := core.UniformInputSet(m, 1)
		ms, err := TripleCover(set, 3)
		if err != nil {
			t.Fatal(err)
		}
		if got := core.SchemaCost(ms, set.TotalSize()).Communication; got != core.Size(tripleCoverCopies(m)) {
			t.Fatalf("m=%d: %d copies built, %d priced", m, got, tripleCoverCopies(m))
		}
	}
}

// binnedInstance draws Zipf sizes up to 30 and a q of at least 90, so every
// input is at most q/3, filling about bins bins of q/2.
func binnedInstance(rng *rand.Rand, bins int) (*core.InputSet, core.Size) {
	sizes := zipfSizes(rng, 40+rng.Intn(400), 30)
	return core.MustNewInputSet(sizes), halfBinsCapacity(sizes, bins, 90)
}

// TestBinnedPriceIsItsBuild builds the design over bins at every candidate n
// of Zipf instances, whether or not it wins: the schema has exactly the
// priced reducers, each holds whole FFD bins, the bins it holds add up to the
// priced copies, and it is valid. The sweep must reach the triple cover
// (n = 3), the groups, the plane and the plane plus a remainder.
func TestBinnedPriceIsItsBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(69))
	seen := map[string]int{}
	for trial := 0; trial < 150; trial++ {
		set, q := binnedInstance(rng, 4+rng.Intn(40))
		items := binpack.ItemsFromIDs(set, set.IDsBySizeDescending())
		for n := 3; n <= min(int(q/set.MaxSize()), maxPlaneOrder); n++ {
			d, err := priceBinned(items, q, n)
			if err != nil {
				t.Fatal(err)
			}
			ms, err := buildBinned(items, q, d)
			if err != nil {
				t.Fatalf("m=%d q=%d n=%d: %v", set.Len(), q, n, err)
			}
			seen[strings.TrimPrefix(ms.Algorithm, binnedPrefix)]++
			packing, err := binpack.Pack(binpack.ItemsFromInputSet(set), q/core.Size(n), binpack.FirstFitDecreasing)
			if err != nil {
				t.Fatal(err)
			}
			if copies := wholeBins(t, ms, packing.Bins); ms.NumReducers() != d.design.reducers || copies != d.design.copies {
				t.Fatalf("m=%d q=%d n=%d: %s built %d reducers holding %d bins, priced %d and %d",
					set.Len(), q, n, ms.Algorithm, ms.NumReducers(), copies, d.design.reducers, d.design.copies)
			}
			if err := ms.ValidateA2A(set); err != nil {
				t.Fatalf("m=%d q=%d n=%d: %s: %v", set.Len(), q, n, ms.Algorithm, err)
			}
		}
	}
	for _, design := range []string{"triple-cover", "equal-sized", "affine-plane", "plane-remainder"} {
		if seen[design] == 0 {
			t.Fatalf("the sweep never built the %s over bins: %v", design, seen)
		}
	}
}

// wholeBins checks that every reducer of ms holds each bin wholly or not at
// all, and returns how many bins its reducers hold together.
func wholeBins(t *testing.T, ms *core.MappingSchema, bins []binpack.Bin) int {
	t.Helper()
	held := 0
	for r, red := range ms.Reducers {
		for b, bin := range bins {
			in := 0
			for _, id := range bin.Items {
				if _, ok := slices.BinarySearch(red.Inputs, id); ok {
					in++
				}
			}
			switch in {
			case 0:
			case len(bin.Items):
				held++
			default:
				t.Fatalf("%s: reducer %d holds %d of bin %d's %d inputs", ms.Algorithm, r, in, b, len(bin.Items))
			}
		}
	}
	return held
}

// TestSolveOnBinsNeverAbovePairs: wherever Solve lays the bins on a design,
// the schema is valid and has no more reducers than BinPackPair, and no more
// communication where it has as many. The draws must reach the design.
func TestSolveOnBinsNeverAbovePairs(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	designs := 0
	for trial := 0; trial < 300; trial++ {
		set, q := binnedInstance(rng, 3+rng.Intn(30))
		if trial%3 == 0 { // sizes up to q/2, where only some draws can take a design
			q = halfBinsCapacity(set.Sizes(), 3+rng.Intn(30), 60)
		}
		ms, err := Solve(set, q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(ms.Algorithm, binnedPrefix) {
			continue
		}
		designs++
		if err := ms.ValidateA2A(set); err != nil {
			t.Fatalf("m=%d q=%d: %s: %v", set.Len(), q, ms.Algorithm, err)
		}
		pair, err := BinPackPair(set, q)
		if err != nil {
			t.Fatal(err)
		}
		if betterSchema(pair, ms, set) {
			t.Fatalf("m=%d q=%d: %s uses %d reducers, BinPackPair %d and less communication",
				set.Len(), q, ms.Algorithm, ms.NumReducers(), pair.NumReducers())
		}
	}
	if designs < 100 {
		t.Fatalf("Solve laid only %d of 300 draws on a design", designs)
	}
}
