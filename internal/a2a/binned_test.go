package a2a

import (
	"math/rand"
	"reflect"
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

// TestSolveKeepsThePairsOnACommunicationTie pins an instance where the
// cheapest design over bins has as many reducers as the pairs and fewer
// copies per bin, yet ships more. 7 inputs of 56, 7 of 34 and 10 of 33 at
// q = 265 pack into 19 bins of 66: the 56s and the 34s alone, the 33s two
// to a bin. Their plane plus a remainder (AG(2,4) over the first 16 bins, a
// grid to the last three) takes 36 reducers, as many as the pairs of the 9
// bins of 132, and 144 copies of 19 bins against 72 of 9. But the three
// remainder bins, full, are shipped 16 times each and the plane's 16, only
// 762 between them, 6 times: 7,740 against the pairs' W·8 = 7,680. So
// solveBinned compares the built design's communication with the pairs' on
// a tie in reducers, and keeps the pairs here.
func TestSolveKeepsThePairsOnACommunicationTie(t *testing.T) {
	var sizes []core.Size
	for _, run := range []struct {
		w core.Size
		n int
	}{{56, 7}, {34, 7}, {33, 10}} {
		for range run.n {
			sizes = append(sizes, run.w)
		}
	}
	set, q := core.MustNewInputSet(sizes), core.Size(265)
	items := binpack.ItemsFromIDs(set, set.IDsBySizeDescending())
	pair, err := priceBinned(items, q, 2)
	if err != nil {
		t.Fatal(err)
	}
	best := pair
	for n := 3; n <= int(q/set.MaxSize()); n++ {
		cand, err := priceBinned(items, q, n)
		if err != nil {
			t.Fatal(err)
		}
		if cand.below(best) {
			best = cand
		}
	}
	if best.n != 4 || best.bins != 19 || best.design.reducers != 36 || pair.bins != 9 {
		t.Fatalf("priced n=%d over %d bins, %d reducers, the pairs over %d bins; want n=4 over 19, 36 reducers, 9",
			best.n, best.bins, best.design.reducers, pair.bins)
	}
	design, err := buildBinned(items, q, best)
	if err != nil {
		t.Fatal(err)
	}
	pairsComm := set.TotalSize() * core.Size(pair.bins-1)
	if got := core.SchemaCost(design).Communication; got != 7740 || pairsComm != 7680 {
		t.Fatalf("the design ships %d and the pairs %d; want 7740 and 7680", got, pairsComm)
	}
	ms, err := Solve(set, q)
	if err != nil {
		t.Fatal(err)
	}
	if cost := core.SchemaCost(ms); ms.Algorithm != binPackPairAlgorithm || cost.Reducers != 36 || cost.Communication != pairsComm {
		t.Fatalf("Solve built %s, %d reducers shipping %d; want the pairs, 36 shipping %d",
			ms.Algorithm, cost.Reducers, cost.Communication, pairsComm)
	}
}

// TestPriceBinnedPairsAreEveryPairOfBins: at n = 2 the equal-sized dispatch
// prices every pair of B bins, C(B,2) reducers shipping each bin B-1 times,
// for every B it can see (more than two bins, since the inputs do not fit
// one reducer); and priceBinned counts the bins BinPackPair packs.
func TestPriceBinnedPairsAreEveryPairOfBins(t *testing.T) {
	for b := 3; b <= 2000; b++ {
		if d := equalSizedDesign(b, 2); d.reducers != b*(b-1)/2 || d.copies != b*(b-1) {
			t.Fatalf("B=%d: priced %d reducers and %d copies, want %d and %d",
				b, d.reducers, d.copies, b*(b-1)/2, b*(b-1))
		}
	}
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 100; trial++ {
		set, q := binnedInstance(rng, 3+rng.Intn(60))
		d, err := priceBinned(binpack.ItemsFromIDs(set, set.IDsBySizeDescending()), q, 2)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := BinPackPair(set, q)
		if err != nil {
			t.Fatal(err)
		}
		cost := core.SchemaCost(ms)
		if cost.Reducers != d.design.reducers || cost.Communication != set.TotalSize()*core.Size(d.bins-1) {
			t.Fatalf("m=%d q=%d: BinPackPair built %d reducers, communication %d; priced %d reducers over %d bins",
				set.Len(), q, cost.Reducers, cost.Communication, d.design.reducers, d.bins)
		}
	}
}

// refSolveBinned is solveBinned as it was before it priced the pairs through
// the loop: the pairs priced by hand, every n priced with no skip, and on a
// tie in reducers both schemas built and compared by betterSchema. It reports
// whether some design priced the same as the pairs (pricedTie), and whether
// the cheapest design had as many reducers as the pairs, so that both were
// built (builtTie).
func refSolveBinned(set *core.InputSet, q core.Size) (ms *core.MappingSchema, pricedTie, builtTie bool, err error) {
	items := binpack.ItemsFromIDs(set, set.IDsBySizeDescending())
	b, err := binpack.Count(items, q/2)
	if err != nil {
		return nil, false, false, err
	}
	pair := binnedDesign{n: 2, bins: b, design: equalDesign{price: price{b * (b - 1) / 2, b * (b - 1)}}}
	best := pair
	for n := 3; n <= min(int(q/set.MaxSize()), maxPlaneOrder); n++ {
		cand, err := priceBinned(items, q, n)
		if err != nil {
			return nil, false, false, err
		}
		if cand.below(best) {
			best = cand
		}
		pricedTie = pricedTie || !cand.below(pair) && !pair.below(cand)
	}
	if best.n == 2 {
		ms, err := BinPackPair(set, q)
		return ms, pricedTie, false, err
	}
	design, err := buildBinned(items, q, best)
	if err != nil || best.design.reducers < pair.design.reducers {
		return design, pricedTie, false, err
	}
	paired, err := BinPackPair(set, q)
	if err != nil || !betterSchema(design, paired, set) {
		return paired, pricedTie, true, err
	}
	return design, pricedTie, true, nil
}

// TestSolveBinnedMatchesReference holds Solve to refSolve over refSolveBinned
// in solveBinned's place, on Zipf draws of 3 to 60 bins of q/2 with sizes up
// to q/3 or (every third draw) up to q/2; of 40 to 120 sizes at q = 90, a few
// bins, where the designs tie the pairs in reducers most often; and, every
// tenth draw, of 2,000 sizes at 4 bins, where many designs price the same as
// the pairs. Both kinds of tie must be reached: a design priced the same as
// the pairs, which the loop skips uncounted, and a design with as many
// reducers as the pairs and fewer copies per bin, which is built and
// compared with them on communication.
func TestSolveBinnedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	pricedTies, builtTies := 0, 0
	for trial := 0; trial < 1200; trial++ {
		set, q := binnedInstance(rng, 3+rng.Intn(58))
		switch {
		case trial%10 == 0:
			sizes := zipfSizes(rng, 2000, 30)
			set, q = core.MustNewInputSet(sizes), halfBinsCapacity(sizes, 4, 120)
		case trial%3 == 0:
			q = halfBinsCapacity(set.Sizes(), 3+rng.Intn(58), 60)
		case trial%3 == 1:
			set, q = core.MustNewInputSet(zipfSizes(rng, 40+rng.Intn(80), 30)), 90
		}
		var pricedTie, builtTie bool
		got, gotErr := Solve(set, q)
		want, wantErr := refSolve(set, q, func(set *core.InputSet, q core.Size) (*core.MappingSchema, error) {
			if set.MinSize() == set.MaxSize() || set.MaxSize() > q/2 {
				return solvePrimary(set, q)
			}
			ms, priced, built, err := refSolveBinned(set, q)
			pricedTie, builtTie = priced, built
			return ms, err
		})
		if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
			t.Fatalf("m=%d q=%d: Solve differs from the reference (err %v, reference %v)", set.Len(), q, gotErr, wantErr)
		}
		if pricedTie {
			pricedTies++
		}
		if builtTie {
			builtTies++
		}
	}
	if pricedTies < 20 || builtTies < 20 {
		t.Fatalf("a design priced the same as the pairs on %d draws, and tied them in reducers on %d; want 20 of each",
			pricedTies, builtTies)
	}
}
