package binpack

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
)

// FuzzPack checks the packing invariants (every item exactly once, no bin
// over capacity, never fewer bins than ⌈Σ sizes / capacity⌉) on arbitrary
// inputs, and holds Pack to the reference first fit and Count to Pack.
func FuzzPack(f *testing.F) {
	f.Add([]byte{7, 6, 5, 4, 3, 2, 1}, byte(10))
	f.Add([]byte{50, 50, 50}, byte(100))
	f.Add([]byte{1}, byte(1))
	f.Fuzz(func(t *testing.T, raw []byte, capRaw byte) {
		if len(raw) > 128 {
			raw = raw[:128]
		}
		capacity := core.Size(capRaw)%200 + 1
		items := make([]Item, 0, len(raw))
		for i, b := range raw {
			items = append(items, Item{ID: i, Size: core.Size(b)%capacity + 1})
		}
		if len(items) == 0 {
			return
		}
		p, err := Pack(items, capacity, FirstFitDecreasing)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(items); err != nil {
			t.Fatalf("invalid packing: %v", err)
		}
		if lb := sizeBound(items, capacity); p.NumBins() < lb {
			t.Fatalf("%d bins, below the lower bound %d", p.NumBins(), lb)
		}
		ordered := slices.Clone(items)
		slices.SortFunc(ordered, bySizeDecreasing)
		if want := refFirstFit(ordered, capacity); !reflect.DeepEqual(p.Bins, want) {
			t.Fatalf("bins %v differ from the reference's %v", p.Bins, want)
		}
		if n, err := Count(items, capacity); err != nil || n != p.NumBins() {
			t.Fatalf("Count = %d, %v; Pack opened %d bins", n, err, p.NumBins())
		}
	})
}
