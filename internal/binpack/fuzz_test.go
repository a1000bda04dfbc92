package binpack

import (
	"testing"

	"repro/internal/core"
)

// FuzzPack checks the packing invariants (every item exactly once, no bin
// over capacity, never fewer bins than ⌈Σ sizes / capacity⌉) for every policy
// on arbitrary inputs.
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
		lb := sizeBound(items, capacity)
		for _, pol := range policies {
			p, err := Pack(items, capacity, pol)
			if err != nil {
				t.Fatalf("%v: %v", pol, err)
			}
			if err := p.Validate(items); err != nil {
				t.Fatalf("%v produced an invalid packing: %v", pol, err)
			}
			if p.NumBins() < lb {
				t.Fatalf("%v used %d bins, below the lower bound %d", pol, p.NumBins(), lb)
			}
		}
	})
}
