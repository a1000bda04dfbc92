package binpack_test

import (
	"fmt"

	"repro/internal/binpack"
)

// Pack items with First-Fit-Decreasing and compare against the lower bound
// ⌈Σ sizes / capacity⌉.
func ExamplePack() {
	items := []binpack.Item{
		{ID: 0, Size: 7}, {ID: 1, Size: 6}, {ID: 2, Size: 5},
		{ID: 3, Size: 4}, {ID: 4, Size: 3}, {ID: 5, Size: 2}, {ID: 6, Size: 1},
	}
	p, err := binpack.Pack(items, 10, binpack.FirstFitDecreasing)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	total := 0
	for _, it := range items {
		total += int(it.Size)
	}
	fmt.Printf("bins=%d lower_bound=%d\n", p.NumBins(), (total+9)/10)
	// Output: bins=3 lower_bound=3
}
