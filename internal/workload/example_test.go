package workload_test

import (
	"fmt"

	"repro/internal/workload"
)

// Generate a deterministic set of Zipf-distributed input sizes.
func ExampleSizes() {
	sizes, err := workload.Sizes(workload.SizeSpec{
		Dist: workload.Zipf, Min: 1, Max: 100, Skew: 1.5,
	}, 1000, 42)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	inRange := true
	for _, s := range sizes {
		if s < 1 || s > 100 {
			inRange = false
		}
	}
	fmt.Println(len(sizes), inRange)
	// Output: 1000 true
}

// Generate a skewed relation and look at how concentrated its join keys are.
func ExampleGenerateRelation() {
	rel, err := workload.GenerateRelation(workload.RelationSpec{
		Name: "X", NumTuples: 1000, NumKeys: 50, Skew: 1.5, PayloadBytes: 8,
	}, 7)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	counts := map[string]int{}
	max := 0
	for _, t := range rel.Tuples {
		counts[t.Key]++
		if counts[t.Key] > max {
			max = counts[t.Key]
		}
	}
	fmt.Println(len(rel.Tuples) == 1000, max > 100)
	// Output: true true
}
