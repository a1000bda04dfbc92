package cluster_test

import (
	"fmt"

	"repro/internal/a2a"
	"repro/internal/cluster"
	"repro/internal/core"
)

// Simulate the reduce phase of a schema on a 4-worker cluster.
func ExampleSimulate() {
	set, _ := core.UniformInputSet(16, 1)
	schema, _ := a2a.Solve(set, 4)
	sched, err := cluster.Simulate(schema, 4, cluster.CostModel{StartupCost: 1, PerByte: 0.25})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("tasks=%d speedup=%.2f\n", sched.Tasks, sched.Speedup)
	// Output: tasks=20 speedup=4.00
}
