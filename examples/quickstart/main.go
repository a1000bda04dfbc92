// Quickstart for the public SDK: plan an A2A mapping schema for a handful of
// different-sized inputs, print its cost against the proved lower bounds,
// and then actually run it — Execute compiles the schema into a MapReduce
// job, invokes the pair logic exactly once per required pair, and audits the
// run against the schema. Only pkg/assign is imported; internal packages are
// implementation details.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/pkg/assign"
)

func main() {
	// Six inputs (say, six files to compare pairwise) with sizes in MB, and
	// reducers that can hold 10 MB each.
	sizes := []assign.Size{3, 3, 2, 2, 4, 1}
	ctx := context.Background()

	res, err := assign.Plan(ctx,
		assign.A2A(sizes),
		assign.Capacity(10),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("winner:           %s\n", res.Winner)
	fmt.Printf("reducers:         %d (lower bound %d, gap %d)\n", res.Cost.Reducers, res.LowerBoundReducers, res.Gap)
	fmt.Printf("communication:    %d size units\n", res.Cost.Communication)
	fmt.Printf("replication rate: %.2f\n", res.Cost.ReplicationRate)
	for i, r := range res.Schema.Reducers {
		fmt.Printf("reducer %d (load %d/10): inputs %v\n", i, r.Load, r.Inputs)
	}

	// Execute the schema: the "files" here are just byte payloads of the
	// declared sizes, and the pair logic records which pairs met.
	inputs := make([][]byte, len(sizes))
	for i, s := range sizes {
		inputs[i] = make([]byte, s)
	}
	ex, err := assign.Execute(ctx,
		assign.Inputs(inputs),
		assign.Capacity(10),
		assign.Pair(func(a, b assign.Record, emit func([]byte)) error {
			emit([]byte(fmt.Sprintf("(%d,%d)", a.ID, b.ID)))
			return nil
		}),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("executed:         %d pairs met, audited=%v, shuffle=%dB, max reducer load=%dB\n",
		ex.PairsProcessed, ex.Audited, ex.ShuffleBytes, ex.MaxReducerLoad)
}
