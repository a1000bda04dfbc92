package assign_test

import (
	"context"
	"fmt"
	"log"
	"sort"

	"repro/pkg/assign"
)

// Plan a mapping schema for six inputs under reducer capacity 10 and price
// it. Deterministic() is accepted and changes nothing: every plan is.
func ExamplePlan() {
	res, err := assign.Plan(context.Background(),
		assign.A2A([]assign.Size{3, 3, 2, 2, 4, 1}),
		assign.Capacity(10),
		assign.Deterministic(),
		assign.NoCache(),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reducers: %d (lower bound %d)\n", res.Cost.Reducers, res.LowerBoundReducers)
	fmt.Printf("every pair covered: %v\n",
		res.Schema.ValidateA2A(assign.MustNewInputSet([]assign.Size{3, 3, 2, 2, 4, 1})) == nil)
	// Output:
	// reducers: 3 (lower bound 3)
	// every pair covered: true
}

// Execute plans a schema for concrete payloads and runs it: the pair logic
// is invoked exactly once per required pair, at the pair's owning reducer.
func ExampleExecute() {
	payloads := [][]byte{[]byte("aaa"), []byte("bbb"), []byte("cc"), []byte("d")}
	ex, err := assign.Execute(context.Background(),
		assign.Inputs(payloads),
		assign.Capacity(10),
		assign.Pair(func(a, b assign.Record, emit func([]byte)) error {
			emit([]byte(fmt.Sprintf("(%d,%d)", a.ID, b.ID)))
			return nil
		}),
	)
	if err != nil {
		log.Fatal(err)
	}
	pairs := make([]string, 0, len(ex.Output))
	for _, rec := range ex.Output {
		pairs = append(pairs, string(rec))
	}
	sort.Strings(pairs)
	fmt.Printf("pairs processed: %d, audited: %v\n", ex.PairsProcessed, ex.Audited)
	fmt.Println(pairs)
	// Output:
	// pairs processed: 6, audited: true
	// [(0,1) (0,2) (0,3) (1,2) (1,3) (2,3)]
}

// NewPlanner builds an isolated planner with its own cache, for callers
// that must not share the process-wide one.
func ExampleNewPlanner() {
	pl := assign.NewPlanner(assign.PlannerConfig{CacheEntries: 64})
	_, err := pl.Plan(context.Background(),
		assign.X2Y([]assign.Size{7, 2, 1}, []assign.Size{1, 2, 1, 1}),
		assign.Capacity(10),
	)
	if err != nil {
		log.Fatal(err)
	}
	st := pl.Stats()
	fmt.Printf("requests: %d, cache hits: %d\n", st.Requests, st.CacheHits)
	// Output:
	// requests: 1, cache hits: 0
}
