package mr_test

import (
	"context"
	"fmt"

	"repro/internal/mr"
)

// A schema with two reducers over three records: record 0 goes to both, so
// each reducer can pair it with the record it alone holds.
func ExampleRun() {
	routes := [][]int{{0, 1}, {0}, {1}}
	job := &mr.Job{
		Name:        "pairs",
		NumReducers: 2,
		Route:       func(i int) []int { return routes[i] },
		Reduce: func(r int, recs []mr.Record, emit func([]byte)) error {
			for i, a := range recs {
				for _, b := range recs[i+1:] {
					emit(fmt.Appendf(nil, "reducer %d: %s+%s", r, a.Data, b.Data))
				}
			}
			return nil
		},
	}
	res, err := mr.Run(context.Background(), job, mr.NewSliceSource([][]byte{
		[]byte("hub"), []byte("left"), []byte("right"),
	}), nil, mr.StreamOptions{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, rec := range res.FlatOutput() {
		fmt.Println(string(rec))
	}
	fmt.Println("shuffle bytes:", res.Counters.ShuffleBytes)
	// Output:
	// reducer 0: hub+left
	// reducer 1: hub+right
	// shuffle bytes: 15
}
