package mr_test

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/mr"
)

// A word count on the engine with a single reduce partition (so
// the output order is the sorted key order).
func ExampleRun() {
	mapper := mr.MapperFunc(func(record []byte, emit func(mr.Pair)) error {
		for _, w := range strings.Fields(string(record)) {
			emit(mr.Pair{Key: w, Value: []byte("1")})
		}
		return nil
	})
	reducer := mr.ReducerFunc(func(key string, values [][]byte, emit func([]byte)) error {
		emit([]byte(fmt.Sprintf("%s=%d", key, len(values))))
		return nil
	})
	job := &mr.Job{Name: "wordcount", Mapper: mapper, Reducer: reducer, NumReducers: 1}
	res, err := mr.Run(context.Background(), job, mr.NewSliceSource([][]byte{
		[]byte("to be or not"),
		[]byte("to be"),
	}), nil, mr.StreamOptions{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, rec := range res.FlatOutput() {
		fmt.Println(string(rec))
	}
	fmt.Println("shuffle records:", res.Counters.ShuffleRecords)
	// Output:
	// be=2
	// not=1
	// or=1
	// to=2
	// shuffle records: 6
}
