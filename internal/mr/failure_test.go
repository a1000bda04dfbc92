package mr

import (
	"errors"
	"sync/atomic"
	"testing"
)

// errInjected is what the failing tasks below return.
var errInjected = errors.New("injected task failure")

// TestMapRetryExhaustedFailsJob: a failing map task fails the job with its
// error. The engine runs each task once.
func TestMapRetryExhaustedFailsJob(t *testing.T) {
	var calls atomic.Int64
	job := &Job{
		Name: "failing-map",
		Mapper: MapperFunc(func(record []byte, emit func(Pair)) error {
			calls.Add(1)
			emit(Pair{Key: "k", Value: record})
			return errInjected
		}),
		Reducer:     countReducer,
		NumReducers: 1,
	}
	if _, err := runSlice(job, [][]byte{[]byte("a")}); !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want the map task's error", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("mapper called %d times, want 1", n)
	}
}

// TestReduceRetryExhaustedFailsJob: a failing reduce task fails the job with
// its error. The engine runs each task once.
func TestReduceRetryExhaustedFailsJob(t *testing.T) {
	var calls atomic.Int64
	job := &Job{
		Name:   "failing-reduce",
		Mapper: wordCountMapper,
		Reducer: ReducerFunc(func(key string, values [][]byte, emit func([]byte)) error {
			calls.Add(1)
			emit([]byte(key))
			return errInjected
		}),
		NumReducers: 1,
	}
	if _, err := runSlice(job, [][]byte{[]byte("x")}); !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want the reduce task's error", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("reducer called %d times, want 1", n)
	}
}
