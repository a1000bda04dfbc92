package mr

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// flakyMapper fails the first `failures` calls for each record and succeeds
// afterwards, emitting the record under the key "k".
type flakyMapper struct {
	mu       sync.Mutex
	failures int
	calls    map[string]int
	total    atomic.Int64
}

func newFlakyMapper(failures int) *flakyMapper {
	return &flakyMapper{failures: failures, calls: map[string]int{}}
}

func (f *flakyMapper) Map(record []byte, emit func(Pair)) error {
	f.total.Add(1)
	f.mu.Lock()
	f.calls[string(record)]++
	n := f.calls[string(record)]
	f.mu.Unlock()
	// Emit before failing: a buggy engine would double-count these.
	emit(Pair{Key: "k", Value: record})
	if n <= f.failures {
		return fmt.Errorf("injected map failure %d for %q", n, record)
	}
	return nil
}

// flakyReducer fails the first `failures` calls per key.
type flakyReducer struct {
	mu       sync.Mutex
	failures int
	calls    map[string]int
}

func newFlakyReducer(failures int) *flakyReducer {
	return &flakyReducer{failures: failures, calls: map[string]int{}}
}

func (f *flakyReducer) Reduce(key string, values [][]byte, emit func([]byte)) error {
	f.mu.Lock()
	f.calls[key]++
	n := f.calls[key]
	f.mu.Unlock()
	emit([]byte(fmt.Sprintf("%s:%d", key, len(values))))
	if n <= f.failures {
		return fmt.Errorf("injected reduce failure %d for key %q", n, key)
	}
	return nil
}

func TestMapRetrySucceedsWithoutDuplicates(t *testing.T) {
	mapper := newFlakyMapper(2)
	job := &Job{
		Name:        "flaky-map",
		Mapper:      mapper,
		Reducer:     countReducer,
		NumReducers: 2,
		MaxAttempts: 3,
	}
	inputs := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	res, err := runSlice(job, inputs)
	if err != nil {
		t.Fatal(err)
	}
	// Each record was attempted 3 times but committed exactly once.
	if res.Counters.ShuffleRecords != 3 {
		t.Errorf("ShuffleRecords = %d, want 3 (failed attempts must not double-emit)", res.Counters.ShuffleRecords)
	}
	if got := mapper.total.Load(); got != 9 {
		t.Errorf("mapper called %d times, want 9 (3 records x 3 attempts)", got)
	}
	out := res.FlatOutput()
	if len(out) != 1 || string(out[0]) != "k=3" {
		t.Errorf("output = %q, want [k=3]", out)
	}
}

func TestMapRetryExhaustedFailsJob(t *testing.T) {
	job := &Job{
		Name:        "always-failing-map",
		Mapper:      newFlakyMapper(10),
		Reducer:     countReducer,
		NumReducers: 1,
		MaxAttempts: 2,
	}
	_, err := runSlice(job, [][]byte{[]byte("a")})
	if err == nil || !strings.Contains(err.Error(), "failed after 2 attempts") {
		t.Errorf("expected exhaustion error, got %v", err)
	}
}

func TestReduceRetrySucceedsWithoutDuplicates(t *testing.T) {
	job := &Job{
		Name:        "flaky-reduce",
		Mapper:      wordCountMapper,
		Reducer:     newFlakyReducer(1),
		NumReducers: 2,
		MaxAttempts: 2,
	}
	res, err := runSlice(job, [][]byte{[]byte("x y x")})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, rec := range res.FlatOutput() {
		if got[string(rec)] {
			t.Errorf("duplicate output record %q after retry", rec)
		}
		got[string(rec)] = true
	}
	if !got["x:2"] || !got["y:1"] {
		t.Errorf("missing outputs: %v", got)
	}
	if res.Counters.ReduceOutputRecords != 2 {
		t.Errorf("ReduceOutputRecords = %d, want 2", res.Counters.ReduceOutputRecords)
	}
}

func TestReduceRetryExhaustedFailsJob(t *testing.T) {
	job := &Job{
		Name:        "always-failing-reduce",
		Mapper:      wordCountMapper,
		Reducer:     newFlakyReducer(5),
		NumReducers: 1,
		MaxAttempts: 3,
	}
	_, err := runSlice(job, [][]byte{[]byte("x")})
	if err == nil || !strings.Contains(err.Error(), "failed after 3 attempts") {
		t.Errorf("expected exhaustion error, got %v", err)
	}
}

func TestSingleAttemptIsDefault(t *testing.T) {
	job := &Job{Name: "default-attempts", Mapper: newFlakyMapper(1), Reducer: countReducer, NumReducers: 1}
	if job.attempts() != 1 {
		t.Fatalf("attempts() = %d, want 1", job.attempts())
	}
	_, err := runSlice(job, [][]byte{[]byte("a")})
	if err == nil {
		t.Error("a single-attempt job with a failing mapper should fail")
	}
	if err != nil && !strings.Contains(err.Error(), "injected map failure") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestRetryWithParallelWorkers(t *testing.T) {
	// The same flaky behaviour under parallel map workers must still commit
	// each record exactly once.
	mapper := newFlakyMapper(1)
	job := &Job{
		Name:              "flaky-parallel",
		Mapper:            mapper,
		Reducer:           countReducer,
		NumReducers:       4,
		MapParallelism:    4,
		MaxAttempts:       2,
		ReduceParallelism: 4,
	}
	inputs := make([][]byte, 20)
	for i := range inputs {
		inputs[i] = []byte(fmt.Sprintf("rec%02d", i))
	}
	res, err := runSlice(job, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.ShuffleRecords != 20 {
		t.Errorf("ShuffleRecords = %d, want 20", res.Counters.ShuffleRecords)
	}
}
