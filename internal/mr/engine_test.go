package mr

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// wordCountMapper splits a record into words and emits (word, "1").
var wordCountMapper = MapperFunc(func(record []byte, emit func(Pair)) error {
	for _, w := range strings.Fields(string(record)) {
		emit(Pair{Key: w, Value: []byte("1")})
	}
	return nil
})

// countReducer emits "key=count".
var countReducer = ReducerFunc(func(key string, values [][]byte, emit func([]byte)) error {
	emit([]byte(fmt.Sprintf("%s=%d", key, len(values))))
	return nil
})

func wordCountJob(reducers int) *Job {
	return &Job{
		Name:        "wordcount",
		Mapper:      wordCountMapper,
		Reducer:     countReducer,
		NumReducers: reducers,
	}
}

// runSlice feeds a record slice through Run with default options and collects
// the output in the Result.
func runSlice(job *Job, inputs [][]byte) (*Result, error) {
	return Run(context.Background(), job, NewSliceSource(inputs), nil, StreamOptions{})
}

func runWordCount(t *testing.T, job *Job, inputs []string) map[string]int {
	t.Helper()
	recs := make([][]byte, len(inputs))
	for i, s := range inputs {
		recs[i] = []byte(s)
	}
	res, err := runSlice(job, recs)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, rec := range res.FlatOutput() {
		parts := strings.SplitN(string(rec), "=", 2)
		n, err := strconv.Atoi(parts[1])
		if err != nil {
			t.Fatalf("bad output record %q", rec)
		}
		counts[parts[0]] = n
	}
	return counts
}

func TestWordCountEndToEnd(t *testing.T) {
	counts := runWordCount(t, wordCountJob(3), []string{
		"the quick brown fox",
		"the lazy dog",
		"the quick dog",
	})
	want := map[string]int{"the": 3, "quick": 2, "brown": 1, "fox": 1, "lazy": 1, "dog": 2}
	for k, v := range want {
		if counts[k] != v {
			t.Errorf("count[%q] = %d, want %d", k, counts[k], v)
		}
	}
	if len(counts) != len(want) {
		t.Errorf("got %d distinct words, want %d", len(counts), len(want))
	}
}

func TestWordCountDeterministicSequential(t *testing.T) {
	job := wordCountJob(4)
	job.MapParallelism = 1
	job.ReduceParallelism = 1
	a := runWordCount(t, job, []string{"a b c a", "b c d"})
	b := runWordCount(t, job, []string{"a b c a", "b c d"})
	if len(a) != len(b) {
		t.Fatalf("non-deterministic output sizes %d vs %d", len(a), len(b))
	}
	for k, v := range a {
		if b[k] != v {
			t.Errorf("non-deterministic count for %q: %d vs %d", k, v, b[k])
		}
	}
}

func TestCountersAccounting(t *testing.T) {
	job := wordCountJob(2)
	recs := [][]byte{[]byte("x y"), []byte("y z")}
	res, err := runSlice(job, recs)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counters
	if c.MapInputRecords != 2 {
		t.Errorf("MapInputRecords = %d, want 2", c.MapInputRecords)
	}
	if c.MapOutputRecords != 4 {
		t.Errorf("MapOutputRecords = %d, want 4", c.MapOutputRecords)
	}
	// Each pair is 1 key byte + 1 value byte = 2 bytes.
	if c.MapOutputBytes != 8 || c.ShuffleBytes != 8 {
		t.Errorf("bytes = %d/%d, want 8/8", c.MapOutputBytes, c.ShuffleBytes)
	}
	if c.ReduceInputKeys != 3 {
		t.Errorf("ReduceInputKeys = %d, want 3", c.ReduceInputKeys)
	}
	if c.ReduceOutputRecords != 3 {
		t.Errorf("ReduceOutputRecords = %d, want 3", c.ReduceOutputRecords)
	}
	var loadSum int64
	for _, l := range c.ReducerLoads {
		loadSum += l
	}
	if loadSum != c.ShuffleBytes {
		t.Errorf("reducer loads sum %d != shuffle bytes %d", loadSum, c.ShuffleBytes)
	}
	if c.LoadImbalance() < 1 {
		t.Errorf("LoadImbalance() = %v, want >= 1", c.LoadImbalance())
	}
	if !strings.Contains(c.String(), "shuffle=") {
		t.Errorf("Counters.String() = %q", c.String())
	}
}

func TestJobValidation(t *testing.T) {
	if _, err := runSlice(&Job{Reducer: countReducer, NumReducers: 1}, nil); !errors.Is(err, ErrNoMapper) {
		t.Errorf("missing mapper: %v", err)
	}
	if _, err := runSlice(&Job{Mapper: wordCountMapper, NumReducers: 1}, nil); !errors.Is(err, ErrNoReducer) {
		t.Errorf("missing reducer: %v", err)
	}
	if _, err := runSlice(&Job{Mapper: wordCountMapper, Reducer: countReducer}, nil); !errors.Is(err, ErrBadReducers) {
		t.Errorf("missing reducers: %v", err)
	}
}

func TestMapErrorPropagates(t *testing.T) {
	job := &Job{
		Name:        "maperr",
		Mapper:      MapperFunc(func([]byte, func(Pair)) error { return errors.New("boom") }),
		Reducer:     countReducer,
		NumReducers: 1,
	}
	if _, err := runSlice(job, [][]byte{[]byte("x")}); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("map error not propagated: %v", err)
	}
}

func TestReduceErrorPropagates(t *testing.T) {
	job := &Job{
		Name:        "reduceerr",
		Mapper:      wordCountMapper,
		Reducer:     ReducerFunc(func(string, [][]byte, func([]byte)) error { return errors.New("kaboom") }),
		NumReducers: 2,
	}
	if _, err := runSlice(job, [][]byte{[]byte("x y")}); err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("reduce error not propagated: %v", err)
	}
}

func TestReducerCapacityEnforced(t *testing.T) {
	job := wordCountJob(1)
	job.ReducerCapacity = 3 // far below the shuffle volume
	_, err := runSlice(job, [][]byte{[]byte("alpha beta gamma")})
	if !errors.Is(err, ErrOverCapacity) {
		t.Errorf("capacity violation not reported: %v", err)
	}
}

func TestHashPartitionerStableAndInRange(t *testing.T) {
	for _, key := range []string{"", "a", "alpha", "Ω", "reducer-17"} {
		p1 := HashPartitioner(key, 7)
		p2 := HashPartitioner(key, 7)
		if p1 != p2 {
			t.Errorf("HashPartitioner(%q) unstable: %d vs %d", key, p1, p2)
		}
		if p1 < 0 || p1 >= 7 {
			t.Errorf("HashPartitioner(%q) = %d out of range", key, p1)
		}
	}
}

func TestSchemaPartitionerRouting(t *testing.T) {
	if got := SchemaPartitioner(ReducerKey(3), 10); got != 3 {
		t.Errorf("SchemaPartitioner(r3) = %d, want 3", got)
	}
	// Out-of-range reducer keys and non-reducer keys fall back to hashing.
	if got := SchemaPartitioner(ReducerKey(30), 10); got < 0 || got >= 10 {
		t.Errorf("out-of-range reducer key routed to %d", got)
	}
	if got := SchemaPartitioner("someKey", 10); got < 0 || got >= 10 {
		t.Errorf("plain key routed to %d", got)
	}
}

func TestReducerKeyRoundTrip(t *testing.T) {
	for _, r := range []int{0, 1, 99, 12345} {
		got, err := ParseReducerKey(ReducerKey(r))
		if err != nil || got != r {
			t.Errorf("round trip of %d = %d, %v", r, got, err)
		}
	}
	if _, err := ParseReducerKey("x7"); err == nil {
		t.Error("ParseReducerKey accepted a non-reducer key")
	}
	if _, err := ParseReducerKey(""); err == nil {
		t.Error("ParseReducerKey accepted an empty key")
	}
}

func TestAssignmentsA2A(t *testing.T) {
	set := core.MustNewInputSet([]core.Size{1, 1, 1})
	ms := &core.MappingSchema{Problem: core.ProblemA2A, Capacity: 2}
	ms.AddReducerA2A(set, []int{0, 1})
	ms.AddReducerA2A(set, []int{0, 2})
	ms.AddReducerA2A(set, []int{1, 2})
	assign := AssignmentsA2A(ms, 3)
	want := [][]int{{0, 1}, {0, 2}, {1, 2}}
	for i := range want {
		if len(assign[i]) != len(want[i]) {
			t.Fatalf("assignments[%d] = %v, want %v", i, assign[i], want[i])
		}
		for j := range want[i] {
			if assign[i][j] != want[i][j] {
				t.Errorf("assignments[%d] = %v, want %v", i, assign[i], want[i])
			}
		}
	}
}

// TestAssignmentsSkipStrayIDsAndDoNotAlias covers what a well-formed schema
// never shows: IDs outside the declared input range are skipped, an input no
// reducer holds keeps a nil list, and — the lists being cut from one backing
// array — growing one list does not write into the next.
func TestAssignmentsSkipStrayIDsAndDoNotAlias(t *testing.T) {
	ms := &core.MappingSchema{Problem: core.ProblemA2A, Reducers: []core.Reducer{
		{Inputs: []int{-1, 0, 2, 4}}, {Inputs: []int{0}},
	}}
	assign := AssignmentsA2A(ms, 4)
	if want := [][]int{{0, 1}, nil, {0}, nil}; !reflect.DeepEqual(assign, want) {
		t.Fatalf("assignments = %v, want %v", assign, want)
	}
	_ = append(assign[0], 9)
	if assign[2][0] != 0 {
		t.Fatalf("appending to input 0's list overwrote input 2's: %v", assign)
	}
}

func TestAssignmentsX2Y(t *testing.T) {
	xs := core.MustNewInputSet([]core.Size{1, 1})
	ys := core.MustNewInputSet([]core.Size{1})
	ms := &core.MappingSchema{Problem: core.ProblemX2Y, Capacity: 4}
	ms.AddReducerX2Y(xs, ys, []int{0}, []int{0})
	ms.AddReducerX2Y(xs, ys, []int{1}, []int{0})
	x, y := AssignmentsX2Y(ms, 2, 1)
	if len(x[0]) != 1 || x[0][0] != 0 || len(x[1]) != 1 || x[1][0] != 1 {
		t.Errorf("x assignments = %v", x)
	}
	if len(y[0]) != 2 {
		t.Errorf("y assignments = %v, want both reducers", y)
	}
}

func TestSchemaDrivenJobRoutesCopiesExactly(t *testing.T) {
	// Three inputs, schema: pairwise reducers. The mapper replicates each
	// input to its assigned reducers; every partition must see exactly the
	// two inputs of its reducer.
	set := core.MustNewInputSet([]core.Size{1, 1, 1})
	ms := &core.MappingSchema{Problem: core.ProblemA2A, Capacity: 2}
	ms.AddReducerA2A(set, []int{0, 1})
	ms.AddReducerA2A(set, []int{0, 2})
	ms.AddReducerA2A(set, []int{1, 2})
	assign := AssignmentsA2A(ms, 3)

	mapper := MapperFunc(func(record []byte, emit func(Pair)) error {
		id, err := strconv.Atoi(string(record))
		if err != nil {
			return err
		}
		for _, r := range assign[id] {
			emit(Pair{Key: ReducerKey(r), Value: record})
		}
		return nil
	})
	reducer := ReducerFunc(func(key string, values [][]byte, emit func([]byte)) error {
		cp := make([][]byte, len(values))
		copy(cp, values)
		sort.Slice(cp, func(i, j int) bool { return bytes.Compare(cp[i], cp[j]) < 0 })
		emit([]byte(key + ":" + string(bytes.Join(cp, []byte(",")))))
		return nil
	})
	job := &Job{Name: "schema", Mapper: mapper, Reducer: reducer,
		NumReducers: ms.NumReducers(), Partitioner: SchemaPartitioner}
	res, err := runSlice(job, [][]byte{[]byte("0"), []byte("1"), []byte("2")})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, rec := range res.FlatOutput() {
		got[string(rec)] = true
	}
	for _, want := range []string{"r0:0,1", "r1:0,2", "r2:1,2"} {
		if !got[want] {
			t.Errorf("missing reducer output %q in %v", want, got)
		}
	}
	if res.Counters.ShuffleRecords != 6 {
		t.Errorf("ShuffleRecords = %d, want 6 (each input replicated twice)", res.Counters.ShuffleRecords)
	}
}

func TestRunWithNoInputs(t *testing.T) {
	res, err := runSlice(wordCountJob(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.MapInputRecords != 0 || len(res.FlatOutput()) != 0 {
		t.Errorf("empty run produced output: %+v", res.Counters)
	}
}

func TestParallelAndSequentialAgree(t *testing.T) {
	inputs := make([][]byte, 50)
	for i := range inputs {
		inputs[i] = []byte(fmt.Sprintf("w%d shared w%d", i%7, (i*3)%5))
	}
	seq := wordCountJob(5)
	seq.MapParallelism, seq.ReduceParallelism = 1, 1
	par := wordCountJob(5)
	par.MapParallelism, par.ReduceParallelism = 8, 5

	resSeq, err := runSlice(seq, inputs)
	if err != nil {
		t.Fatal(err)
	}
	resPar, err := runSlice(par, inputs)
	if err != nil {
		t.Fatal(err)
	}
	toMap := func(res *Result) map[string]bool {
		m := map[string]bool{}
		for _, rec := range res.FlatOutput() {
			m[string(rec)] = true
		}
		return m
	}
	a, b := toMap(resSeq), toMap(resPar)
	if len(a) != len(b) {
		t.Fatalf("different output sizes: %d vs %d", len(a), len(b))
	}
	for k := range a {
		if !b[k] {
			t.Errorf("parallel run missing record %q", k)
		}
	}
	if resSeq.Counters.ShuffleBytes != resPar.Counters.ShuffleBytes {
		t.Errorf("shuffle volume differs: %d vs %d", resSeq.Counters.ShuffleBytes, resPar.Counters.ShuffleBytes)
	}
}
