package mr

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// joinJob routes record i to route(i), and every reducer emits one record:
// "r<r>:" and the data of its copies joined with '|', in the order it
// received them — so any drift in routing or in order changes the output
// bytes.
func joinJob(reducers int, route func(i int) []int) *Job {
	return &Job{
		Name:        "join",
		NumReducers: reducers,
		Route:       route,
		Reduce: func(r int, recs []Record, emit func([]byte)) error {
			out := fmt.Appendf(nil, "r%d:", r)
			for i, rec := range recs {
				if i > 0 {
					out = append(out, '|')
				}
				out = append(out, rec.Data...)
			}
			emit(out)
			return nil
		},
	}
}

// scatterJob is a schema-shaped job over many reducers: record i is copied to
// `copies` reducers spread over the range.
func scatterJob(reducers, copies int) *Job {
	return joinJob(reducers, func(i int) []int {
		rs := make([]int, copies)
		for c := range rs {
			rs[c] = (i*7 + c*(reducers/copies)) % reducers
		}
		return rs
	})
}

// runSlice feeds a record slice through Run with default options and collects
// the output in the Result.
func runSlice(job *Job, inputs [][]byte) (*Result, error) {
	return Run(context.Background(), job, NewSliceSource(inputs), nil, StreamOptions{})
}

// wordCountJob counts words on `reducers` reducers, record i going to reducer
// i mod reducers: each reducer emits "word=count" for the words of the
// records it holds, in sorted order, and the caller adds up the reducers'
// counts.
func wordCountJob(reducers int) *Job {
	return &Job{
		Name:        "wordcount",
		NumReducers: reducers,
		Route:       func(i int) []int { return []int{i % reducers} },
		Reduce: func(r int, recs []Record, emit func([]byte)) error {
			counts := map[string]int{}
			for _, rec := range recs {
				for _, w := range strings.Fields(string(rec.Data)) {
					counts[w]++
				}
			}
			for _, w := range slices.Sorted(maps.Keys(counts)) {
				emit([]byte(fmt.Sprintf("%s=%d", w, counts[w])))
			}
			return nil
		},
	}
}

func TestWordCountEndToEnd(t *testing.T) {
	res, err := runSlice(wordCountJob(2), [][]byte{
		[]byte("the quick brown fox"),
		[]byte("the lazy dog"),
		[]byte("the quick dog"),
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, rec := range res.FlatOutput() {
		w, n, _ := strings.Cut(string(rec), "=")
		c, err := strconv.Atoi(n)
		if err != nil {
			t.Fatalf("bad output record %q", rec)
		}
		counts[w] += c
	}
	want := map[string]int{"the": 3, "quick": 2, "brown": 1, "fox": 1, "lazy": 1, "dog": 2}
	if !reflect.DeepEqual(counts, want) {
		t.Errorf("counts = %v, want %v", counts, want)
	}
	// Records 0 and 2 went to reducer 0, record 1 to reducer 1.
	if got := string(res.Output[1][0]); got != "dog=1" {
		t.Errorf("reducer 1's first record = %q, want dog=1", got)
	}
}

func TestCountersAccounting(t *testing.T) {
	// Record 0 ("xy") goes to both reducers, record 1 ("z") to reducer 1.
	job := joinJob(2, func(i int) []int { return [][]int{{0, 1}, {1}}[i] })
	res, err := runSlice(job, [][]byte{[]byte("xy"), []byte("z")})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counters
	if c.MapInputRecords != 2 {
		t.Errorf("MapInputRecords = %d, want 2", c.MapInputRecords)
	}
	// The shuffle is the copies' bytes and nothing else: 2 + 2 + 1.
	if c.ShuffleRecords != 3 || c.ShuffleBytes != 5 {
		t.Errorf("shuffle = %d records, %d bytes, want 3 and 5", c.ShuffleRecords, c.ShuffleBytes)
	}
	if !reflect.DeepEqual(c.ReducerLoads, []int64{2, 3}) || c.MaxReducerLoad != 3 {
		t.Errorf("loads = %v (max %d), want [2 3] (max 3)", c.ReducerLoads, c.MaxReducerLoad)
	}
	if c.ReduceOutputRecords != 2 || c.ReduceOutputBytes != int64(len("r0:xy")+len("r1:xy|z")) {
		t.Errorf("output = %d records, %d bytes", c.ReduceOutputRecords, c.ReduceOutputBytes)
	}
	if got := c.LoadImbalance(); got != 3/2.5 {
		t.Errorf("LoadImbalance() = %v, want 1.2", got)
	}
	if !strings.Contains(c.String(), "shuffle=5B") {
		t.Errorf("Counters.String() = %q", c.String())
	}
}

func TestJobValidation(t *testing.T) {
	route := func(int) []int { return nil }
	reduce := func(int, []Record, func([]byte)) error { return nil }
	if _, err := runSlice(&Job{Reduce: reduce, NumReducers: 1}, nil); !errors.Is(err, ErrNoRoute) {
		t.Errorf("missing route: %v", err)
	}
	if _, err := runSlice(&Job{Route: route, NumReducers: 1}, nil); !errors.Is(err, ErrNoReduce) {
		t.Errorf("missing reduce: %v", err)
	}
	if _, err := runSlice(&Job{Route: route, Reduce: reduce}, nil); !errors.Is(err, ErrBadReducers) {
		t.Errorf("missing reducers: %v", err)
	}
}

// TestMapErrorPropagates: a record routed outside the job's reducers fails
// the run, naming the record and the reducer.
func TestMapErrorPropagates(t *testing.T) {
	for _, bad := range []int{-1, 3} {
		job := joinJob(3, func(i int) []int { return []int{i, bad} })
		_, err := runSlice(job, [][]byte{[]byte("x")})
		if want := fmt.Sprintf("mr: record 0 routed to reducer %d of 3", bad); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("route to %d: err = %v, want %s", bad, err, want)
		}
	}
}

func TestReduceErrorPropagates(t *testing.T) {
	job := scatterJob(2, 2)
	job.Reduce = func(int, []Record, func([]byte)) error { return errors.New("kaboom") }
	if _, err := runSlice(job, [][]byte{[]byte("x y")}); err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("reduce error not propagated: %v", err)
	}
}

func TestReducerCapacityEnforced(t *testing.T) {
	job := scatterJob(1, 1)
	job.ReducerCapacity = 5
	if _, err := runSlice(job, [][]byte{[]byte("abc"), []byte("de")}); err != nil {
		t.Fatalf("a load of exactly the capacity failed: %v", err)
	}
	_, err := runSlice(job, [][]byte{[]byte("abc"), []byte("def")})
	if !errors.Is(err, ErrOverCapacity) {
		t.Errorf("capacity violation not reported: %v", err)
	}
}

// TestSchemaDrivenJobRoutesCopiesExactly routes three inputs by a schema's
// table — pairwise reducers — and every reducer must see exactly the inputs
// of its row, in index order.
func TestSchemaDrivenJobRoutesCopiesExactly(t *testing.T) {
	routes := [][]int{{0, 1}, {0, 2}, {1, 2}} // input -> reducers
	job := joinJob(3, func(i int) []int { return routes[i] })
	res, err := runSlice(job, [][]byte{[]byte("a"), []byte("bb"), []byte("ccc")})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.FlatOutput(), [][]byte{[]byte("r0:a|bb"), []byte("r1:a|ccc"), []byte("r2:bb|ccc")}; !reflect.DeepEqual(got, want) {
		t.Errorf("output = %q, want %q", got, want)
	}
	if c := res.Counters; c.ShuffleRecords != 6 || c.ShuffleBytes != 12 {
		t.Errorf("shuffle = %d records, %d bytes, want 6 (each input twice) and 12", c.ShuffleRecords, c.ShuffleBytes)
	}
}

func TestRunWithNoInputs(t *testing.T) {
	res, err := runSlice(scatterJob(2, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.MapInputRecords != 0 || len(res.FlatOutput()) != 0 {
		t.Errorf("empty run produced output: %+v", res.Counters)
	}
}
