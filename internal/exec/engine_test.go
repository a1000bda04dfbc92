package exec

import (
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
func joinJob(reducers int, route func(i int) []int) *engineJob {
	return &engineJob{
		name:     "join",
		reducers: reducers,
		route:    route,
		hints:    make([]int, reducers),
		reduce: func(r int, recs []Record, emit func([]byte)) error {
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
func scatterJob(reducers, copies int) *engineJob {
	return joinJob(reducers, func(i int) []int {
		rs := make([]int, copies)
		for c := range rs {
			rs[c] = (i*7 + c*(reducers/copies)) % reducers
		}
		return rs
	})
}

// runSlice feeds a record slice through the engine with no budget and
// collects the output in the Result.
func runSlice(job *engineJob, inputs [][]byte) (*Result, error) {
	return runJob(&Request{}, job, NewSliceSource(inputs))
}

// wordCountJob counts words on `reducers` reducers, record i going to reducer
// i mod reducers: each reducer emits "word=count" for the words of the
// records it holds, in sorted order, and the caller adds up the reducers'
// counts.
func wordCountJob(reducers int) *engineJob {
	return &engineJob{
		name:     "wordcount",
		reducers: reducers,
		route:    func(i int) []int { return []int{i % reducers} },
		hints:    make([]int, reducers),
		reduce: func(r int, recs []Record, emit func([]byte)) error {
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
	for _, rec := range res.Output {
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
	// Records 0 and 2 went to reducer 0, which counts five words; record 1
	// went to reducer 1, whose records follow.
	if got := string(res.Output[5]); got != "dog=1" {
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
	// The shuffle is the copies' bytes and nothing else: 2 + 2 + 1.
	if c.ShuffleRecords != 3 || c.ShuffleBytes != 5 {
		t.Errorf("shuffle = %d records, %d bytes, want 3 and 5", c.ShuffleRecords, c.ShuffleBytes)
	}
	if !reflect.DeepEqual(c.ReducerLoads, []int64{2, 3}) || c.MaxReducerLoad != 3 {
		t.Errorf("loads = %v (max %d), want [2 3] (max 3)", c.ReducerLoads, c.MaxReducerLoad)
	}
	if want := []string{"r0:xy", "r1:xy|z"}; !reflect.DeepEqual(flatStrings(res), want) {
		t.Errorf("output = %q, want %q", flatStrings(res), want)
	}
	if got := c.LoadImbalance(); got != 3/2.5 {
		t.Errorf("LoadImbalance() = %v, want 1.2", got)
	}
}

// TestMapErrorPropagates: a record routed outside the job's reducers fails
// the run, naming the record and the reducer.
func TestMapErrorPropagates(t *testing.T) {
	for _, bad := range []int{-1, 3} {
		job := joinJob(3, func(i int) []int { return []int{i, bad} })
		_, err := runSlice(job, [][]byte{[]byte("x")})
		if want := fmt.Sprintf("record 0 routed to reducer %d of 3", bad); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("route to %d: err = %v, want %s", bad, err, want)
		}
	}
}

func TestReduceErrorPropagates(t *testing.T) {
	job := scatterJob(2, 2)
	job.reduce = func(int, []Record, func([]byte)) error { return errors.New("kaboom") }
	if _, err := runSlice(job, [][]byte{[]byte("x y")}); err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("reduce error not propagated: %v", err)
	}
}

func TestReducerCapacityEnforced(t *testing.T) {
	job := scatterJob(1, 1)
	job.capacity = 5
	if _, err := runSlice(job, [][]byte{[]byte("abc"), []byte("de")}); err != nil {
		t.Fatalf("a load of exactly the capacity failed: %v", err)
	}
	_, err := runSlice(job, [][]byte{[]byte("abc"), []byte("def")})
	if !errors.Is(err, errEngineOverCapacity) || errors.Is(err, ErrOverCapacity) {
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
	if got, want := res.Output, [][]byte{[]byte("r0:a|bb"), []byte("r1:a|ccc"), []byte("r2:bb|ccc")}; !reflect.DeepEqual(got, want) {
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
	if res.Counters.ShuffleRecords != 0 || len(res.Output) != 0 {
		t.Errorf("empty run produced output: %+v", res.Counters)
	}
}

// TestTwoReducersPairTheirRecords: a schema with two reducers over three
// records, record 0 going to both, so each reducer can pair it with the
// record it alone holds.
func TestTwoReducersPairTheirRecords(t *testing.T) {
	routes := [][]int{{0, 1}, {0}, {1}}
	job := &engineJob{
		name:     "pairs",
		reducers: 2,
		route:    func(i int) []int { return routes[i] },
		hints:    make([]int, 2),
		reduce: func(r int, recs []Record, emit func([]byte)) error {
			for i, a := range recs {
				for _, b := range recs[i+1:] {
					emit(fmt.Appendf(nil, "reducer %d: %s+%s", r, a.Data, b.Data))
				}
			}
			return nil
		},
	}
	res, err := runSlice(job, [][]byte{[]byte("hub"), []byte("left"), []byte("right")})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := flatStrings(res), []string{"reducer 0: hub+left", "reducer 1: hub+right"}; !reflect.DeepEqual(got, want) {
		t.Errorf("output = %q, want %q", got, want)
	}
	if got := res.Counters.ShuffleBytes; got != 15 {
		t.Errorf("shuffle bytes = %d, want 15", got)
	}
}
