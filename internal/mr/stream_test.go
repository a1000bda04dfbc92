package mr

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// streamInputs builds a deterministic pseudo-random word corpus.
func streamInputs(records, wordsPerRecord int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, records)
	for i := range out {
		words := make([]string, wordsPerRecord)
		for j := range words {
			words[j] = fmt.Sprintf("w%03d", rng.Intn(40))
		}
		out[i] = []byte(strings.Join(words, " "))
	}
	return out
}

func runStream(t *testing.T, job *Job, inputs [][]byte, opts StreamOptions) *Result {
	t.Helper()
	res, err := NewEngine().RunStream(context.Background(), job, NewSliceSource(inputs), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSpilledRunMatchesInMemoryRun is the spill-path property test: a tiny
// memory budget forces every partition through sorted run files, and the
// output must equal the unbounded in-memory run record for record.
func TestSpilledRunMatchesInMemoryRun(t *testing.T) {
	inputs := streamInputs(200, 8, 1)
	want := runStream(t, wordCountJob(7), inputs, StreamOptions{})
	if want.Counters.SpillRuns != 0 {
		t.Fatalf("unbounded run spilled %d runs", want.Counters.SpillRuns)
	}

	var spillCalls atomic.Int64
	got := runStream(t, wordCountJob(7), inputs, StreamOptions{
		MemoryBudget: 64, // bytes: far below the shuffle volume
		SpillDir:     t.TempDir(),
		OnSpill:      func(partition int, runBytes int64) { spillCalls.Add(1) },
	})
	if got.Counters.SpillRuns == 0 {
		t.Fatal("budgeted run did not spill")
	}
	if got.Counters.SpillPartitions == 0 || got.Counters.SpillBytes == 0 {
		t.Fatalf("spill counters incomplete: %+v", got.Counters)
	}
	if spillCalls.Load() != got.Counters.SpillRuns {
		t.Fatalf("OnSpill fired %d times for %d runs", spillCalls.Load(), got.Counters.SpillRuns)
	}
	if len(got.Output) != len(want.Output) {
		t.Fatalf("partition count drifted: %d vs %d", len(got.Output), len(want.Output))
	}
	for p := range want.Output {
		if len(got.Output[p]) != len(want.Output[p]) {
			t.Fatalf("partition %d: %d records, in-memory run had %d", p, len(got.Output[p]), len(want.Output[p]))
		}
		for i := range want.Output[p] {
			if string(got.Output[p][i]) != string(want.Output[p][i]) {
				t.Fatalf("partition %d record %d: %q, in-memory run had %q",
					p, i, got.Output[p][i], want.Output[p][i])
			}
		}
	}
	// Shuffle accounting must be identical too: spilling is invisible to the
	// communication counters.
	if got.Counters.ShuffleBytes != want.Counters.ShuffleBytes ||
		got.Counters.ShuffleRecords != want.Counters.ShuffleRecords ||
		!reflect.DeepEqual(got.Counters.ReducerLoads, want.Counters.ReducerLoads) {
		t.Fatalf("shuffle counters drifted:\n  unbounded: %+v\n  budgeted:  %+v", want.Counters, got.Counters)
	}
}

// TestSpilledRunWithCombinerMatches exercises the spill + combine path: runs
// are merged back before the combiner sees the groups.
func TestSpilledRunWithCombinerMatches(t *testing.T) {
	inputs := streamInputs(150, 6, 2)
	job := func() *Job {
		j := wordCountJob(5)
		j.Combiner = summingCombiner{}
		j.Reducer = sumReducer
		return j
	}
	want := runStream(t, job(), inputs, StreamOptions{})
	got := runStream(t, job(), inputs, StreamOptions{MemoryBudget: 64, SpillDir: t.TempDir()})
	if got.Counters.SpillRuns == 0 {
		t.Fatal("budgeted run did not spill")
	}
	if !reflect.DeepEqual(flatStrings(got), flatStrings(want)) {
		t.Fatalf("combined output drifted:\n  unbounded: %v\n  budgeted:  %v", flatStrings(want), flatStrings(got))
	}
	if got.Counters.ShuffleBytes != want.Counters.ShuffleBytes {
		t.Fatalf("post-combine shuffle drifted: %d vs %d", got.Counters.ShuffleBytes, want.Counters.ShuffleBytes)
	}
}

// sumReducer sums numeric values (the combiner's partial counts).
var sumReducer = ReducerFunc(func(key string, values [][]byte, emit func([]byte)) error {
	total := 0
	for _, v := range values {
		n := 0
		fmt.Sscanf(string(v), "%d", &n)
		total += n
	}
	emit([]byte(fmt.Sprintf("%s=%d", key, total)))
	return nil
})

func flatStrings(res *Result) []string {
	var out []string
	for _, rec := range res.FlatOutput() {
		out = append(out, string(rec))
	}
	return out
}

// TestRunStreamDeterministicUnderParallelism asserts the provenance-ordered
// shuffle makes output byte-identical across runs even with full map
// parallelism — stronger than the seed engine's worker-slot ordering.
func TestRunStreamDeterministicUnderParallelism(t *testing.T) {
	inputs := streamInputs(120, 5, 3)
	job := func() *Job { return orderSensitiveJob(6, 8) }
	base := flatStrings(runStream(t, job(), inputs, StreamOptions{}))
	for i := 0; i < 5; i++ {
		again := flatStrings(runStream(t, job(), inputs, StreamOptions{}))
		if !reflect.DeepEqual(base, again) {
			t.Fatalf("run %d produced different output under parallelism", i)
		}
	}
	// And a budgeted (spilling) run agrees with the in-memory ones.
	spilled := runStream(t, job(), inputs, StreamOptions{MemoryBudget: 32, SpillDir: t.TempDir()})
	if !reflect.DeepEqual(base, flatStrings(spilled)) {
		t.Fatal("spilled run produced different output")
	}
}

// blockingSource yields a few records then blocks until its context dies,
// modelling a long streaming run.
type blockingSource struct {
	ctx   context.Context
	n     int
	limit int
}

func (s *blockingSource) Next() ([]byte, error) {
	if s.n < s.limit {
		s.n++
		return []byte(fmt.Sprintf("rec %d", s.n)), nil
	}
	<-s.ctx.Done()
	return nil, io.EOF
}

// TestRunStreamCancellation is the satellite fix for the known gap in
// pkg/assign/execute.go: a cancelled context must stop a long run promptly
// and clean up its spill files.
func TestRunStreamCancellation(t *testing.T) {
	spillDir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	src := &blockingSource{ctx: ctx, limit: 500}
	job := wordCountJob(4)
	done := make(chan error, 1)
	go func() {
		_, err := NewEngine().RunStream(ctx, job, src, nil, StreamOptions{MemoryBudget: 16, SpillDir: spillDir})
		done <- err
	}()
	// Give the pipeline a moment to ingest (and spill) the finite prefix,
	// then cancel mid-run while the source is blocked.
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunStream returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunStream did not return promptly after cancellation")
	}
	// The run's private mr-spill-* directory must be gone.
	leftovers, err := filepath.Glob(filepath.Join(spillDir, "mr-spill-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Fatalf("spill directories leaked after cancellation: %v", leftovers)
	}
}

// TestRunStreamCancelDuringReduce cancels while a reduce task is running;
// the pipeline must still unwind.
func TestRunStreamCancelDuringReduce(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	slowReducer := ReducerFunc(func(key string, values [][]byte, emit func([]byte)) error {
		once.Do(func() { close(started) })
		<-ctx.Done()
		return ctx.Err()
	})
	job := &Job{Name: "slow", Mapper: wordCountMapper, Reducer: slowReducer, NumReducers: 3}
	done := make(chan error, 1)
	go func() {
		_, err := NewEngine().RunStream(ctx, job, NewSliceSource(streamInputs(20, 4, 4)), nil, StreamOptions{})
		done <- err
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("RunStream succeeded despite cancellation")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunStream did not return after cancellation during reduce")
	}
}

// TestRunStreamSourceError asserts a failing source fails the run.
func TestRunStreamSourceError(t *testing.T) {
	boom := errors.New("disk on fire")
	n := 0
	src := SourceFunc(func() ([]byte, error) {
		n++
		if n > 3 {
			return nil, boom
		}
		return []byte("a b c"), nil
	})
	_, err := NewEngine().RunStream(context.Background(), wordCountJob(2), src, nil, StreamOptions{})
	if !errors.Is(err, boom) {
		t.Fatalf("RunStream returned %v, want the source error", err)
	}
}

// TestRunStreamSinkError asserts a failing sink fails the run.
func TestRunStreamSinkError(t *testing.T) {
	boom := errors.New("sink full")
	sink := SinkFunc(func(partition int, rec []byte) error { return boom })
	_, err := NewEngine().RunStream(context.Background(), wordCountJob(2),
		NewSliceSource(streamInputs(10, 3, 5)), sink, StreamOptions{})
	if !errors.Is(err, boom) {
		t.Fatalf("RunStream returned %v, want the sink error", err)
	}
}

// TestRunStreamSinkMatchesCollected asserts sink delivery covers exactly the
// collected output, with per-partition order preserved.
func TestRunStreamSinkMatchesCollected(t *testing.T) {
	inputs := streamInputs(80, 4, 6)
	collected := runStream(t, wordCountJob(5), inputs, StreamOptions{})

	perPart := make([][]string, 5)
	sink := SinkFunc(func(partition int, rec []byte) error {
		perPart[partition] = append(perPart[partition], string(rec))
		return nil
	})
	res, err := NewEngine().RunStream(context.Background(), wordCountJob(5),
		NewSliceSource(inputs), sink, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// With a sink the result carries counters but no materialized output.
	if res.Output != nil {
		t.Fatalf("sink run materialized output: %d partitions", len(res.Output))
	}
	for p := range collected.Output {
		want := make([]string, len(collected.Output[p]))
		for i, rec := range collected.Output[p] {
			want[i] = string(rec)
		}
		if !reflect.DeepEqual(perPart[p], want) {
			if len(want) == 0 && len(perPart[p]) == 0 {
				continue
			}
			t.Fatalf("partition %d: sink saw %v, collect saw %v", p, perPart[p], want)
		}
	}
}

// TestRunStreamStageHook asserts the tracing hook sees both phases.
func TestRunStreamStageHook(t *testing.T) {
	var mu sync.Mutex
	var events []string
	opts := StreamOptions{
		OnStage: func(stage string) func() {
			mu.Lock()
			events = append(events, stage+":start")
			mu.Unlock()
			return func() {
				mu.Lock()
				events = append(events, stage+":end")
				mu.Unlock()
			}
		},
	}
	runStream(t, wordCountJob(3), streamInputs(10, 3, 7), opts)
	want := []string{"map:start", "map:end", "reduce:start", "reduce:end"}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("stage events = %v, want %v", events, want)
	}
}

// TestRunStreamNoSpillDirWithoutSpill asserts the temp directory is only
// created when something actually spills.
func TestRunStreamNoSpillDirWithoutSpill(t *testing.T) {
	dir := t.TempDir()
	runStream(t, wordCountJob(3), streamInputs(10, 3, 8), StreamOptions{SpillDir: dir})
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("unbounded run created %d entries in the spill dir", len(entries))
	}
}

// TestRunStreamConcurrentHammer runs many concurrent budgeted pipelines —
// under -race this shakes out data races across the per-partition stages.
func TestRunStreamConcurrentHammer(t *testing.T) {
	inputs := streamInputs(100, 6, 9)
	want := flatStrings(runStream(t, wordCountJob(6), inputs, StreamOptions{}))
	dir := t.TempDir()
	const runs = 16
	var wg sync.WaitGroup
	errs := make([]error, runs)
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			job := wordCountJob(6)
			job.MapParallelism = 4
			res, err := NewEngine().RunStream(context.Background(), job,
				NewSliceSource(inputs), nil, StreamOptions{MemoryBudget: 128, SpillDir: dir, BufferSize: 4})
			if err != nil {
				errs[i] = err
				return
			}
			if got := flatStrings(res); !reflect.DeepEqual(got, want) {
				errs[i] = fmt.Errorf("run %d output drifted", i)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	leftovers, _ := filepath.Glob(filepath.Join(dir, "mr-spill-*"))
	if len(leftovers) != 0 {
		t.Fatalf("spill directories leaked: %v", leftovers)
	}
}

// TestSpillRunRoundTrip exercises the run-file codec directly.
func TestSpillRunRoundTrip(t *testing.T) {
	pairs := []streamPair{
		{Pair: Pair{Key: "b", Value: []byte("2")}, rec: 1, emit: 0},
		{Pair: Pair{Key: "a", Value: []byte("1")}, rec: 0, emit: 1},
		{Pair: Pair{Key: "a", Value: []byte("0")}, rec: 0, emit: 0},
		{Pair: Pair{Key: "a", Value: nil}, rec: 2, emit: 0},
	}
	run, err := writeSpillRun(t.TempDir(), 0, 0, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if run.pairs != int64(len(pairs)) {
		t.Fatalf("run recorded %d pairs, want %d", run.pairs, len(pairs))
	}
	c, err := openRun(run)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	wantOrder := []string{"a/0/0", "a/0/1", "a/2/0", "b/1/0"}
	for i, want := range wantOrder {
		p, err := c.next()
		if err != nil {
			t.Fatalf("pair %d: %v", i, err)
		}
		got := fmt.Sprintf("%s/%d/%d", p.Key, p.rec, p.emit)
		if got != want {
			t.Fatalf("pair %d = %s, want %s", i, got, want)
		}
	}
	if _, err := c.next(); !errors.Is(err, io.EOF) {
		t.Fatalf("expected io.EOF at end of run, got %v", err)
	}
}

// TestMergePairsAcrossRuns merges two run files with an in-memory cursor.
func TestMergePairsAcrossRuns(t *testing.T) {
	dir := t.TempDir()
	run1, err := writeSpillRun(dir, 0, 0, []streamPair{
		{Pair: Pair{Key: "a", Value: []byte("r1a")}, rec: 0, emit: 0},
		{Pair: Pair{Key: "c", Value: []byte("r1c")}, rec: 1, emit: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	run2, err := writeSpillRun(dir, 0, 1, []streamPair{
		{Pair: Pair{Key: "a", Value: []byte("r2a")}, rec: 2, emit: 0},
		{Pair: Pair{Key: "b", Value: []byte("r2b")}, rec: 3, emit: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	c1, err := openRun(run1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := openRun(run2)
	if err != nil {
		t.Fatal(err)
	}
	mem := &memCursor{pairs: []streamPair{
		{Pair: Pair{Key: "b", Value: []byte("m-b")}, rec: 0, emit: 1},
		{Pair: Pair{Key: "d", Value: []byte("m-d")}, rec: 4, emit: 0},
	}}
	var got []string
	err = mergePairs([]pairCursor{c1, c2, mem}, func(key string, values [][]byte) error {
		var vs []string
		for _, v := range values {
			vs = append(vs, string(v))
		}
		got = append(got, key+"="+strings.Join(vs, ","))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a=r1a,r2a", "b=m-b,r2b", "c=r1c", "d=m-d"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merge produced %v, want %v", got, want)
	}
}

// orderSensitiveJob emits position-tagged values and concatenates each key's
// values in arrival order, so any drift in the provenance order of the
// shuffle changes the output bytes.
func orderSensitiveJob(reducers, mapParallelism int) *Job {
	return &Job{
		Name: "order",
		Mapper: MapperFunc(func(record []byte, emit func(Pair)) error {
			for i, w := range strings.Fields(string(record)) {
				emit(Pair{Key: w, Value: []byte(fmt.Sprintf("[%s#%d]", record[:4], i))})
			}
			return nil
		}),
		Reducer: ReducerFunc(func(key string, values [][]byte, emit func([]byte)) error {
			emit([]byte(key + ":" + string(bytes.Join(values, nil))))
			return nil
		}),
		NumReducers:    reducers,
		MapParallelism: mapParallelism,
	}
}

// TestChunkedShuffleIdenticalAcrossMapParallelism pins the chunked stages to
// the record-at-a-time contract: whatever the number of map workers and
// whatever the chunk length (BufferSize 1 is a chunk of one), output bytes
// and shuffle counters are identical.
func TestChunkedShuffleIdenticalAcrossMapParallelism(t *testing.T) {
	inputs := streamInputs(700, 9, 11) // several chunks per worker and per partition
	base := runStream(t, orderSensitiveJob(5, 1), inputs, StreamOptions{BufferSize: 1})
	want := flatStrings(base)
	for _, par := range []int{1, 2, 8} {
		for _, buf := range []int{0, 1, 7, 1000} {
			got := runStream(t, orderSensitiveJob(5, par), inputs, StreamOptions{BufferSize: buf})
			if !reflect.DeepEqual(flatStrings(got), want) {
				t.Fatalf("MapParallelism %d, BufferSize %d: output differs from the record-at-a-time run", par, buf)
			}
			if got.Counters.ShuffleRecords != base.Counters.ShuffleRecords ||
				got.Counters.ShuffleBytes != base.Counters.ShuffleBytes ||
				got.Counters.MapInputRecords != base.Counters.MapInputRecords ||
				!reflect.DeepEqual(got.Counters.ReducerLoads, base.Counters.ReducerLoads) {
				t.Fatalf("MapParallelism %d, BufferSize %d: counters drifted:\n  base: %+v\n  got:  %+v", par, buf, base.Counters, got.Counters)
			}
		}
	}
}

// TestBudgetBelowOneRecordSpillsEveryRecord asserts the memory budget is
// still checked per inserted record, not per chunk: with a budget no record
// fits in, every shuffled record becomes its own run file.
func TestBudgetBelowOneRecordSpillsEveryRecord(t *testing.T) {
	inputs := streamInputs(300, 6, 12)
	want := flatStrings(runStream(t, orderSensitiveJob(4, 1), inputs, StreamOptions{}))
	for _, par := range []int{1, 8} {
		got := runStream(t, orderSensitiveJob(4, par), inputs, StreamOptions{MemoryBudget: 1, SpillDir: t.TempDir()})
		if got.Counters.SpillRuns != got.Counters.ShuffleRecords {
			t.Fatalf("MapParallelism %d: %d spill runs for %d shuffled records, want one each",
				par, got.Counters.SpillRuns, got.Counters.ShuffleRecords)
		}
		if !reflect.DeepEqual(flatStrings(got), want) {
			t.Fatalf("MapParallelism %d: fully spilled output differs from the in-memory run", par)
		}
	}
}

// TestRunStreamCancelMidChunk cancels while the reader holds a partial chunk
// (the source has stalled short of a chunk boundary), the map workers hold
// partial pending chunks, and partitions are spilling: the run must return
// promptly, leave no spill directory, and leak no goroutine.
func TestRunStreamCancelMidChunk(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	spillDir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &blockingSource{ctx: ctx, limit: 5*chunkRecords + chunkRecords/2}
	spilled := make(chan struct{})
	var once sync.Once
	done := make(chan error, 1)
	go func() {
		_, err := NewEngine().RunStream(ctx, wordCountJob(2), src, nil, StreamOptions{
			MemoryBudget: 1, SpillDir: spillDir,
			OnSpill: func(int, int64) { once.Do(func() { close(spilled) }) },
		})
		done <- err
	}()
	select {
	case <-spilled:
	case <-time.After(5 * time.Second):
		t.Fatal("the pipeline never spilled")
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunStream returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunStream did not return promptly after cancellation")
	}
	if leftovers, _ := filepath.Glob(filepath.Join(spillDir, "mr-spill-*")); len(leftovers) != 0 {
		t.Fatalf("spill directories leaked after cancellation: %v", leftovers)
	}
	// The reader and the map workers exit on their own once they see the
	// cancellation; give them a moment.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the run, %d after: the pipeline leaked", goroutines, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}
