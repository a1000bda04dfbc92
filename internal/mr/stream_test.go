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
	"slices"
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
	res, err := Run(context.Background(), job, NewSliceSource(inputs), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSpilledRunMatchesInMemoryRun is the grouping property test. Every run
// groups by sort-merge — the unbounded one over its sorted buffer alone, a
// budgeted one over spilled runs too — so for a hash-partitioned job with
// many keys per partition and order-sensitive values, the output bytes, the
// order of the key groups within each partition and the counters must not
// depend on the memory budget or on the number of map workers.
func TestSpilledRunMatchesInMemoryRun(t *testing.T) {
	inputs := streamInputs(40, 6, 1)
	// deterministic strips what legitimately varies: wall clocks and spill
	// volume.
	deterministic := func(c Counters) Counters {
		c.MapWall, c.ReduceWall = 0, 0
		c.SpillRuns, c.SpillPartitions, c.SpillBytes = 0, 0, 0
		return c
	}
	want := runStream(t, orderSensitiveJob(7, 1), inputs, StreamOptions{})
	if want.Counters.SpillRuns != 0 {
		t.Fatalf("unbounded run spilled %d runs", want.Counters.SpillRuns)
	}
	if want.Counters.ReduceInputKeys < 3*7 {
		t.Fatalf("only %d keys over 7 partitions: not a many-keys-per-partition job", want.Counters.ReduceInputKeys)
	}
	for _, budget := range []int64{0, 1, 256} { // unbounded; below one record; mid: a few runs per partition
		for _, par := range []int{1, 2, 8} {
			var spillCalls atomic.Int64
			got := runStream(t, orderSensitiveJob(7, par), inputs, StreamOptions{
				MemoryBudget: budget,
				SpillDir:     t.TempDir(),
				OnSpill:      func(partition int, runBytes int64) { spillCalls.Add(1) },
			})
			if (got.Counters.SpillRuns > 0) != (budget > 0) {
				t.Fatalf("budget %d, MapParallelism %d: %d spill runs", budget, par, got.Counters.SpillRuns)
			}
			if budget > 0 && (got.Counters.SpillPartitions == 0 || got.Counters.SpillBytes == 0) {
				t.Fatalf("budget %d, MapParallelism %d: spill counters incomplete: %+v", budget, par, got.Counters)
			}
			if spillCalls.Load() != got.Counters.SpillRuns {
				t.Fatalf("budget %d, MapParallelism %d: OnSpill fired %d times for %d runs",
					budget, par, spillCalls.Load(), got.Counters.SpillRuns)
			}
			// Per partition and in order: a slip in group order shows here.
			if !reflect.DeepEqual(got.Output, want.Output) {
				t.Fatalf("budget %d, MapParallelism %d: output differs from the unbounded sequential run", budget, par)
			}
			if !reflect.DeepEqual(deterministic(got.Counters), deterministic(want.Counters)) {
				t.Fatalf("budget %d, MapParallelism %d: counters drifted:\n  want: %+v\n  got:  %+v",
					budget, par, want.Counters, got.Counters)
			}
		}
	}
}

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
		_, err := Run(ctx, job, src, nil, StreamOptions{MemoryBudget: 16, SpillDir: spillDir})
		done <- err
	}()
	// Give the pipeline a moment to ingest (and spill) the finite prefix,
	// then cancel mid-run while the source is blocked.
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return promptly after cancellation")
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
		_, err := Run(ctx, job, NewSliceSource(streamInputs(20, 4, 4)), nil, StreamOptions{})
		done <- err
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Run succeeded despite cancellation")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancellation during reduce")
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
	_, err := Run(context.Background(), wordCountJob(2), src, nil, StreamOptions{})
	if !errors.Is(err, boom) {
		t.Fatalf("Run returned %v, want the source error", err)
	}
}

// TestRunStreamSinkError asserts a failing sink fails the run.
func TestRunStreamSinkError(t *testing.T) {
	boom := errors.New("sink full")
	sink := SinkFunc(func(partition int, rec []byte) error { return boom })
	_, err := Run(context.Background(), wordCountJob(2),
		NewSliceSource(streamInputs(10, 3, 5)), sink, StreamOptions{})
	if !errors.Is(err, boom) {
		t.Fatalf("Run returned %v, want the sink error", err)
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
	res, err := Run(context.Background(), wordCountJob(5),
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
			res, err := Run(context.Background(), job,
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

// newSpillFile creates an empty spill file that is closed when the test ends.
func newSpillFile(t testing.TB) *spillFile {
	t.Helper()
	s, err := createSpillFile(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.close)
	return s
}

func appendRun(t testing.TB, s *spillFile, pairs ...streamPair) spillRun {
	t.Helper()
	run, err := s.appendRun(pairs)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// TestSpillRunRoundTrip exercises the run codec directly, on the second and
// third of three runs in one file: a run is read from its own offset, and
// ends at its own length with more of the file behind it.
func TestSpillRunRoundTrip(t *testing.T) {
	s := newSpillFile(t)
	other := streamPair{Pair: Pair{Key: "zz", Value: []byte("not this run's")}, rec: 9}
	appendRun(t, s, other)
	run := appendRun(t, s,
		streamPair{Pair: Pair{Key: "b", Value: []byte("2")}, rec: 1, emit: 0},
		streamPair{Pair: Pair{Key: "a", Value: []byte("1")}, rec: 0, emit: 1},
		streamPair{Pair: Pair{Key: "a", Value: []byte("0")}, rec: 0, emit: 0},
		streamPair{Pair: Pair{Key: "a", Value: nil}, rec: 2, emit: 0},
	)
	empty := appendRun(t, s)
	appendRun(t, s, other)
	if want := (spillRun{off: s.runs[0].bytes, bytes: 23}); run != want || empty != (spillRun{off: want.off + 23}) {
		t.Fatalf("runs indexed at %+v and %+v, want %+v and an empty one behind it", run, empty, want)
	}
	c := s.open(run)
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
	if _, err := c.next(); err != io.EOF {
		t.Fatalf("expected io.EOF at end of run, got %v", err)
	}
	ec := s.open(empty)
	defer ec.close()
	if _, err := ec.next(); err != io.EOF {
		t.Fatalf("expected io.EOF from an empty run, got %v", err)
	}
}

// TestTruncatedRunIsAnError pins that a run which ends early is never read as
// a shorter run: the file cut on a frame boundary (where the first varint of
// the next frame meets a clean EOF), cut inside a frame, and gone altogether.
func TestTruncatedRunIsAnError(t *testing.T) {
	for _, tc := range []struct {
		keep      int64 // bytes of the 12-byte run left in the file
		wantPairs int
	}{{6, 1}, {9, 1}, {0, 0}} {
		s := newSpillFile(t)
		run := appendRun(t, s,
			streamPair{Pair: Pair{Key: "a", Value: []byte("x")}, rec: 1},
			streamPair{Pair: Pair{Key: "b", Value: []byte("y")}, rec: 2},
		)
		if run.bytes != 12 {
			t.Fatalf("the run is %d bytes, want two 6-byte frames", run.bytes)
		}
		if err := s.f.Truncate(tc.keep); err != nil {
			t.Fatal(err)
		}
		c := s.open(run)
		for i := 0; i < tc.wantPairs; i++ {
			if _, err := c.next(); err != nil {
				t.Fatalf("%d bytes kept: pair %d: %v", tc.keep, i, err)
			}
		}
		_, err := c.next()
		if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.HasPrefix(err.Error(), "mr: reading spill run: ") {
			t.Fatalf("%d bytes kept: after %d pairs got %v, want mr: reading spill run: unexpected EOF", tc.keep, tc.wantPairs, err)
		}
		c.close()
	}
}

// TestMergePairsAcrossRuns merges two runs of one file with an in-memory
// cursor.
func TestMergePairsAcrossRuns(t *testing.T) {
	s := newSpillFile(t)
	run1 := appendRun(t, s,
		streamPair{Pair: Pair{Key: "a", Value: []byte("r1a")}, rec: 0, emit: 0},
		streamPair{Pair: Pair{Key: "c", Value: []byte("r1c")}, rec: 1, emit: 0},
	)
	run2 := appendRun(t, s,
		streamPair{Pair: Pair{Key: "a", Value: []byte("r2a")}, rec: 2, emit: 0},
		streamPair{Pair: Pair{Key: "b", Value: []byte("r2b")}, rec: 3, emit: 0},
	)
	mem := &memCursor{pairs: []streamPair{
		{Pair: Pair{Key: "b", Value: []byte("m-b")}, rec: 0, emit: 1},
		{Pair: Pair{Key: "d", Value: []byte("m-d")}, rec: 4, emit: 0},
	}}
	var got []string
	err := mergePairs([]pairCursor{s.open(run1), s.open(run2), mem}, func(key string, values [][]byte) error {
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
	if n := runBuffersOut.Load(); n != 0 {
		t.Fatalf("%d run buffers not returned to the pool after the merge", n)
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
// fits in, every shuffled record becomes its own run.
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
// promptly and leave no spill directory, descriptor, run buffer or goroutine.
func TestRunStreamCancelMidChunk(t *testing.T) {
	spillDir := t.TempDir()
	leaks := watchLeaks(t, spillDir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &blockingSource{ctx: ctx, limit: 5*chunkRecords + chunkRecords/2}
	spilled := make(chan struct{})
	var once sync.Once
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, wordCountJob(2), src, nil, StreamOptions{
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
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return promptly after cancellation")
	}
	leaks.check()
}

// TestSourceNotPulledAfterRunReturns pins the lifetime of the reader: once
// Run has returned — because a map task failed, the sink failed, or the
// caller cancelled mid-run — the caller owns its Source again (it may close
// the file behind it), so no Next call may start any more, and the goroutines
// of the run are gone.
func TestSourceNotPulledAfterRunReturns(t *testing.T) {
	boom := errors.New("boom")
	failingMapper := MapperFunc(func([]byte, func(Pair)) error { return boom })
	failingSink := SinkFunc(func(int, []byte) error { return boom })
	cases := []struct {
		name     string
		mapper   Mapper
		sink     Sink
		records  int
		cancelAt int // the pull that cancels the caller's context; 0 = never
		want     error
	}{
		{"map error", failingMapper, nil, 100 * chunkRecords, 0, boom},
		{"sink error", wordCountMapper, failingSink, 10 * chunkRecords, 0, boom},
		{"mid-run cancel", wordCountMapper, nil, 100 * chunkRecords, chunkRecords + chunkRecords/2, context.Canceled},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			goroutines := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var returned atomic.Bool
			var late atomic.Int64
			pulls := 0
			src := SourceFunc(func() ([]byte, error) {
				if returned.Load() {
					late.Add(1)
				}
				pulls++
				if pulls == tc.cancelAt {
					cancel()
				}
				if pulls > tc.records {
					return nil, io.EOF
				}
				// A source slower than the pipeline: the run ends while the
				// reader is part-way through a chunk.
				runtime.Gosched()
				return []byte("a b c"), nil
			})
			job := &Job{Name: tc.name, Mapper: tc.mapper, Reducer: countReducer, NumReducers: 3}
			_, err := Run(ctx, job, src, tc.sink, StreamOptions{})
			returned.Store(true)
			if !errors.Is(err, tc.want) {
				t.Fatalf("Run returned %v, want %v", err, tc.want)
			}
			// Goroutines that have signalled Run may still be unwinding.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > goroutines {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines before the run, %d after: the pipeline leaked", goroutines, runtime.NumGoroutine())
				}
				time.Sleep(time.Millisecond)
			}
			if n := late.Load(); n != 0 {
				t.Fatalf("the source was pulled %d times after Run returned", n)
			}
		})
	}
}

// FuzzSpillRun feeds the run reader bytes it did not write. A run is read
// back on every spilled reduce, so whatever is in its section of the file — a
// torn write, a flipped bit — must come out as pairs or as an error: never a
// panic, never an allocation larger than the section. The bytes follow a
// well-formed run in the same section, so the reader must also deliver that
// prefix intact before it meets them; and another well-formed run follows the
// section, which must read back whole and alone: what is wrong with one run
// stays in it.
func FuzzSpillRun(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01})                                                       // key length, no key
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // key length 2^64-1
	f.Add([]byte{0x01, 'k', 0xff, 0xff, 0xff, 0xff, 0x7f})                    // value length 32 GiB
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}) // varint overflow
	f.Add([]byte{0x01, 'k', 0x01, 'v', 0x00})                                 // frame cut before its last field
	f.Add([]byte{0x01, 'k', 0x01, 'v', 0x03, 0x00})                           // one more well-formed frame

	prefix := []streamPair{ // TestSpillRunRoundTrip's pairs, in merge order
		{Pair: Pair{Key: "a", Value: []byte("0")}, rec: 0, emit: 0},
		{Pair: Pair{Key: "a", Value: []byte("1")}, rec: 0, emit: 1},
		{Pair: Pair{Key: "a", Value: []byte{}}, rec: 2, emit: 0},
		{Pair: Pair{Key: "b", Value: []byte("2")}, rec: 1, emit: 0},
	}
	s := newSpillFile(f) // one file for all executions, emptied before each
	f.Fuzz(func(t *testing.T, garbage []byte) {
		if err := s.f.Truncate(0); err != nil {
			t.Fatal(err)
		}
		if _, err := s.f.Seek(0, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		s.runs = nil
		appendRun(t, s, slices.Clone(prefix)...)
		if _, err := s.f.Write(garbage); err != nil {
			t.Fatal(err)
		}
		s.runs[0].bytes += int64(len(garbage))
		fuzzed := s.runs[0]
		intact := appendRun(t, s, slices.Clone(prefix)...)

		c := s.open(fuzzed)
		defer c.close()
		var read int
		for i := 0; ; i++ {
			p, err := c.next()
			if err != nil {
				if i < len(prefix) {
					t.Fatalf("pair %d of the well-formed prefix: %v", i, err)
				}
				if err != io.EOF && !strings.Contains(err.Error(), "reading spill run") {
					t.Fatalf("error %q does not say what was being read", err)
				}
				break
			}
			if i < len(prefix) && !reflect.DeepEqual(p, prefix[i]) {
				t.Fatalf("pair %d = %+v, want %+v", i, p, prefix[i])
			}
			if read += len(p.Key) + len(p.Value); int64(read) > fuzzed.bytes {
				t.Fatalf("read %d payload bytes out of a %d-byte section", read, fuzzed.bytes)
			}
		}

		next := s.open(intact)
		defer next.close()
		for i := 0; i <= len(prefix); i++ {
			p, err := next.next()
			if i == len(prefix) {
				if err != io.EOF {
					t.Fatalf("the run behind the fuzzed section does not end after its %d pairs: %+v, %v", i, p, err)
				}
			} else if err != nil || !reflect.DeepEqual(p, prefix[i]) {
				t.Fatalf("pair %d of the run behind the fuzzed section = %+v, %v, want %+v", i, p, err, prefix[i])
			}
		}
	})
}
