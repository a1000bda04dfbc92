package exec

import (
	"bufio"
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

	"repro/internal/obs"
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

// runStream runs job over inputs under req's memory budget, spill directory
// and context.
func runStream(t *testing.T, job *engineJob, inputs [][]byte, req Request) *Result {
	t.Helper()
	res, err := runJob(&req, job, NewSliceSource(inputs))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSpilledRunMatchesInMemoryRun is the read-back property test: a
// reducer's spilled runs, then its buffer, are its copies in index order, so
// for a job whose output records every copy in the order received, the output
// bytes and the counters must not depend on the memory budget.
func TestSpilledRunMatchesInMemoryRun(t *testing.T) {
	inputs := streamInputs(40, 6, 1)
	// deterministic strips what legitimately varies: wall clocks and spill
	// volume.
	deterministic := func(c Counters) Counters {
		c.MapWall, c.ReduceWall = 0, 0
		c.SpillRuns, c.SpillPartitions, c.SpillBytes = 0, 0, 0
		return c
	}
	want := runStream(t, scatterJob(8, 3), inputs, Request{})
	if want.Counters.SpillRuns != 0 {
		t.Fatalf("unbounded run spilled %d runs", want.Counters.SpillRuns)
	}
	for _, budget := range []int64{0, 1, 256} { // unbounded; below one record; mid: a few runs per reducer
		ctx, sp := obs.StartSpan(context.Background(), "run")
		got := runStream(t, scatterJob(8, 3), inputs, Request{Ctx: ctx, MemoryBudget: budget, SpillDir: t.TempDir()})
		var spillCalls int64
		for _, st := range sp.Stages() {
			if st.Name == "spill" {
				spillCalls++
			}
		}
		if (got.Counters.SpillRuns > 0) != (budget > 0) {
			t.Fatalf("budget %d: %d spill runs", budget, got.Counters.SpillRuns)
		}
		if budget > 0 && (got.Counters.SpillPartitions != 8 || got.Counters.SpillBytes == 0) {
			t.Fatalf("budget %d: spill counters incomplete: %+v", budget, got.Counters)
		}
		if budget == 256 && got.Counters.SpillRuns >= got.Counters.ShuffleRecords {
			t.Fatalf("budget %d: %d runs for %d copies, want runs of several copies", budget, got.Counters.SpillRuns, got.Counters.ShuffleRecords)
		}
		if spillCalls != got.Counters.SpillRuns {
			t.Fatalf("budget %d: the span holds %d spill events for %d runs", budget, spillCalls, got.Counters.SpillRuns)
		}
		// Per reducer and in order: a slip in the read-back order shows here.
		if !reflect.DeepEqual(got.Output, want.Output) {
			t.Fatalf("budget %d: output differs from the unbounded run", budget)
		}
		if !reflect.DeepEqual(deterministic(got.Counters), deterministic(want.Counters)) {
			t.Fatalf("budget %d: counters drifted:\n  want: %+v\n  got:  %+v", budget, want.Counters, got.Counters)
		}
	}
}

func flatStrings(res *Result) []string {
	var out []string
	for _, rec := range res.Output {
		out = append(out, string(rec))
	}
	return out
}

// TestRunStreamDeterministicUnderParallelism asserts that output is
// byte-identical across runs although reducers reduce concurrently, and
// that a spilling run agrees with the in-memory ones.
func TestRunStreamDeterministicUnderParallelism(t *testing.T) {
	inputs := streamInputs(120, 5, 3)
	base := flatStrings(runStream(t, scatterJob(6, 2), inputs, Request{}))
	for i := 0; i < 5; i++ {
		again := flatStrings(runStream(t, scatterJob(6, 2), inputs, Request{}))
		if !reflect.DeepEqual(base, again) {
			t.Fatalf("run %d produced different output", i)
		}
	}
	spilled := runStream(t, scatterJob(6, 2), inputs, Request{MemoryBudget: 32, SpillDir: t.TempDir()})
	if !reflect.DeepEqual(base, flatStrings(spilled)) {
		t.Fatal("spilled run produced different output")
	}
}

// TestReduceRunsOnOneWorkerPerProcessor pins the reduce phase's bound: on a
// spilled 64-reducer run, no more than GOMAXPROCS reduce calls are in flight
// at any moment, and every reducer that received a copy is reduced once.
func TestReduceRunsOnOneWorkerPerProcessor(t *testing.T) {
	const reducers = 64
	var active, peak atomic.Int64
	var calls [reducers]atomic.Int32
	job := scatterJob(reducers, 4)
	reduce := job.reduce
	job.reduce = func(r int, recs []Record, emit func([]byte)) error {
		n := active.Add(1)
		defer active.Add(-1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		calls[r].Add(1)
		time.Sleep(100 * time.Microsecond) // long enough for the other workers to overlap
		return reduce(r, recs, emit)
	}
	res, err := runJob(&Request{MemoryBudget: 1, SpillDir: t.TempDir()}, job, NewSliceSource(scatterInputs(256, func(int) int { return 8 })))
	if err != nil {
		t.Fatal(err)
	}
	if got, limit := peak.Load(), int64(runtime.GOMAXPROCS(0)); got > limit {
		t.Errorf("%d reduce calls in flight at once, want at most GOMAXPROCS = %d", got, limit)
	}
	for r := range calls {
		if want := min(res.Counters.ReducerLoads[r], 1); int64(calls[r].Load()) != want {
			t.Errorf("reducer %d (load %d) reduced %d times, want %d", r, res.Counters.ReducerLoads[r], calls[r].Load(), want)
		}
	}
}

// blockingSource yields a few records then blocks until its context dies,
// modelling a long streaming run. blocked, when set, is closed when it
// blocks: every record before has been routed by then.
type blockingSource struct {
	ctx     context.Context
	n       int
	limit   int
	blocked chan struct{}
}

func (s *blockingSource) Next() ([]byte, error) {
	if s.n < s.limit {
		s.n++
		return []byte(fmt.Sprintf("rec %d", s.n)), nil
	}
	if s.blocked != nil {
		close(s.blocked)
		s.blocked = nil
	}
	<-s.ctx.Done()
	return nil, io.EOF
}

// TestRunStreamCancellation: a cancelled context stops a long run promptly
// and cleans up its spill file.
func TestRunStreamCancellation(t *testing.T) {
	spillDir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	src := &blockingSource{ctx: ctx, limit: 500}
	done := make(chan error, 1)
	go func() {
		_, err := runJob(&Request{Ctx: ctx, MemoryBudget: 16, SpillDir: spillDir}, scatterJob(4, 2), src)
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
	job := scatterJob(3, 1)
	job.reduce = func(int, []Record, func([]byte)) error {
		once.Do(func() { close(started) })
		<-ctx.Done()
		return ctx.Err()
	}
	done := make(chan error, 1)
	go func() {
		_, err := runJob(&Request{Ctx: ctx}, job, NewSliceSource(streamInputs(20, 4, 4)))
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
	_, err := runJob(&Request{}, scatterJob(2, 2), src)
	if !errors.Is(err, boom) {
		t.Fatalf("Run returned %v, want the source error", err)
	}
}

// TestRunStreamSinkError asserts a failing sink fails the run.
func TestRunStreamSinkError(t *testing.T) {
	boom := errors.New("sink full")
	sink := func([]byte) error { return boom }
	_, err := runJob(&Request{Sink: sink}, scatterJob(2, 2), NewSliceSource(streamInputs(10, 3, 5)))
	if !errors.Is(err, boom) {
		t.Fatalf("Run returned %v, want the sink error", err)
	}
}

// TestRunStreamSinkMatchesCollected asserts sink delivery covers exactly the
// collected output, with per-reducer order preserved.
func TestRunStreamSinkMatchesCollected(t *testing.T) {
	inputs := streamInputs(80, 4, 6)
	// Every record is tagged with its reducer, so the sink's can be told apart.
	job := wordCountJob(5)
	reduce := job.reduce
	job.reduce = func(r int, recs []Record, emit func([]byte)) error {
		return reduce(r, recs, func(rec []byte) { emit(fmt.Appendf(nil, "%d:%s", r, rec)) })
	}
	perPart := func(recs []string) map[string][]string {
		parts := map[string][]string{}
		for _, rec := range recs {
			r, _, _ := strings.Cut(rec, ":")
			parts[r] = append(parts[r], rec)
		}
		return parts
	}
	collected := runStream(t, job, inputs, Request{})

	var sunk []string
	sink := func(rec []byte) error {
		sunk = append(sunk, string(rec))
		return nil
	}
	res, err := runJob(&Request{Sink: sink}, job, NewSliceSource(inputs))
	if err != nil {
		t.Fatal(err)
	}
	// With a sink the result carries counters but no materialized output.
	if res.Output != nil {
		t.Fatalf("sink run materialized %d records", len(res.Output))
	}
	if got, want := perPart(sunk), perPart(flatStrings(collected)); len(want) != 5 || !reflect.DeepEqual(got, want) {
		t.Fatalf("per reducer, the sink saw %v, collect saw %v", got, want)
	}
}

// TestRunStreamNoSpillDirWithoutSpill asserts the temp directory is only
// created when something actually spills.
func TestRunStreamNoSpillDirWithoutSpill(t *testing.T) {
	dir := t.TempDir()
	runStream(t, scatterJob(3, 2), streamInputs(10, 3, 8), Request{SpillDir: dir})
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("unbounded run created %d entries in the spill dir", len(entries))
	}
}

// TestRunStreamConcurrentHammer runs many concurrent spilling runs under one
// spill directory, each with its own file and the reduce workers of each
// reading runs back from that file concurrently — under -race this shakes out
// data races between runs and between the reducers of one.
func TestRunStreamConcurrentHammer(t *testing.T) {
	inputs := streamInputs(100, 6, 9)
	want := flatStrings(runStream(t, scatterJob(6, 3), inputs, Request{}))
	dir := t.TempDir()
	const runs = 16
	var wg sync.WaitGroup
	errs := make([]error, runs)
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := runJob(&Request{MemoryBudget: 128 * int64(i%3), SpillDir: dir}, scatterJob(6, 3), NewSliceSource(inputs))
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

// newSpillFile creates an empty spill file that is removed when the test
// ends.
func newSpillFile(t testing.TB) *spillFile {
	t.Helper()
	s, err := createSpillFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.remove)
	return s
}

func appendRun(t testing.TB, s *spillFile, recs ...Record) spillRun {
	t.Helper()
	run, err := s.appendRun(recs)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func finish(t testing.TB, s *spillFile) {
	t.Helper()
	if err := s.finish(); err != nil {
		t.Fatal(err)
	}
}

func rec(index int, data string) Record { return Record{ID: index, Data: []byte(data)} }

// TestSpillRunRoundTrip exercises the run codec directly, on the second and
// third of four runs in one file: a run is read from its own offset, and
// ends at its own length with more of the file behind it.
func TestSpillRunRoundTrip(t *testing.T) {
	s := newSpillFile(t)
	other := rec(9, "not this run's")
	appendRun(t, s, other)
	want := []Record{rec(0, "0"), rec(1, "1"), rec(2, ""), rec(300, "2")}
	run := appendRun(t, s, want...)
	empty := appendRun(t, s)
	appendRun(t, s, other)
	finish(t, s)
	// Frames of (index, length, data): 3 + 3 + 2 + 4 bytes.
	if wantRun := (spillRun{off: 16, bytes: 12}); run != wantRun || empty != (spillRun{off: 28}) {
		t.Fatalf("runs indexed at %+v and %+v, want %+v and an empty one behind it", run, empty, wantRun)
	}
	got, err := s.readRuns(nil, []spillRun{run}, 301)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("read back %+v, %v, want %+v", got, err, want)
	}
	if got, err := s.readRuns(nil, []spillRun{empty}, 301); err != nil || len(got) != 0 {
		t.Fatalf("read back %+v, %v from an empty run", got, err)
	}
}

// TestTruncatedRunIsAnError pins that a run which ends early is never read as
// a shorter run: the file cut on a frame boundary, cut inside a frame, and
// gone altogether.
func TestTruncatedRunIsAnError(t *testing.T) {
	for _, keep := range []int64{3, 4, 0} { // bytes of the 6-byte run left in the file
		s := newSpillFile(t)
		run := appendRun(t, s, rec(1, "x"), rec(2, "y"))
		finish(t, s)
		if run.bytes != 6 {
			t.Fatalf("the run is %d bytes, want two 3-byte frames", run.bytes)
		}
		if err := s.f.Truncate(keep); err != nil {
			t.Fatal(err)
		}
		got, err := s.readRuns(nil, []spillRun{run}, 3)
		if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.HasPrefix(err.Error(), "reading spill run: ") || len(got) != 0 {
			t.Fatalf("%d bytes kept: read %d copies and %v, want none and reading spill run: unexpected EOF", keep, len(got), err)
		}
	}
}

// TestReadBackRecordsAcrossRuns reads one reducer's runs back, interleaved in
// the file with another reducer's: they come back in the order they were
// spilled, and so in index order.
func TestReadBackRecordsAcrossRuns(t *testing.T) {
	s := newSpillFile(t)
	run1 := appendRun(t, s, rec(0, "a"), rec(3, "b"))
	appendRun(t, s, rec(4, "not mine"))
	run2 := appendRun(t, s, rec(5, "c"))
	finish(t, s)
	got, err := s.readRuns([]Record{rec(-1, "already read")}, []spillRun{run1, run2}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if want := []Record{rec(-1, "already read"), rec(0, "a"), rec(3, "b"), rec(5, "c")}; !reflect.DeepEqual(got, want) {
		t.Fatalf("read back %+v, want %+v", got, want)
	}
}

// TestBudgetBelowOneRecordSpillsEveryRecord asserts the memory budget is
// checked per copy: with a budget no record fits in, every copy becomes its
// own run.
func TestBudgetBelowOneRecordSpillsEveryRecord(t *testing.T) {
	inputs := streamInputs(300, 6, 12)
	want := flatStrings(runStream(t, scatterJob(4, 2), inputs, Request{}))
	got := runStream(t, scatterJob(4, 2), inputs, Request{MemoryBudget: 1, SpillDir: t.TempDir()})
	if got.Counters.SpillRuns != got.Counters.ShuffleRecords {
		t.Fatalf("%d spill runs for %d copies, want one each", got.Counters.SpillRuns, got.Counters.ShuffleRecords)
	}
	if !reflect.DeepEqual(flatStrings(got), want) {
		t.Fatal("fully spilled output differs from the in-memory run")
	}
}

// TestRunStreamCancelMidChunk cancels part-way through the input, with the
// source stalled and reducers spilling: the run must return promptly and
// leave no spill directory, descriptor, write buffer or goroutine.
func TestRunStreamCancelMidChunk(t *testing.T) {
	spillDir := t.TempDir()
	leaks := watchLeaks(t, spillDir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spilled := make(chan struct{}) // with every copy spilled, all 100 records are in the file
	src := &blockingSource{ctx: ctx, limit: 100, blocked: spilled}
	done := make(chan error, 1)
	go func() {
		_, err := runJob(&Request{Ctx: ctx, MemoryBudget: 1, SpillDir: spillDir}, scatterJob(2, 2), src)
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
// Run has returned — because a record was routed nowhere valid, the sink
// failed, or the caller cancelled mid-run — the caller owns its Source again
// (it may close the file behind it), so no Next call may start any more, and
// the goroutines of the run are gone.
func TestSourceNotPulledAfterRunReturns(t *testing.T) {
	boom := errors.New("boom")
	failingSink := func([]byte) error { return boom }
	cases := []struct {
		name     string
		route    func(i int) []int
		sink     func([]byte) error
		records  int
		cancelAt int // the pull that cancels the caller's context; 0 = never
		want     string
	}{
		{"map error", func(i int) []int { return []int{i % 3, 3 * (i / 50)} }, nil, 1000, 0, "record 50 routed to reducer 3 of 3"},
		{"sink error", func(i int) []int { return []int{i % 3} }, failingSink, 100, 0, boom.Error()},
		{"mid-run cancel", func(i int) []int { return []int{i % 3} }, nil, 1000, 100, context.Canceled.Error()},
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
				runtime.Gosched()
				return []byte("a b c"), nil
			})
			job := joinJob(3, tc.route)
			_, err := runJob(&Request{Ctx: ctx, Sink: tc.sink}, job, src)
			returned.Store(true)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Run returned %v, want %s", err, tc.want)
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
// back by every spilled reducer, so whatever is in its section of the file —
// a torn write, a flipped bit — must come out as copies or as an error: never
// a panic, never more data than the section holds. The bytes follow a
// well-formed run in the same section, so the reader must also deliver that
// prefix intact before it meets them; and another well-formed run follows the
// section, which must read back whole and alone: what is wrong with one run
// stays in it. Every index read back is one of the records the run pulled.
func FuzzSpillRun(f *testing.F) {
	const pulled = 1000
	f.Add([]byte{})
	f.Add([]byte{0x01})                                                             // an index, no length
	f.Add([]byte{0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // length 2^64-1
	f.Add([]byte{0x00, 0xff, 0xff, 0xff, 0xff, 0x7f})                               // length 32 GiB
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80})       // varint overflow
	f.Add([]byte{0x05, 0x02, 'v'})                                                  // a frame cut inside its data
	f.Add([]byte{0x05, 0x01, 'v'})                                                  // one more well-formed frame
	f.Add([]byte{0xe8, 0x07, 0x00})                                                 // index 1000, past the records pulled

	prefix := []Record{rec(0, "0"), rec(1, "1"), rec(2, ""), rec(300, "2")} // TestSpillRunRoundTrip's run
	s := newSpillFile(f)                                                    // one file for all executions, emptied before each
	finish(f, s)
	f.Fuzz(func(t *testing.T, garbage []byte) {
		if err := s.f.Truncate(0); err != nil {
			t.Fatal(err)
		}
		s.end, s.w = 0, bufio.NewWriterSize(io.NewOffsetWriter(s.f, 0), runBufferBytes)
		fuzzed := appendRun(t, s, prefix...)
		if _, err := s.w.Write(garbage); err != nil {
			t.Fatal(err)
		}
		fuzzed.bytes += int64(len(garbage))
		s.end += int64(len(garbage))
		intact := appendRun(t, s, prefix...)
		finish(t, s)

		got, err := s.readRuns(nil, []spillRun{fuzzed}, pulled)
		if len(got) < len(prefix) || !reflect.DeepEqual(got[:len(prefix)], prefix) {
			t.Fatalf("read %+v (%v), want the well-formed prefix %+v first", got, err, prefix)
		}
		if err != nil && !strings.HasPrefix(err.Error(), "reading spill run: ") {
			t.Fatalf("error %q does not say what was being read", err)
		}
		var read int
		for _, r := range got {
			read += len(r.Data)
			if r.ID < 0 || r.ID >= pulled {
				t.Fatalf("read back record index %d of a run that pulled %d", r.ID, pulled)
			}
		}
		if int64(read) > fuzzed.bytes {
			t.Fatalf("read %d data bytes out of a %d-byte section", read, fuzzed.bytes)
		}

		if got, err := s.readRuns(nil, []spillRun{intact}, pulled); err != nil || !reflect.DeepEqual(got, prefix) {
			t.Fatalf("the run behind the fuzzed section read back as %+v, %v, want %+v", got, err, prefix)
		}
	})
}
