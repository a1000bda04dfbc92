package mr

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// openFDs counts the process's open descriptors, or returns -1 where there is
// no /proc/self/fd to count them in. The listing itself holds one while it
// runs, the same one in every count.
func openFDs(t *testing.T) int {
	t.Helper()
	if runtime.GOOS != "linux" {
		return -1
	}
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(entries)
}

// runLeaks is a snapshot of what a Run must have given back by the time it
// returns, whatever the outcome: descriptors, goroutines, pooled run buffers
// and its private directory under spillDir.
type runLeaks struct {
	t               *testing.T
	spillDir        string
	fds, goroutines int
}

func watchLeaks(t *testing.T, spillDir string) runLeaks {
	t.Helper()
	// One spilled run first, so that what the runtime opens once and keeps
	// (its poller) is in the snapshot.
	runStream(t, wordCountJob(2), streamInputs(4, 3, 1), StreamOptions{MemoryBudget: 1, SpillDir: spillDir})
	if n := runBuffersOut.Load(); n != 0 {
		t.Fatalf("%d run buffers already out before the run under test", n)
	}
	return runLeaks{t: t, spillDir: spillDir, fds: openFDs(t), goroutines: runtime.NumGoroutine()}
}

func (l runLeaks) check() {
	l.t.Helper()
	if leftovers, _ := filepath.Glob(filepath.Join(l.spillDir, "mr-spill-*")); len(leftovers) != 0 {
		l.t.Errorf("spill directories left behind: %v", leftovers)
	}
	if fds := openFDs(l.t); fds != l.fds {
		l.t.Errorf("%d descriptors open before the run, %d after", l.fds, fds)
	}
	// Zero means every buffer taken was put back exactly once: a buffer put
	// twice would leave it negative, one never put, positive.
	if n := runBuffersOut.Load(); n != 0 {
		l.t.Errorf("run buffers taken minus returned = %d after the run, want 0", n)
	}
	// Goroutines that have signalled Run may still be unwinding.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > l.goroutines {
		if time.Now().After(deadline) {
			l.t.Errorf("%d goroutines before the run, %d after: the pipeline leaked", l.goroutines, runtime.NumGoroutine())
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// spillFiles lists the partition files of the runs in flight under spillDir.
func spillFiles(spillDir string) []string {
	files, _ := filepath.Glob(filepath.Join(spillDir, "mr-spill-*", "*"))
	return files
}

// TestFailurePathsReleaseEverything fails a fully spilling run at each point
// where it holds spill files and pooled buffers — creating the directory,
// creating a partition's file, mid-spill, mid-merge — and asserts that the
// error comes back and nothing is left: no directory, no descriptor, no
// buffer out of the pool, no goroutine. (A run cancelled mid-spill is
// TestRunStreamCancelMidChunk.)
func TestFailurePathsReleaseEverything(t *testing.T) {
	boom := errors.New("boom")
	inputs := streamInputs(200, 6, 21)
	// budgeted runs the word count over 8 partitions, every pair spilled.
	budgeted := func(ctx context.Context, spillDir string, reduceParallelism int, onSpill func(int, int64), reducer ReducerFunc) error {
		job := wordCountJob(8)
		job.Reducer, job.ReduceParallelism = reducer, reduceParallelism
		_, err := Run(ctx, job, NewSliceSource(inputs), nil, StreamOptions{MemoryBudget: 1, SpillDir: spillDir, OnSpill: onSpill})
		return err
	}

	t.Run("reducer fails mid-merge", func(t *testing.T) {
		dir := t.TempDir()
		leaks := watchLeaks(t, dir)
		var mu sync.Mutex
		groups := 0
		err := budgeted(context.Background(), dir, 0, nil, func(string, [][]byte, func([]byte)) error {
			mu.Lock()
			defer mu.Unlock()
			if groups++; groups == 3 {
				return boom // with this partition's cursors open, and other partitions' too
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("Run returned %v, want the reducer's error", err)
		}
		leaks.check()
	})

	t.Run("cancelled mid-merge", func(t *testing.T) {
		dir := t.TempDir()
		leaks := watchLeaks(t, dir)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		err := budgeted(ctx, dir, 0, nil, func(string, [][]byte, func([]byte)) error {
			cancel()
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
		leaks.check()
	})

	t.Run("spill dir is a regular file", func(t *testing.T) {
		dir := t.TempDir()
		leaks := watchLeaks(t, dir)
		notADir := filepath.Join(dir, "file")
		if err := os.WriteFile(notADir, nil, 0o600); err != nil {
			t.Fatal(err)
		}
		err := budgeted(context.Background(), notADir, 0, nil, countReducer)
		var pathErr *fs.PathError
		if err == nil || !strings.HasPrefix(err.Error(), "mr: creating spill directory: ") || !errors.As(err, &pathErr) {
			t.Fatalf("Run returned %v, want mr: creating spill directory wrapping the OS error", err)
		}
		leaks.check()
	})

	t.Run("spill dir removed mid-spill", func(t *testing.T) {
		dir := t.TempDir()
		leaks := watchLeaks(t, dir)
		// A record at a time (BufferSize 1), and the second record is held
		// back until the first has been spilled and the directory removed:
		// its partition cannot create its file.
		removed := make(chan struct{})
		recs := scatterInputs(2, func(int) int { return 8 })
		next := 0
		src := SourceFunc(func() ([]byte, error) {
			if next == len(recs) {
				return nil, io.EOF
			}
			if next == 1 {
				<-removed
			}
			next++
			return recs[next-1], nil
		})
		var once sync.Once
		_, err := Run(context.Background(), scatterJob(4, 1, 1), src, nil, StreamOptions{
			MemoryBudget: 1, SpillDir: dir, BufferSize: 1,
			OnSpill: func(int, int64) {
				once.Do(func() {
					for _, f := range spillFiles(dir) {
						os.RemoveAll(filepath.Dir(f))
					}
					close(removed)
				})
			},
		})
		if err == nil || !strings.HasPrefix(err.Error(), "mr: creating spill file: ") || !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("Run returned %v, want mr: creating spill file wrapping fs.ErrNotExist", err)
		}
		leaks.check()
	})

	t.Run("partition files cut underneath the merge", func(t *testing.T) {
		dir := t.TempDir()
		leaks := watchLeaks(t, dir)
		var once sync.Once
		// One reduce at a time: when the first group of the first partition
		// is reduced, no other partition has read anything back yet.
		err := budgeted(context.Background(), dir, 1, nil, func(string, [][]byte, func([]byte)) error {
			once.Do(func() {
				for _, f := range spillFiles(dir) {
					if err := os.Truncate(f, 0); err != nil {
						t.Error(err)
					}
				}
			})
			return nil
		})
		if err == nil || err.Error() != "mr: reading spill run: unexpected EOF" {
			t.Fatalf("Run returned %v, want mr: reading spill run: unexpected EOF", err)
		}
		leaks.check()
	})
}

// TestMergeOverClosedFileReturnsItsBuffers closes the partition's file
// underneath a merge, after the first group: the read that needs the file
// again fails the merge, and the cursor that met the error and the four still
// holding a buffered head must all give their buffers back, once each.
func TestMergeOverClosedFileReturnsItsBuffers(t *testing.T) {
	if n := runBuffersOut.Load(); n != 0 {
		t.Fatalf("%d run buffers already out", n)
	}
	s := newSpillFile(t)
	big := bytes.Repeat([]byte("v"), 100<<10) // more than a run buffer holds: the run is read in pieces
	var cursors []pairCursor
	for i := 0; i < 5; i++ {
		run := appendRun(t, s,
			streamPair{Pair: Pair{Key: "a", Value: []byte("small")}, rec: int64(i)},
			streamPair{Pair: Pair{Key: "b", Value: big}, rec: int64(i)},
			streamPair{Pair: Pair{Key: "c", Value: big}, rec: int64(i)}, // partly buffered when the file goes
		)
		cursors = append(cursors, s.open(run))
	}
	if n := runBuffersOut.Load(); n != 5 {
		t.Fatalf("%d run buffers out with 5 cursors open", n)
	}
	var keys []string
	err := mergePairs(cursors, func(key string, values [][]byte) error {
		keys = append(keys, key)
		s.close()
		return nil
	})
	if !errors.Is(err, os.ErrClosed) || !strings.HasPrefix(err.Error(), "mr: reading spill run: ") {
		t.Fatalf("merge over a closed file returned %v, want mr: reading spill run wrapping os.ErrClosed", err)
	}
	if !reflect.DeepEqual(keys, []string{"a"}) {
		t.Fatalf("groups %v were reduced, want only the one read before the file was closed", keys)
	}
	if n := runBuffersOut.Load(); n != 0 {
		t.Fatalf("run buffers taken minus returned = %d after the failed merge, want 0", n)
	}
}

// scatterJob is a schema-style job over many partitions: record i is sent to
// `copies` partitions spread over the range, keyed by partition, and each
// reducer emits its values joined in order.
func scatterJob(partitions, copies, mapParallelism int) *Job {
	return &Job{
		Name: "scatter",
		Mapper: MapperFunc(func(rec []byte, emit func(Pair)) error {
			var i int
			if _, err := fmt.Sscanf(string(rec), "%d ", &i); err != nil {
				return err
			}
			for c := 0; c < copies; c++ {
				emit(Pair{Key: ReducerKey((i*7 + c*(partitions/copies)) % partitions), Value: rec})
			}
			return nil
		}),
		Reducer: ReducerFunc(func(key string, values [][]byte, emit func([]byte)) error {
			emit(append([]byte(key+":"), bytes.Join(values, []byte{'|'})...))
			return nil
		}),
		NumReducers:    partitions,
		Partitioner:    SchemaPartitioner,
		MapParallelism: mapParallelism,
	}
}

// scatterInputs builds n records "i <payload>" of payloadLen(i) bytes of
// payload.
func scatterInputs(n int, payloadLen func(i int) int) [][]byte {
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = []byte(fmt.Sprintf("%d %s", i, strings.Repeat(string(rune('a'+i%26)), payloadLen(i))))
	}
	return recs
}

// TestSpillFDsAndFilesBoundedByPartitions pins the layout's resource bound on
// a fully spilled 256-partition run (2048 runs, 8 per partition, every
// partition merging at once): at no point — sampled after every spill and at
// every reduce call — are there more files in the spill directory than
// partitions, or more descriptors open than before the run plus one per
// partition plus fdSlack.
func TestSpillFDsAndFilesBoundedByPartitions(t *testing.T) {
	const (
		partitions = 256
		// fdSlack is the stated constant: nothing in a run but its
		// partition files should hold a descriptor, so it is small.
		fdSlack = 2
	)
	dir := t.TempDir()
	leaks := watchLeaks(t, dir)
	var mu sync.Mutex // one sampler at a time, so that samplers do not count each other
	var peakFDs, peakFiles, samples int
	sample := func() {
		mu.Lock()
		defer mu.Unlock()
		samples++
		peakFDs = max(peakFDs, openFDs(t))
		peakFiles = max(peakFiles, len(spillFiles(dir)))
	}
	job := scatterJob(partitions, 4, 2)
	reduce := job.Reducer
	job.Reducer = ReducerFunc(func(key string, values [][]byte, emit func([]byte)) error {
		sample()
		return reduce.Reduce(key, values, emit)
	})
	res, err := Run(context.Background(), job, NewSliceSource(scatterInputs(512, func(int) int { return 20 })), nil,
		StreamOptions{MemoryBudget: 1, SpillDir: dir, OnSpill: func(int, int64) { sample() }})
	if err != nil {
		t.Fatal(err)
	}
	if c := res.Counters; c.SpillPartitions != partitions || c.SpillRuns != 2048 || samples != 2048+partitions {
		t.Fatalf("%d runs over %d partitions sampled %d times, want 2048 over %d sampled %d times",
			c.SpillRuns, c.SpillPartitions, samples, partitions, 2048+partitions)
	}
	if peakFiles > partitions {
		t.Errorf("%d files in the spill directory at once, want at most one per partition (%d)", peakFiles, partitions)
	}
	if leaks.fds >= 0 && peakFDs > leaks.fds+partitions+fdSlack {
		t.Errorf("%d descriptors open at once against %d before the run, want at most %d more (one per partition + %d)",
			peakFDs, leaks.fds, partitions+fdSlack, fdSlack)
	}
	leaks.check()
}

// TestSpillMatchesRecordedParent runs one job (48 partitions, 96 records of
// 300–700 B sent to 3 partitions each, a 144 KB shuffle) under budgets from
// below one record to above the whole shuffle, and holds the output bytes and — wherever the
// spill decision does not depend on goroutine scheduling — the spill counters
// to the values the one-file-per-run engine produced for the same job: the
// layout of the spill files is not visible in the results. At 4 KiB the
// budget holds a few records, which partition is inserting when it is crossed
// depends on scheduling, and so does the spill volume (see
// StreamOptions.MemoryBudget); there the counters are checked against the
// OnSpill calls instead.
func TestSpillMatchesRecordedParent(t *testing.T) {
	const (
		wantOutput  = "c7c51ea4a05bbf133b805fbeef848121cada19e4b1fa9b24a73a46bb353e5b1d" // sha256 over the partitions' records, recorded at the parent
		wantRecords = 288
	)
	type spillCounters struct{ runs, partitions, bytes int64 }
	everyRecord := &spillCounters{288, 48, 149043} // recorded at the parent
	for _, tc := range []struct {
		budget int64
		want   *spillCounters // nil where the volume is scheduling-dependent
	}{
		{1, everyRecord},
		{256, everyRecord}, // still below the smallest record
		{4 << 10, nil},
		{256 << 10, &spillCounters{}}, // never crossed
	} {
		for _, par := range []int{1, 2, 8} {
			var mu sync.Mutex
			var seen spillCounters
			spilledParts := map[int]bool{}
			res := runStream(t, scatterJob(48, 3, par), scatterInputs(96, func(i int) int { return 300 + (i*397)%401 }), StreamOptions{
				MemoryBudget: tc.budget,
				SpillDir:     t.TempDir(),
				OnSpill: func(partition int, runBytes int64) {
					mu.Lock()
					defer mu.Unlock()
					seen.runs++
					seen.bytes += runBytes
					spilledParts[partition] = true
				},
			})
			seen.partitions = int64(len(spilledParts))
			h := sha256.New()
			for p, recs := range res.Output {
				for _, rec := range recs {
					fmt.Fprintf(h, "%d:%d:", p, len(rec))
					h.Write(rec)
				}
			}
			c := res.Counters
			got := spillCounters{c.SpillRuns, c.SpillPartitions, c.SpillBytes}
			if sum := fmt.Sprintf("%x", h.Sum(nil)); sum != wantOutput || c.ShuffleRecords != wantRecords {
				t.Errorf("budget %d, MapParallelism %d: output %s over %d shuffled records, want %s over %d",
					tc.budget, par, sum, c.ShuffleRecords, wantOutput, wantRecords)
			}
			if got != seen {
				t.Errorf("budget %d, MapParallelism %d: counters %+v, OnSpill saw %+v", tc.budget, par, got, seen)
			}
			if tc.want != nil && got != *tc.want {
				t.Errorf("budget %d, MapParallelism %d: spill counters %+v, want %+v", tc.budget, par, got, *tc.want)
			}
		}
	}
}
