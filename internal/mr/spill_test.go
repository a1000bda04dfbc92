package mr

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
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
// returns, whatever the outcome: descriptors, goroutines, the pooled write
// buffer and its private directory under spillDir.
type runLeaks struct {
	t               *testing.T
	spillDir        string
	fds, goroutines int
}

func watchLeaks(t *testing.T, spillDir string) runLeaks {
	t.Helper()
	// One spilled run first, so that what the runtime opens once and keeps
	// (its poller) is in the snapshot.
	runStream(t, scatterJob(2, 2), streamInputs(4, 3, 1), StreamOptions{MemoryBudget: 1, SpillDir: spillDir})
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

// spillFiles lists the spill files of the runs in flight under spillDir.
func spillFiles(spillDir string) []string {
	files, _ := filepath.Glob(filepath.Join(spillDir, "mr-spill-*", "*"))
	return files
}

// TestFailurePathsReleaseEverything fails a fully spilling run at each point
// where it holds its spill file and the pooled write buffer — creating the
// directory, writing into the file, reading it back in the merge that gives
// each reducer its copies — and asserts that the error comes back and nothing
// is left: no directory, no descriptor, no buffer out of the pool, no
// goroutine. (A run cancelled mid-spill is TestRunStreamCancelMidChunk.)
func TestFailurePathsReleaseEverything(t *testing.T) {
	boom := errors.New("boom")
	inputs := streamInputs(200, 6, 21)
	// budgeted runs a job over 8 reducers, every copy spilled.
	budgeted := func(ctx context.Context, spillDir string, opts StreamOptions, reduce func(int, []Record, func([]byte)) error) error {
		job := scatterJob(8, 2)
		if reduce != nil {
			job.Reduce = reduce
		}
		opts.MemoryBudget, opts.SpillDir = 1, spillDir
		_, err := Run(ctx, job, NewSliceSource(inputs), nil, opts)
		return err
	}

	t.Run("reducer fails mid-merge", func(t *testing.T) {
		dir := t.TempDir()
		leaks := watchLeaks(t, dir)
		var mu sync.Mutex
		calls := 0
		err := budgeted(context.Background(), dir, StreamOptions{}, func(int, []Record, func([]byte)) error {
			mu.Lock()
			defer mu.Unlock()
			if calls++; calls == 3 {
				return boom // while other reducers are reading the file
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
		err := budgeted(ctx, dir, StreamOptions{}, func(int, []Record, func([]byte)) error {
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
		err := budgeted(context.Background(), notADir, StreamOptions{}, nil)
		var pathErr *fs.PathError
		if err == nil || !strings.HasPrefix(err.Error(), "mr: creating spill directory: ") || !errors.As(err, &pathErr) {
			t.Fatalf("Run returned %v, want mr: creating spill directory wrapping the OS error", err)
		}
		leaks.check()
	})

	// The file is open from the first spill on, so removing its directory
	// underneath the run takes nothing from it: the run completes, and
	// still leaves nothing behind.
	t.Run("spill dir removed mid-spill", func(t *testing.T) {
		dir := t.TempDir()
		leaks := watchLeaks(t, dir)
		var once sync.Once
		err := budgeted(context.Background(), dir, StreamOptions{OnSpill: func(int, int64) {
			once.Do(func() {
				for _, f := range spillFiles(dir) {
					if err := os.RemoveAll(filepath.Dir(f)); err != nil {
						t.Error(err)
					}
				}
			})
		}}, nil)
		if err != nil {
			t.Fatalf("Run returned %v after its spill directory was removed", err)
		}
		leaks.check()
	})

	t.Run("spill file cut underneath the merge", func(t *testing.T) {
		dir := t.TempDir()
		leaks := watchLeaks(t, dir)
		// The map phase ends once every run is in the file, before any
		// reducer reads: cut it there.
		err := budgeted(context.Background(), dir, StreamOptions{OnStage: func(stage string) func() {
			if stage != "map" {
				return nil
			}
			return func() {
				for _, f := range spillFiles(dir) {
					if err := os.Truncate(f, 0); err != nil {
						t.Error(err)
					}
				}
			}
		}}, nil)
		if err == nil || err.Error() != "mr: reading spill run: unexpected EOF" {
			t.Fatalf("Run returned %v, want mr: reading spill run: unexpected EOF", err)
		}
		leaks.check()
	})

	t.Run("failed write into the spill file", func(t *testing.T) {
		if runtime.GOOS != "linux" {
			t.Skip("makeReadOnly needs /proc/self/fd and dup3")
		}
		dir := t.TempDir()
		leaks := watchLeaks(t, dir)
		var once sync.Once
		var broken error
		err := budgeted(context.Background(), dir, StreamOptions{OnSpill: func(int, int64) {
			once.Do(func() { broken = makeReadOnly(spillFiles(dir)[0]) })
		}}, nil)
		if broken != nil {
			t.Fatal(broken)
		}
		if err == nil || !strings.HasPrefix(err.Error(), "mr: writing spill run: ") || !errors.Is(err, syscall.EBADF) {
			t.Fatalf("Run returned %v, want mr: writing spill run wrapping EBADF", err)
		}
		leaks.check()
	})
}

// TestMergeOverClosedFileFails closes the spill file underneath the read-back:
// the read fails with the file's error, and the write buffer is back in the
// pool already.
func TestMergeOverClosedFileFails(t *testing.T) {
	if n := runBuffersOut.Load(); n != 0 {
		t.Fatalf("%d run buffers already out", n)
	}
	s := newSpillFile(t)
	big := bytes.Repeat([]byte("v"), 100<<10) // more than the write buffer holds
	var runs []spillRun
	for i := 0; i < 5; i++ {
		runs = append(runs, appendRun(t, s, rec(i, "small"), Record{Index: i, Data: big}))
	}
	finish(t, s)
	if n := runBuffersOut.Load(); n != 0 {
		t.Fatalf("%d run buffers out once the file is written", n)
	}
	got, err := s.readRuns(nil, runs[:2])
	if err != nil || len(got) != 4 || !bytes.Equal(got[3].Data, big) {
		t.Fatalf("read back %d copies, %v, want 4 with the big one last", len(got), err)
	}
	s.f.Close()
	if _, err := s.readRuns(nil, runs[2:]); !errors.Is(err, os.ErrClosed) || !strings.HasPrefix(err.Error(), "mr: reading spill run: ") {
		t.Fatalf("read-back over a closed file returned %v, want mr: reading spill run wrapping os.ErrClosed", err)
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

// TestEveryPartitionSpillsIntoOneFile pins the layout's resource bound on a
// fully spilled 256-reducer run (2048 runs, 8 per reducer, read back by
// concurrent reduce workers): at no point — sampled after every spill and
// at every reduce call — is there more than one file in one mr-spill-*
// directory, or more than one descriptor open beyond what was open before the
// run.
func TestEveryPartitionSpillsIntoOneFile(t *testing.T) {
	const reducers = 256
	dir := t.TempDir()
	leaks := watchLeaks(t, dir)
	var mu sync.Mutex // one sampler at a time, so that samplers do not count each other
	var peakFDs, peakFiles, peakDirs, samples int
	sample := func() {
		mu.Lock()
		defer mu.Unlock()
		samples++
		peakFDs = max(peakFDs, openFDs(t))
		peakFiles = max(peakFiles, len(spillFiles(dir)))
		dirs, _ := filepath.Glob(filepath.Join(dir, "mr-spill-*"))
		peakDirs = max(peakDirs, len(dirs))
	}
	job := scatterJob(reducers, 4)
	reduce := job.Reduce
	job.Reduce = func(r int, recs []Record, emit func([]byte)) error {
		sample()
		return reduce(r, recs, emit)
	}
	res, err := Run(context.Background(), job, NewSliceSource(scatterInputs(512, func(int) int { return 20 })), nil,
		StreamOptions{MemoryBudget: 1, SpillDir: dir, OnSpill: func(int, int64) { sample() }})
	if err != nil {
		t.Fatal(err)
	}
	if c := res.Counters; c.SpillPartitions != reducers || c.SpillRuns != 2048 || samples != 2048+reducers {
		t.Fatalf("%d runs over %d reducers sampled %d times, want 2048 over %d sampled %d times",
			c.SpillRuns, c.SpillPartitions, samples, reducers, 2048+reducers)
	}
	if peakFiles != 1 || peakDirs != 1 {
		t.Errorf("%d files in %d spill directories at once, want one file in one directory", peakFiles, peakDirs)
	}
	if leaks.fds >= 0 && peakFDs > leaks.fds+1 {
		t.Errorf("%d descriptors open at once against %d before the run, want at most one more", peakFDs, leaks.fds)
	}
	leaks.check()
}

// TestSpillMatchesRecordedParent runs one job (48 reducers, 96 records of
// 300–700 B sent to 3 reducers each, a 144 KB shuffle) under budgets from
// below one record to above the whole shuffle, and holds the output bytes to
// the values an engine with one spill file per reducer, sorting and merging
// its runs, produced for the same job: the spill layout is not visible in the
// results. One goroutine routes, so which reducer spills when does not depend
// on scheduling, and the spill counters are pinned at every budget.
func TestSpillMatchesRecordedParent(t *testing.T) {
	const (
		wantOutput  = "c7c51ea4a05bbf133b805fbeef848121cada19e4b1fa9b24a73a46bb353e5b1d" // sha256 over the reducers' records
		wantRecords = 288
	)
	type spillCounters struct{ runs, partitions, bytes int64 }
	for _, tc := range []struct {
		budget int64
		want   spillCounters
	}{
		{1, spillCounters{288, 48, 147663}},
		{256, spillCounters{288, 48, 147663}}, // still below the smallest record
		{4 << 10, spillCounters{251, 48, 144152}},
		{256 << 10, spillCounters{}}, // never crossed
	} {
		var seen spillCounters
		spilledParts := map[int]bool{}
		res := runStream(t, scatterJob(48, 3), scatterInputs(96, func(i int) int { return 300 + (i*397)%401 }), StreamOptions{
			MemoryBudget: tc.budget,
			SpillDir:     t.TempDir(),
			OnSpill: func(partition int, runBytes int64) {
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
			t.Errorf("budget %d: output %s over %d copies, want %s over %d",
				tc.budget, sum, c.ShuffleRecords, wantOutput, wantRecords)
		}
		if got != seen {
			t.Errorf("budget %d: counters %+v, OnSpill saw %+v", tc.budget, got, seen)
		}
		if got != tc.want {
			t.Errorf("budget %d: spill counters %+v, want %+v", tc.budget, got, tc.want)
		}
	}
}
