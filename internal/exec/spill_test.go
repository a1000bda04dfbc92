package exec

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
	runStream(t, scatterJob(2, 2), streamInputs(4, 3, 1), Request{MemoryBudget: 1, SpillDir: spillDir})
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
// directory, writing into the file, reading it back for each reducer's
// copies — and asserts that the error comes back and nothing is left: no
// directory, no descriptor, no buffer out of the pool, no goroutine. (A run
// cancelled mid-spill is TestRunStreamCancelMidChunk.)
func TestFailurePathsReleaseEverything(t *testing.T) {
	boom := errors.New("boom")
	inputs := streamInputs(200, 6, 21)
	// budgeted runs a job over 8 reducers, every copy spilled. A non-nil
	// pulled is called before every pull from the source: by the second,
	// record 0's copies are in the spill file.
	budgeted := func(ctx context.Context, spillDir string, pulled func(i int), reduce func(int, []Record, func([]byte)) error) error {
		job := scatterJob(8, 2)
		if reduce != nil {
			job.reduce = reduce
		}
		src := Source(NewSliceSource(inputs))
		if pulled != nil {
			slice, i := src, 0
			src = SourceFunc(func() ([]byte, error) {
				pulled(i)
				i++
				return slice.Next()
			})
		}
		_, err := runJob(&Request{Ctx: ctx, MemoryBudget: 1, SpillDir: spillDir}, job, src)
		return err
	}

	t.Run("reducer fails mid-reduce", func(t *testing.T) {
		dir := t.TempDir()
		leaks := watchLeaks(t, dir)
		var mu sync.Mutex
		calls := 0
		err := budgeted(context.Background(), dir, nil, func(int, []Record, func([]byte)) error {
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

	t.Run("cancelled mid-reduce", func(t *testing.T) {
		dir := t.TempDir()
		leaks := watchLeaks(t, dir)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		err := budgeted(ctx, dir, nil, func(int, []Record, func([]byte)) error {
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
		err := budgeted(context.Background(), notADir, nil, nil)
		var pathErr *fs.PathError
		if err == nil || !strings.HasPrefix(err.Error(), "creating spill directory: ") || !errors.As(err, &pathErr) {
			t.Fatalf("Run returned %v, want creating spill directory wrapping the OS error", err)
		}
		leaks.check()
	})

	// The file is open from the first spill on, so removing its directory
	// underneath the run takes nothing from it: the run completes, and
	// still leaves nothing behind.
	t.Run("spill dir removed mid-spill", func(t *testing.T) {
		dir := t.TempDir()
		leaks := watchLeaks(t, dir)
		err := budgeted(context.Background(), dir, func(i int) {
			if i != 1 {
				return
			}
			for _, f := range spillFiles(dir) {
				if err := os.RemoveAll(filepath.Dir(f)); err != nil {
					t.Error(err)
				}
			}
		}, nil)
		if err != nil {
			t.Fatalf("Run returned %v after its spill directory was removed", err)
		}
		leaks.check()
	})

	// The map phase ends once every run is in the file, before any reducer
	// reads: cut it there.
	t.Run("spill file cut underneath the read-back", func(t *testing.T) {
		dir := t.TempDir()
		leaks := watchLeaks(t, dir)
		p := newPipeline(&Request{MemoryBudget: 1, SpillDir: dir}, scatterJob(8, 2), NewSliceSource(inputs))
		if err := p.mapPhase(); err != nil {
			t.Fatal(err)
		}
		if err := p.spill.f.Truncate(0); err != nil {
			t.Fatal(err)
		}
		err := p.reducePhase()
		p.close()
		if err == nil || err.Error() != "reading spill run: unexpected EOF" {
			t.Fatalf("the reduce phase returned %v, want reading spill run: unexpected EOF", err)
		}
		leaks.check()
	})

	t.Run("failed write into the spill file", func(t *testing.T) {
		if runtime.GOOS != "linux" {
			t.Skip("makeReadOnly needs /proc/self/fd and dup3")
		}
		dir := t.TempDir()
		leaks := watchLeaks(t, dir)
		var broken error
		err := budgeted(context.Background(), dir, func(i int) {
			if i == 1 {
				broken = makeReadOnly(spillFiles(dir)[0])
			}
		}, nil)
		if broken != nil {
			t.Fatal(broken)
		}
		if err == nil || !strings.HasPrefix(err.Error(), "writing spill run: ") || !errors.Is(err, syscall.EBADF) {
			t.Fatalf("Run returned %v, want writing spill run wrapping EBADF", err)
		}
		leaks.check()
	})
}

// TestCorruptSpilledIndexFailsTheRun overwrites the record index of one
// spilled copy of a compiled schema's run, between the map and the reduce
// phase, with one past the records pulled. The reduce indexes the schema's
// per-input tables with it, so the read-back must refuse it: the run fails
// with an error instead of a worker's panic, and leaves nothing behind.
func TestCorruptSpilledIndexFailsTheRun(t *testing.T) {
	dir := t.TempDir()
	leaks := watchLeaks(t, dir)
	ms, set := validSchema(t)
	req := Request{Name: "corrupt", Schema: ms, Inputs: makeInputs(set.Sizes()), Pair: pairIDs, MemoryBudget: 1, SpillDir: dir}
	c, err := compile(req)
	if err != nil {
		t.Fatal(err)
	}
	p := newPipeline(&req, c.job(), &c.in)
	if err := p.mapPhase(); err != nil {
		t.Fatal(err)
	}
	// The file opens with record 0's first copy: a one-byte index, 0.
	if _, err := p.spill.f.WriteAt([]byte{byte(len(req.Inputs))}, 0); err != nil {
		t.Fatal(err)
	}
	err = p.reducePhase()
	p.close()
	want := fmt.Sprintf("reading spill run: record index %d out of range: the run pulled %d records", len(req.Inputs), len(req.Inputs))
	if err == nil || err.Error() != want {
		t.Fatalf("the reduce phase returned %v, want %s", err, want)
	}
	leaks.check()
}

// TestReadBackOverClosedFileFails closes the spill file underneath the
// read-back: the read fails with the file's error, and the write buffer is
// back in the pool already.
func TestReadBackOverClosedFileFails(t *testing.T) {
	if n := runBuffersOut.Load(); n != 0 {
		t.Fatalf("%d run buffers already out", n)
	}
	s := newSpillFile(t)
	big := bytes.Repeat([]byte("v"), 100<<10) // more than the write buffer holds
	var runs []spillRun
	for i := 0; i < 5; i++ {
		runs = append(runs, appendRun(t, s, rec(i, "small"), Record{ID: i, Data: big}))
	}
	finish(t, s)
	if n := runBuffersOut.Load(); n != 0 {
		t.Fatalf("%d run buffers out once the file is written", n)
	}
	got, err := s.readRuns(nil, runs[:2], 5)
	if err != nil || len(got) != 4 || !bytes.Equal(got[3].Data, big) {
		t.Fatalf("read back %d copies, %v, want 4 with the big one last", len(got), err)
	}
	s.f.Close()
	if _, err := s.readRuns(nil, runs[2:], 5); !errors.Is(err, os.ErrClosed) || !strings.HasPrefix(err.Error(), "reading spill run: ") {
		t.Fatalf("read-back over a closed file returned %v, want reading spill run wrapping os.ErrClosed", err)
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
// concurrent reduce workers): at no point — sampled at every pull from the
// source, after the previous record's four spills, and at every reduce call —
// is there more than one file in one mr-spill-*
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
	reduce := job.reduce
	job.reduce = func(r int, recs []Record, emit func([]byte)) error {
		sample()
		return reduce(r, recs, emit)
	}
	inputs := NewSliceSource(scatterInputs(512, func(int) int { return 20 }))
	src := SourceFunc(func() ([]byte, error) {
		sample()
		return inputs.Next()
	})
	res, err := runJob(&Request{MemoryBudget: 1, SpillDir: dir}, job, src)
	if err != nil {
		t.Fatal(err)
	}
	// 513 pulls: the 512 records and the end of the input.
	if c := res.Counters; c.SpillPartitions != reducers || c.SpillRuns != 2048 || samples != 513+reducers {
		t.Fatalf("%d runs over %d reducers sampled %d times, want 2048 over %d sampled %d times",
			c.SpillRuns, c.SpillPartitions, samples, reducers, 513+reducers)
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
// on scheduling, and the spill counters are pinned at every budget — and
// agree with the pland_exec_spill_* metrics the run moved.
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
		runs, bytes := obsSpillRuns.Value(), obsSpillBytes.Value()
		res := runStream(t, scatterJob(48, 3), scatterInputs(96, func(i int) int { return 300 + (i*397)%401 }), Request{
			MemoryBudget: tc.budget,
			SpillDir:     t.TempDir(),
		})
		runs, bytes = obsSpillRuns.Value()-runs, obsSpillBytes.Value()-bytes
		h := sha256.New()
		for _, rec := range res.Output {
			// Every reducer emits one record, "r<reducer>:…".
			p, _, _ := strings.Cut(strings.TrimPrefix(string(rec), "r"), ":")
			fmt.Fprintf(h, "%s:%d:", p, len(rec))
			h.Write(rec)
		}
		c := res.Counters
		got := spillCounters{c.SpillRuns, c.SpillPartitions, c.SpillBytes}
		if sum := fmt.Sprintf("%x", h.Sum(nil)); sum != wantOutput || c.ShuffleRecords != wantRecords {
			t.Errorf("budget %d: output %s over %d copies, want %s over %d",
				tc.budget, sum, c.ShuffleRecords, wantOutput, wantRecords)
		}
		if uint64(got.runs) != runs || uint64(got.bytes) != bytes {
			t.Errorf("budget %d: counters %+v, the metrics moved by %d runs and %d bytes", tc.budget, got, runs, bytes)
		}
		if got != tc.want {
			t.Errorf("budget %d: spill counters %+v, want %+v", tc.budget, got, tc.want)
		}
	}
}
