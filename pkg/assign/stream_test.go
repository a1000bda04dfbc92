package assign_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/pkg/assign"
)

// streamPayloads builds n payloads of varied sizes.
func streamPayloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = bytes.Repeat([]byte{byte('a' + i%26)}, 8+i%13)
	}
	return out
}

func payloadSizes(payloads [][]byte) []assign.Size {
	sizes := make([]assign.Size, len(payloads))
	for i, p := range payloads {
		sizes[i] = assign.Size(len(p))
	}
	return sizes
}

func pairIDRecords(a, b assign.Record, emit func([]byte)) error {
	emit([]byte(fmt.Sprintf("%d,%d", a.ID, b.ID)))
	return nil
}

// TestExecuteSourceEachMatchesMaterialized runs the same instance through
// Inputs/Output and Source/Each and asserts they agree.
func TestExecuteSourceEachMatchesMaterialized(t *testing.T) {
	ctx := context.Background()
	payloads := streamPayloads(20)

	want, err := assign.Execute(ctx,
		assign.Inputs(payloads),
		assign.Capacity(80),
		assign.Pair(pairIDRecords),
		assign.Deterministic(),
	)
	if err != nil {
		t.Fatal(err)
	}

	var streamed []string
	got, err := assign.Execute(ctx,
		assign.Source(assign.NewSliceRecordSource(payloads), payloadSizes(payloads)),
		assign.Capacity(80),
		assign.Pair(pairIDRecords),
		assign.Each(func(rec []byte) error { streamed = append(streamed, string(rec)); return nil }),
		assign.Deterministic(),
	)
	if err != nil {
		t.Fatal(err)
	}
	if got.Output != nil {
		t.Fatalf("Each run materialized %d records", len(got.Output))
	}
	if !got.Audited {
		t.Fatal("streamed run was not audited")
	}
	if got.PairsProcessed != want.PairsProcessed {
		t.Fatalf("PairsProcessed = %d, materialized run had %d", got.PairsProcessed, want.PairsProcessed)
	}
	wantSet := make([]string, len(want.Output))
	for i, rec := range want.Output {
		wantSet[i] = string(rec)
	}
	sort.Strings(wantSet)
	sort.Strings(streamed)
	if len(streamed) != len(wantSet) {
		t.Fatalf("streamed %d records, materialized run had %d", len(streamed), len(wantSet))
	}
	for i := range wantSet {
		if streamed[i] != wantSet[i] {
			t.Fatalf("record %d: %q vs %q", i, streamed[i], wantSet[i])
		}
	}
}

// TestExecuteCopiesWhatASourceReuses pins RecordSource's contract: the run
// copies each record, so Next may hand every record back in one reused
// buffer. Output, pair count and audit must equal the Inputs run's, with the
// copies held in memory and with every copy spilled.
func TestExecuteCopiesWhatASourceReuses(t *testing.T) {
	ctx := context.Background()
	payloads := streamPayloads(20)
	pairData := func(a, b assign.Record, emit func([]byte)) error {
		emit(fmt.Appendf(nil, "%d,%d:%s|%s", a.ID, b.ID, a.Data, b.Data))
		return nil
	}
	want, err := assign.Execute(ctx,
		assign.Inputs(payloads), assign.Capacity(80), assign.Pair(pairData), assign.Deterministic())
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{0, 1} {
		buf := make([]byte, 0, 64) // every record is written into this one buffer
		i := 0
		src := assign.RecordSourceFunc(func() ([]byte, error) {
			if i == len(payloads) {
				return nil, io.EOF
			}
			buf = append(buf[:0], payloads[i]...)
			i++
			return buf, nil
		})
		got, err := assign.Execute(ctx,
			assign.Source(src, payloadSizes(payloads)), assign.Capacity(80), assign.Pair(pairData), assign.Deterministic(),
			assign.MemoryBudget(budget), assign.SpillDir(t.TempDir()))
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if (got.SpillRuns > 0) != (budget > 0) {
			t.Fatalf("budget %d: %d spill runs", budget, got.SpillRuns)
		}
		if got.PairsProcessed != want.PairsProcessed || got.Audited != want.Audited {
			t.Fatalf("budget %d: %d pairs, audited %v; the Inputs run had %d, audited %v",
				budget, got.PairsProcessed, got.Audited, want.PairsProcessed, want.Audited)
		}
		if len(got.Output) != len(want.Output) {
			t.Fatalf("budget %d: %d records, the Inputs run had %d", budget, len(got.Output), len(want.Output))
		}
		for i := range want.Output {
			if !bytes.Equal(got.Output[i], want.Output[i]) {
				t.Fatalf("budget %d: output[%d] = %q, the Inputs run had %q", budget, i, got.Output[i], want.Output[i])
			}
		}
	}
}

// TestExecuteSpillMatchesUnbounded is the SDK-level spill property test: a
// tiny MemoryBudget must not change the output, and the audit stays green.
func TestExecuteSpillMatchesUnbounded(t *testing.T) {
	ctx := context.Background()
	payloads := streamPayloads(20)
	spillDir := t.TempDir()

	want, err := assign.Execute(ctx,
		assign.Inputs(payloads), assign.Capacity(80), assign.Pair(pairIDRecords), assign.Deterministic())
	if err != nil {
		t.Fatal(err)
	}
	got, err := assign.Execute(ctx,
		assign.Inputs(payloads), assign.Capacity(80), assign.Pair(pairIDRecords), assign.Deterministic(),
		assign.MemoryBudget(48), assign.SpillDir(spillDir))
	if err != nil {
		t.Fatal(err)
	}
	if got.SpillRuns == 0 || got.SpillBytes == 0 || got.SpillPartitions == 0 {
		t.Fatalf("budgeted run did not spill: runs=%d partitions=%d bytes=%d",
			got.SpillRuns, got.SpillPartitions, got.SpillBytes)
	}
	if !got.Audited {
		t.Fatal("spilled run was not audited")
	}
	if len(got.Output) != len(want.Output) {
		t.Fatalf("spilled run emitted %d records, unbounded %d", len(got.Output), len(want.Output))
	}
	for i := range want.Output {
		if !bytes.Equal(got.Output[i], want.Output[i]) {
			t.Fatalf("output[%d] = %q, unbounded had %q", i, got.Output[i], want.Output[i])
		}
	}
	if leftovers, _ := filepath.Glob(filepath.Join(spillDir, "mr-spill-*")); len(leftovers) != 0 {
		t.Fatalf("spill directories leaked: %v", leftovers)
	}
}

// TestExecuteEachErrorStopsRun abandons a spilling run from its Each callback
// after one record: Execute must unwind the pipeline promptly, return the
// callback's error, and clean up the spill files.
func TestExecuteEachErrorStopsRun(t *testing.T) {
	payloads := streamPayloads(24)
	spillDir := t.TempDir()
	stop := errors.New("enough records")
	seen := 0
	done := make(chan error, 1)
	go func() {
		_, err := assign.Execute(context.Background(),
			assign.Inputs(payloads),
			assign.Capacity(120),
			assign.Pair(pairIDRecords),
			assign.MemoryBudget(32),
			assign.SpillDir(spillDir),
			assign.Each(func(rec []byte) error {
				if seen++; seen > 1 {
					return stop
				}
				return nil
			}),
		)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, stop) {
			t.Fatalf("Execute returned %v, want the Each error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Execute did not stop after Each failed")
	}
	if leftovers, _ := filepath.Glob(filepath.Join(spillDir, "mr-spill-*")); len(leftovers) != 0 {
		t.Fatalf("spill directories leaked after Each failed: %v", leftovers)
	}
}

// TestExecuteCancelledContextStopsRun is the SDK-level cancellation fix test:
// a context cancelled mid-run stops Execute promptly.
func TestExecuteCancelledContextStopsRun(t *testing.T) {
	payloads := streamPayloads(32)
	ctx, cancel := context.WithCancel(context.Background())
	spillDir := t.TempDir()
	released := make(chan struct{})
	i := 0
	src := assign.RecordSourceFunc(func() ([]byte, error) {
		if i < len(payloads)/2 {
			rec := payloads[i]
			i++
			return rec, nil
		}
		<-released // stalled upstream
		return nil, io.EOF
	})
	done := make(chan error, 1)
	go func() {
		_, err := assign.Execute(ctx,
			assign.Source(src, payloadSizes(payloads)),
			assign.Capacity(150),
			assign.Pair(pairIDRecords),
			assign.Deterministic(),
			assign.MemoryBudget(16),
			assign.SpillDir(spillDir),
		)
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	cancel()
	defer close(released)
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Execute returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Execute did not stop after cancellation")
	}
	if leftovers, _ := filepath.Glob(filepath.Join(spillDir, "mr-spill-*")); len(leftovers) != 0 {
		t.Fatalf("spill directories leaked after cancellation: %v", leftovers)
	}
}

// TestExecuteLeavesABlockedSourceBehind pins the one thing a cancelled run
// does not wait for, as Source documents it: a Next call that blocks. Execute
// returns while the call is still blocked; once the call is released its
// result goes nowhere, no further call starts, and the goroutine that made
// it is gone.
func TestExecuteLeavesABlockedSourceBehind(t *testing.T) {
	payloads := streamPayloads(32)
	goroutines := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var pulls atomic.Int64
	blocked, release, released := make(chan struct{}), make(chan struct{}), make(chan struct{})
	src := assign.RecordSourceFunc(func() ([]byte, error) {
		switch n := int(pulls.Add(1)); {
		case n <= len(payloads)/2:
			return payloads[n-1], nil
		case n == len(payloads)/2+1:
			defer close(released)
			close(blocked)
			<-release // an upstream that never answers
			return payloads[n-1], nil
		default:
			return nil, errors.New("pulled after the run was over")
		}
	})
	done := make(chan error, 1)
	go func() {
		_, err := assign.Execute(ctx,
			assign.Source(src, payloadSizes(payloads)),
			assign.Capacity(150),
			assign.Pair(pairIDRecords),
			assign.Deterministic(),
		)
		done <- err
	}()
	<-blocked
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Execute returned %v, want context.Canceled", err)
	}
	select {
	case <-released:
		t.Fatal("the blocked Next returned before it was released")
	default: // Execute is back and the call is still parked
	}
	close(release)
	<-released
	// The reader has its record and nobody to give it to; all that is left of
	// it is the return. Yield until the scheduler has let it.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the run, %d after the blocked call returned", goroutines, runtime.NumGoroutine())
		}
	}
	if n := pulls.Load(); n != int64(len(payloads)/2+1) {
		t.Fatalf("%d pulls, want %d: the source was pulled after Execute returned", n, len(payloads)/2+1)
	}
}

// TestExecuteSourceValidation covers the new option-combination errors.
func TestExecuteSourceValidation(t *testing.T) {
	ctx := context.Background()
	payloads := streamPayloads(4)
	src := assign.NewSliceRecordSource(payloads)

	// Source plus Inputs conflict.
	_, err := assign.Execute(ctx,
		assign.Source(src, payloadSizes(payloads)),
		assign.Inputs(payloads),
		assign.Capacity(60),
		assign.Pair(pairIDRecords),
	)
	if err == nil {
		t.Fatal("Source+Inputs did not fail")
	}

	// Plan over a Source instance works (sizes only).
	res, err := assign.Plan(ctx,
		assign.Source(src, payloadSizes(payloads)),
		assign.Capacity(60),
		assign.Deterministic(),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema == nil {
		t.Fatal("Plan over Source returned no schema")
	}
}

// TestExecuteMillionPairStreamSpills is the headline acceptance run: a
// similarity join whose pipeline streams over a million candidate pairs
// end-to-end through the Source/Each surface under a memory budget far below
// the shuffle volume, so spilling is forced. Output equality between the
// spilling and unbounded paths is asserted on a downsampled instance by
// TestExecuteSpillMatchesUnbounded; here we assert completion, scale, spill
// activity, audit, and spill-file cleanup.
func TestExecuteMillionPairStreamSpills(t *testing.T) {
	if testing.Short() {
		t.Skip("million-pair join skipped in -short mode")
	}
	const (
		numDocs = 1500
		recSize = 16
	)
	sizes := make([]assign.Size, numDocs)
	for i := range sizes {
		sizes[i] = recSize
	}
	next := 0
	src := assign.RecordSourceFunc(func() ([]byte, error) {
		if next >= numDocs {
			return nil, io.EOF
		}
		rec := make([]byte, recSize)
		for j := range rec {
			rec[j] = byte((next*31 + j*7) % 251)
		}
		next++
		return rec, nil
	})
	spillDir := t.TempDir()
	var similar int64
	ex, err := assign.Execute(context.Background(),
		assign.Named("million-pair-stream"),
		assign.Capacity(100*recSize),
		assign.Source(src, sizes),
		assign.MemoryBudget(32<<10), // ~1.3 MB of framed shuffle: forces spills
		assign.SpillDir(spillDir),
		assign.Pair(func(x, y assign.Record, emit func([]byte)) error {
			match := 0
			for k := range x.Data {
				if x.Data[k] == y.Data[k] {
					match++
				}
			}
			if match >= recSize-1 {
				emit([]byte{byte(x.ID >> 8), byte(x.ID), byte(y.ID >> 8), byte(y.ID)})
			}
			return nil
		}),
		assign.Each(func(rec []byte) error { similar++; return nil }),
	)
	if err != nil {
		t.Fatal(err)
	}
	const wantPairs = int64(numDocs) * (numDocs - 1) / 2
	if wantPairs < 1_000_000 {
		t.Fatalf("instance too small: %d pairs", wantPairs)
	}
	if ex.PairsProcessed != wantPairs {
		t.Fatalf("processed %d pairs, want %d", ex.PairsProcessed, wantPairs)
	}
	if ex.SpillRuns == 0 || ex.SpillPartitions == 0 || ex.SpillBytes == 0 {
		t.Fatalf("budget did not force spilling: runs=%d partitions=%d bytes=%d",
			ex.SpillRuns, ex.SpillPartitions, ex.SpillBytes)
	}
	if !ex.Audited {
		t.Fatal("execution was not audited")
	}
	if ex.Output != nil {
		t.Fatal("streamed execution must not materialize Output")
	}
	left, err := filepath.Glob(filepath.Join(spillDir, "mr-spill-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("spill directories left behind: %v", left)
	}
	t.Logf("pairs=%d similar=%d spill_runs=%d spill_bytes=%d elapsed=%s",
		ex.PairsProcessed, similar, ex.SpillRuns, ex.SpillBytes, ex.Elapsed)
}

// TestExecuteMeasuresThePapersQuantities holds the engine's counters to the
// paper's cost model: the bytes shuffled are the schema's communication cost,
// each reducer receives exactly its schema load, and no reducer receives more
// than q — with and without a memory budget that spills every copy.
func TestExecuteMeasuresThePapersQuantities(t *testing.T) {
	pair := assign.Pair(func(a, b assign.Record, emit func([]byte)) error { return nil })
	instances := map[string][]assign.Option{
		"a2a": {assign.Inputs(streamPayloads(40)), assign.Capacity(120)},
		"x2y": {assign.XYInputs(streamPayloads(15), streamPayloads(22)), assign.Capacity(90)},
	}
	for name, instance := range instances {
		for _, budget := range []int64{0, 1} {
			opts := append([]assign.Option{pair, assign.NoCache(), assign.MemoryBudget(budget), assign.SpillDir(t.TempDir())}, instance...)
			ex, err := assign.Execute(context.Background(), opts...)
			if err != nil {
				t.Fatalf("%s, budget %d: %v", name, budget, err)
			}
			schema, cost := ex.Plan.Schema, ex.Plan.Cost
			if cost.Reducers < 2 {
				t.Fatalf("%s: %d reducers, want an instance that needs several", name, cost.Reducers)
			}
			if (ex.SpillRuns == ex.ShuffleRecords) != (budget == 1) {
				t.Errorf("%s, budget %d: %d spill runs for %d copies", name, budget, ex.SpillRuns, ex.ShuffleRecords)
			}
			if ex.ShuffleBytes != int64(cost.Communication) {
				t.Errorf("%s, budget %d: shuffled %d bytes, the schema's communication cost is %d", name, budget, ex.ShuffleBytes, cost.Communication)
			}
			if len(ex.ReducerLoads) != len(schema.Reducers) {
				t.Fatalf("%s, budget %d: %d reducer loads for %d reducers", name, budget, len(ex.ReducerLoads), len(schema.Reducers))
			}
			for r, red := range schema.Reducers {
				if ex.ReducerLoads[r] != int64(red.Load) {
					t.Errorf("%s, budget %d: reducer %d received %d bytes, its schema load is %d", name, budget, r, ex.ReducerLoads[r], red.Load)
				}
			}
			if ex.MaxReducerLoad > int64(schema.Capacity) || ex.MaxReducerLoad != int64(cost.MaxLoad) {
				t.Errorf("%s, budget %d: max reducer load %d, schema max %d, q %d", name, budget, ex.MaxReducerLoad, cost.MaxLoad, schema.Capacity)
			}
		}
	}
}
