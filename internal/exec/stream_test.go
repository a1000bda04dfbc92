package exec

import (
	"context"
	"errors"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// streamSizes is a mixed-size A2A instance big enough to shuffle a few
// kilobytes, so tiny budgets force spills.
func streamSizes(n int) []core.Size {
	sizes := make([]core.Size, n)
	for i := range sizes {
		sizes[i] = core.Size(10 + i%17)
	}
	return sizes
}

func intSizes(sizes []core.Size) []int {
	out := make([]int, len(sizes))
	for i, s := range sizes {
		out[i] = int(s)
	}
	return out
}

// TestRunStreamingSourceMatchesMaterialized drives the same instance through
// the materialized Inputs path and the Source/Sink path and asserts the
// output sets, pair counts, audits, and shuffle counters agree.
func TestRunStreamingSourceMatchesMaterialized(t *testing.T) {
	sizes := streamSizes(24)
	schema := solveA2A(t, sizes, 60)
	inputs := makeInputs(sizes)

	want, err := Run(Request{Name: "mat", Schema: schema, Inputs: inputs, Pair: pairIDs})
	if err != nil {
		t.Fatal(err)
	}

	var streamed []string
	got, err := Run(Request{
		Name:       "stream",
		Schema:     schema,
		Source:     NewSliceSource(inputs),
		InputSizes: intSizes(sizes),
		Pair:       pairIDs,
		Sink:       func(rec []byte) error { streamed = append(streamed, string(rec)); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Output != nil {
		t.Fatalf("sink run materialized %d output records", len(got.Output))
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
	gotSet := append([]string(nil), streamed...)
	sort.Strings(gotSet)
	if strings.Join(wantSet, "\n") != strings.Join(gotSet, "\n") {
		t.Fatal("streamed output differs from materialized output")
	}
	if got.Counters.ShuffleBytes != want.Counters.ShuffleBytes {
		t.Fatalf("ShuffleBytes = %d, materialized run had %d", got.Counters.ShuffleBytes, want.Counters.ShuffleBytes)
	}
}

// TestRunSpillsUnderBudgetAndStillAudits is the exec-level spill property:
// a tiny memory budget forces spilled runs, the output is unchanged, and the
// conformance audit still passes (loads are counted at arrival, not spill).
func TestRunSpillsUnderBudgetAndStillAudits(t *testing.T) {
	sizes := streamSizes(24)
	schema := solveA2A(t, sizes, 60)
	inputs := makeInputs(sizes)

	want, err := Run(Request{Name: "unbounded", Schema: schema, Inputs: inputs, Pair: pairIDs})
	if err != nil {
		t.Fatal(err)
	}
	spillDir := t.TempDir()
	got, err := Run(Request{
		Name:         "budgeted",
		Schema:       schema,
		Inputs:       inputs,
		Pair:         pairIDs,
		MemoryBudget: 32,
		SpillDir:     spillDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Counters.SpillRuns == 0 || got.Counters.SpillBytes == 0 || got.Counters.SpillPartitions == 0 {
		t.Fatalf("budgeted run did not spill: %+v", got.Counters)
	}
	if !got.Audited {
		t.Fatal("spilled run was not audited")
	}
	if len(got.Output) != len(want.Output) {
		t.Fatalf("spilled run emitted %d records, unbounded run %d", len(got.Output), len(want.Output))
	}
	for i := range want.Output {
		if string(got.Output[i]) != string(want.Output[i]) {
			t.Fatalf("output[%d] = %q, unbounded run had %q", i, got.Output[i], want.Output[i])
		}
	}
	leftovers, _ := filepath.Glob(filepath.Join(spillDir, "mr-spill-*"))
	if len(leftovers) != 0 {
		t.Fatalf("spill directories leaked: %v", leftovers)
	}
}

// TestRunRecordsEngineStagesInTheSpan asserts the request's span holds the
// engine's phases, exec_map then exec_reduce, inside exec_stream, and under a
// budget one spill event per spilled run, all in the map phase.
func TestRunRecordsEngineStagesInTheSpan(t *testing.T) {
	sizes := streamSizes(12)
	schema := solveA2A(t, sizes, 60)
	inputs := makeInputs(sizes)
	for _, budget := range []int64{0, 1} {
		ctx, sp := obs.StartSpan(context.Background(), "execute")
		res, err := Run(Request{
			Ctx: ctx, Name: "stages", Schema: schema, Inputs: inputs, Pair: pairIDs,
			MemoryBudget: budget, SpillDir: t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if spilled := res.Counters.SpillRuns > 0; spilled != (budget > 0) {
			t.Fatalf("budget %d: %d spill runs", budget, res.Counters.SpillRuns)
		}
		want := []string{"exec_compile"}
		for range res.Counters.SpillRuns {
			want = append(want, "spill")
		}
		want = append(want, "exec_map", "exec_reduce", "exec_stream", "audit")
		var got []string
		for _, st := range sp.Stages() {
			got = append(got, st.Name)
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("budget %d: the span's stages end in the order %v, want %v", budget, got, want)
		}
	}
}

// TestRunCancelledContextStopsStreaming feeds an endless-looking source and
// cancels mid-run: Run must return promptly with the context error and leave
// no spill files behind.
func TestRunCancelledContextStopsStreaming(t *testing.T) {
	sizes := streamSizes(64)
	schema := solveA2A(t, sizes, 120)
	inputs := makeInputs(sizes)
	ctx, cancel := context.WithCancel(context.Background())
	spillDir := t.TempDir()

	released := make(chan struct{})
	i := 0
	src := SourceFunc(func() ([]byte, error) {
		if i < len(inputs)/2 {
			rec := inputs[i]
			i++
			return rec, nil
		}
		// Block like a stalled upstream until the context dies.
		<-released
		return nil, io.EOF
	})
	done := make(chan error, 1)
	go func() {
		_, err := Run(Request{
			Ctx:          ctx,
			Name:         "cancelled",
			Schema:       schema,
			Source:       src,
			InputSizes:   intSizes(sizes),
			Pair:         pairIDs,
			MemoryBudget: 16,
			SpillDir:     spillDir,
		})
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	cancel()
	// The stalled source is only released after Run returns: cancellation
	// must not depend on the source ever waking up.
	defer close(released)
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not stop after cancellation")
	}
	leftovers, _ := filepath.Glob(filepath.Join(spillDir, "mr-spill-*"))
	if len(leftovers) != 0 {
		t.Fatalf("spill directories leaked after cancellation: %v", leftovers)
	}
}

// TestRunStreamingValidation covers the Source-path request validation.
func TestRunStreamingValidation(t *testing.T) {
	sizes := streamSizes(8)
	schema := solveA2A(t, sizes, 40)
	inputs := makeInputs(sizes)
	empty := NewSliceSource(nil)

	cases := []struct {
		name string
		req  Request
	}{
		{"source without sizes", Request{Schema: schema, Source: empty, Pair: pairIDs}},
		{"source plus inputs", Request{Schema: schema, Source: empty, Inputs: inputs, InputSizes: intSizes(sizes), Pair: pairIDs}},
		{"source on x2y", Request{
			Schema: solveX2Y(t, []core.Size{2, 3}, []core.Size{1, 2}, 10),
			Source: empty, InputSizes: []int{2, 3}, Pair: pairIDs,
		}},
	}
	for _, tc := range cases {
		if _, err := Run(tc.req); !errors.Is(err, ErrBadInputs) {
			t.Errorf("%s: Run returned %v, want ErrBadInputs", tc.name, err)
		}
	}
}

// TestRunStreamingSizeMismatchFails asserts a record that contradicts its
// declared size fails the run instead of silently skewing the audit.
func TestRunStreamingSizeMismatchFails(t *testing.T) {
	sizes := streamSizes(8)
	schema := solveA2A(t, sizes, 40)
	inputs := makeInputs(sizes)
	inputs[3] = append(inputs[3], 'X') // one byte longer than declared
	_, err := Run(Request{
		Name:       "mismatch",
		Schema:     schema,
		Source:     NewSliceSource(inputs),
		InputSizes: intSizes(sizes),
		Pair:       pairIDs,
	})
	if err == nil || !strings.Contains(err.Error(), "declared") {
		t.Fatalf("Run returned %v, want a declared-size mismatch error", err)
	}

	// A source that ends early fails too (fresh inputs: the mismatch case
	// above mutated record 3).
	_, err = Run(Request{
		Name:       "short",
		Schema:     schema,
		Source:     NewSliceSource(makeInputs(sizes)[:5]),
		InputSizes: intSizes(sizes),
		Pair:       pairIDs,
	})
	if err == nil || !strings.Contains(err.Error(), "ended after") {
		t.Fatalf("Run returned %v, want a short-source error", err)
	}
}
