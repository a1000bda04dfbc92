package stream_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/stream"
	"repro/internal/workload"
)

// Regenerate the rebuild trace only on the commit a change is compared
// against, never on the change itself:
//
//	go test ./internal/stream -run TestRebuildTraceMatchesGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/rebuild_trace.json from this build's rebuilds")

// Shape of the rebuild trace: the session shape pland serves under the
// svc_mixed workload (q = 256, about 500 Zipf sizes up to 30, churn of three
// adds, three removes and two resizes per eight deltas).
const (
	traceCapacity  = 256
	traceInputs    = 500
	traceMaxSize   = 30
	traceThreshold = 1.0
	traceSteps     = 12000
	traceSeed      = 7
)

// traceSizes is the size distribution of the trace's initial inputs, adds
// and resizes.
var traceSizes = workload.SizeSpec{Dist: workload.Zipf, Min: 1, Max: traceMaxSize, Skew: 1.5}

// rebuildEntry is one rebuild of the trace: the delta step it followed, its
// report (Elapsed zeroed: wall time is not reproducible), and the session's
// state fingerprint right after the swap.
type rebuildEntry struct {
	Step        int                  `json:"step"`
	Report      stream.RebuildReport `json:"report"`
	Fingerprint string               `json:"fingerprint"`
}

// traceSession opens a session on the trace's initial inputs.
func traceSession(tb testing.TB) *stream.Session {
	tb.Helper()
	sizes, err := workload.Sizes(traceSizes, traceInputs, traceSeed)
	if err != nil {
		tb.Fatalf("workload: %v", err)
	}
	s, err := stream.NewSession(context.Background(), stream.Config{
		Capacity:         traceCapacity,
		RebuildThreshold: traceThreshold,
		Initial:          sizes,
		Replan:           solveReplan,
	})
	if err != nil {
		tb.Fatalf("NewSession: %v", err)
	}
	tb.Cleanup(func() { s.Close() })
	return s
}

// traceEvents is the trace's churn: three adds, three removes and two
// resizes in every eight deltas, on average.
func traceEvents(tb testing.TB) []workload.ChurnEvent {
	tb.Helper()
	events, err := workload.Churn(workload.ChurnSpec{
		Initial: traceInputs, Steps: traceSteps,
		AddWeight: 3, RemoveWeight: 3, ResizeWeight: 2,
		Sizes: traceSizes,
	}, traceSeed)
	if err != nil {
		tb.Fatalf("churn: %v", err)
	}
	return events
}

// applyChurn applies one churn event to the session.
func applyChurn(s *stream.Session, ev workload.ChurnEvent) error {
	var err error
	switch ev.Op {
	case workload.OpAdd:
		var id stream.InputID
		if id, _, err = s.Add(ev.Size); err == nil && id != ev.ID {
			err = fmt.Errorf("add got id %d, want %d", id, ev.ID)
		}
	case workload.OpRemove:
		_, err = s.Remove(ev.ID)
	case workload.OpResize:
		_, err = s.Resize(ev.ID, ev.Size)
	}
	return err
}

// TestRebuildTraceMatchesGolden pins every rebuild of a seeded churn trace:
// each RebuildReport (the migration cost among it) and the state the swap
// leaves behind, so a change to the swap or to the migration pricing that
// moves any byte of either shows here.
func TestRebuildTraceMatchesGolden(t *testing.T) {
	s := traceSession(t)
	var trace []rebuildEntry
	for step, ev := range traceEvents(t) {
		if err := applyChurn(s, ev); err != nil {
			t.Fatalf("step %d (%s %d): %v", step, ev.Op, ev.ID, err)
		}
		if !s.NeedsRebuild() {
			continue
		}
		rep, err := s.Rebuild(context.Background())
		if err != nil {
			t.Fatalf("step %d: Rebuild: %v", step, err)
		}
		rep.Elapsed = 0
		trace = append(trace, rebuildEntry{Step: step, Report: *rep,
			Fingerprint: fmt.Sprintf("%016x", s.State().Fingerprint())})
	}
	if len(trace) < 100 {
		t.Fatalf("trace has %d rebuilds, want at least 100", len(trace))
	}
	audit(t, s)

	var got bytes.Buffer
	got.WriteString("[\n")
	for i, e := range trace {
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		got.Write(line)
		if i < len(trace)-1 {
			got.WriteByte(',')
		}
		got.WriteByte('\n')
	}
	got.WriteString("]\n")

	path := filepath.Join("testdata", "rebuild_trace.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden trace (regenerate with -update-golden): %v", err)
	}
	var wantTrace []rebuildEntry
	if err := json.Unmarshal(want, &wantTrace); err != nil {
		t.Fatalf("parsing golden trace: %v", err)
	}
	if len(wantTrace) != len(trace) {
		t.Errorf("%d rebuilds, golden has %d", len(trace), len(wantTrace))
	}
	for i := range min(len(trace), len(wantTrace)) {
		if trace[i] != wantTrace[i] {
			t.Fatalf("rebuild %d differs from the golden trace:\n got %+v\nwant %+v", i, trace[i], wantTrace[i])
		}
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("trace bytes differ from %s", path)
	}
}
