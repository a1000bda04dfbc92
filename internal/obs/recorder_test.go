package obs

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// endTrace runs one root span through rec and returns its trace ID.
func endTrace(rec *Recorder, route string, fail bool) string {
	ctx := WithRecorder(context.Background(), rec)
	_, sp := StartSpan(ctx, route)
	sp.Stage("work")()
	if fail {
		sp.SetError("HTTP 500")
	}
	sp.End()
	return sp.TraceID()
}

func TestRecorderKeepsErrors(t *testing.T) {
	rec := NewRecorder(RecorderConfig{SampleRate: 0, Node: "n0"})
	tid := endTrace(rec, "/v1/plan", true)
	got := rec.Get(tid)
	if len(got) != 1 {
		t.Fatalf("errored trace not retained: %v", got)
	}
	if got[0].Reason != "error" || !got[0].Error || got[0].Node != "n0" {
		t.Fatalf("record wrong: %+v", got[0])
	}
	if len(got[0].Root.Children) != 1 || got[0].Root.Children[0].Name != "work" {
		t.Fatalf("span tree not snapshotted: %+v", got[0].Root)
	}
}

func TestRecorderKeepsSlow(t *testing.T) {
	rec := NewRecorder(RecorderConfig{SampleRate: 0, SlowThreshold: time.Nanosecond})
	ctx := WithRecorder(context.Background(), rec)
	_, sp := StartSpan(ctx, "/v1/plan")
	time.Sleep(time.Millisecond)
	sp.End()
	got := rec.Get(sp.TraceID())
	if len(got) != 1 || got[0].Reason != "slow" {
		t.Fatalf("slow trace not retained: %v", got)
	}
}

func TestRecorderSamplesFastOK(t *testing.T) {
	// Sample rate 0: a burst of fast successful traces all drop.
	rec := NewRecorder(RecorderConfig{SampleRate: 0})
	for i := 0; i < 50; i++ {
		tid := endTrace(rec, "/v1/plan", false)
		if got := rec.Get(tid); len(got) != 0 {
			t.Fatalf("fast-OK trace retained at rate 0: %+v", got)
		}
	}
	st := rec.Stats()
	if st.Kept != 0 || st.Dropped != 50 || st.Stored != 0 {
		t.Fatalf("stats = %+v, want 0 kept / 50 dropped", st)
	}

	// Sample rate 1: everything keeps.
	rec = NewRecorder(RecorderConfig{SampleRate: 1})
	tid := endTrace(rec, "/v1/plan", false)
	got := rec.Get(tid)
	if len(got) != 1 || got[0].Reason != "sampled" {
		t.Fatalf("rate-1 trace not retained: %v", got)
	}
}

func TestSampleKeepDeterministic(t *testing.T) {
	// The decision depends only on the trace ID, so two nodes of one
	// forwarded request agree.
	tid := NewTraceID()
	for i := 0; i < 3; i++ {
		if sampleKeep(tid, 0.5) != sampleKeep(tid, 0.5) {
			t.Fatal("sampleKeep not deterministic")
		}
	}
	if sampleKeep(tid, 1) != true {
		t.Fatal("rate 1 must keep")
	}
	if sampleKeep(tid, 0) != false {
		t.Fatal("rate 0 must drop")
	}
	if sampleKeep("zzzz", 0.5) {
		t.Fatal("non-hex suffix must drop, not panic")
	}

	// At rate 0.5 a decent spread of random IDs should land near half.
	kept := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if sampleKeep(NewTraceID(), 0.5) {
			kept++
		}
	}
	if kept < n/3 || kept > 2*n/3 {
		t.Fatalf("rate 0.5 kept %d/%d — sampling badly skewed", kept, n)
	}
}

func TestRecorderEviction(t *testing.T) {
	rec := NewRecorder(RecorderConfig{Capacity: 8, SampleRate: 1})
	var ids []string
	for i := 0; i < 200; i++ {
		ids = append(ids, endTrace(rec, "/v1/plan", false))
	}
	st := rec.Stats()
	if st.Stored > st.Capacity {
		t.Fatalf("stored %d exceeds capacity %d", st.Stored, st.Capacity)
	}
	if st.Kept != 200 {
		t.Fatalf("kept = %d, want 200", st.Kept)
	}
	if st.Dropped == 0 {
		t.Fatal("no evictions counted despite overflow")
	}
	// Evicted traces must be gone from the index too.
	live := 0
	for _, id := range ids {
		live += len(rec.Get(id))
	}
	if live != st.Stored {
		t.Fatalf("index holds %d records, ring holds %d", live, st.Stored)
	}
}

// TestRecorderKeepsNewestCapacity checks the ring holds exactly Capacity
// traces, and that they are the newest ones offered.
func TestRecorderKeepsNewestCapacity(t *testing.T) {
	for _, capacity := range []int{100, 3} {
		rec := NewRecorder(RecorderConfig{Capacity: capacity, SampleRate: 1})
		if got := rec.Stats().Capacity; got != capacity {
			t.Fatalf("Capacity %d: Stats().Capacity = %d", capacity, got)
		}
		ids := make([]string, 4*capacity)
		for i := range ids {
			ids[i] = endTrace(rec, "/v1/plan", false)
		}
		for i, id := range ids {
			got, newest := len(rec.Get(id)), i >= len(ids)-capacity
			if newest && got != 1 || !newest && got != 0 {
				t.Fatalf("Capacity %d: trace %d of %d has %d records retained", capacity, i, len(ids), got)
			}
		}
		if st := rec.Stats(); st.Stored != capacity || st.Dropped != uint64(3*capacity) {
			t.Fatalf("Capacity %d: stats %+v, want %d stored and %d evicted", capacity, st, capacity, 3*capacity)
		}
	}
}

func TestRecorderMultipleRootsPerTrace(t *testing.T) {
	// A forwarded request and the job it enqueues are separate local roots
	// sharing one trace ID; Get must return the forest.
	rec := NewRecorder(RecorderConfig{SampleRate: 1})
	tc := TraceContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Sampled: true}
	for i := 0; i < 2; i++ {
		ctx := WithRecorder(WithTraceContext(context.Background(), tc), rec)
		_, sp := StartSpan(ctx, fmt.Sprintf("root-%d", i))
		sp.End()
	}
	if got := rec.Get(tc.TraceID); len(got) != 2 {
		t.Fatalf("forest = %d records, want 2", len(got))
	}
}

func TestRecorderList(t *testing.T) {
	rec := NewRecorder(RecorderConfig{SampleRate: 1})
	endTrace(rec, "/v1/plan", false)
	endTrace(rec, "/v1/plan", true)
	endTrace(rec, "/v2/jobs", false)

	if got := rec.List(TraceFilter{}); len(got) != 3 {
		t.Fatalf("unfiltered list = %d, want 3", len(got))
	}
	if got := rec.List(TraceFilter{Route: "/v1/plan"}); len(got) != 2 {
		t.Fatalf("route filter = %d, want 2", len(got))
	}
	got := rec.List(TraceFilter{ErrorsOnly: true})
	if len(got) != 1 || !got[0].Error {
		t.Fatalf("errors filter = %+v, want 1 errored", got)
	}
	if got := rec.List(TraceFilter{MinDuration: time.Hour}); len(got) != 0 {
		t.Fatalf("min-duration filter = %d, want 0", len(got))
	}
	if got := rec.List(TraceFilter{Limit: 2}); len(got) != 2 {
		t.Fatalf("limit = %d, want 2", len(got))
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var rec *Recorder
	if rec.Get("x") != nil || rec.List(TraceFilter{}) != nil {
		t.Fatal("nil recorder reads not nil")
	}
	if rec.Stats() != (RecorderStats{}) {
		t.Fatal("nil recorder stats not zero")
	}
}

// TestRecorderHammer drives concurrent offers and reads; run with -race.
func TestRecorderHammer(t *testing.T) {
	rec := NewRecorder(RecorderConfig{Capacity: 64, SampleRate: 1})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tid := endTrace(rec, fmt.Sprintf("/route-%d", g%3), i%7 == 0)
				rec.Get(tid)
				if i%17 == 0 {
					rec.List(TraceFilter{Route: "/route-1", Limit: 10})
					rec.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	st := rec.Stats()
	if st.Kept != 8*200 {
		t.Fatalf("kept = %d, want %d", st.Kept, 8*200)
	}
	if st.Stored > st.Capacity {
		t.Fatalf("stored %d exceeds capacity %d", st.Stored, st.Capacity)
	}
}
