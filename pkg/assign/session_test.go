package assign_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/pkg/assign"
)

// validateSession checks the session's live schema with the core validator.
func validateSession(t *testing.T, s *assign.Session) {
	t.Helper()
	snap := s.Snapshot()
	if len(snap.IDs) == 0 {
		return
	}
	set, err := assign.NewInputSet(snap.Sizes)
	if err != nil {
		t.Fatalf("snapshot sizes: %v", err)
	}
	if err := snap.Schema.ValidateA2A(set); err != nil {
		t.Fatalf("session schema invalid: %v", err)
	}
}

func TestSessionLifecycle(t *testing.T) {
	ctx := context.Background()
	s, err := assign.NewSession(ctx,
		assign.A2A([]assign.Size{5, 3, 7, 2, 6, 4}),
		assign.Capacity(20),
		assign.Deterministic(),
		assign.ManualRebuild(),
	)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer s.Close()
	validateSession(t, s)

	id, rep, err := s.Add(8)
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	if id != 6 || rep.MovedBytes == 0 {
		t.Fatalf("Add returned id=%d rep=%+v", id, rep)
	}
	validateSession(t, s)
	if _, err := s.Resize(id, 3); err != nil {
		t.Fatalf("Resize: %v", err)
	}
	if _, err := s.Remove(0); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	validateSession(t, s)

	st := s.Stats()
	if st.Inputs != 6 || st.Adds != 1 || st.Removes != 1 || st.Resizes != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if _, err := s.Remove(99); !errors.Is(err, assign.ErrUnknownID) {
		t.Fatalf("Remove unknown: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, _, err := s.Add(1); !errors.Is(err, assign.ErrSessionClosed) {
		t.Fatalf("Add after Close: %v", err)
	}
}

// TestSessionManualRebuild pins that a session never rebuilds by itself: past
// the threshold it only says so through NeedsRebuild, and the caller's
// Rebuild is the one that runs.
func TestSessionManualRebuild(t *testing.T) {
	ctx := context.Background()
	// An isolated planner so the test does not share the process cache.
	pl := assign.NewPlanner(assign.PlannerConfig{})
	s, err := pl.NewSession(ctx,
		assign.A2A([]assign.Size{5, 5, 5, 5, 5, 5}),
		assign.Capacity(20),
		assign.Deterministic(),
		assign.RebuildThreshold(0.1),
	)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer s.Close()
	next := 6
	for i := 0; i < 60 && !s.NeedsRebuild(); i++ {
		if _, err := s.Remove(next - 6); err != nil {
			t.Fatalf("Remove: %v", err)
		}
		if _, _, err := s.Add(5); err != nil {
			t.Fatalf("Add: %v", err)
		}
		next++
	}
	if !s.NeedsRebuild() {
		t.Fatalf("drift never passed the threshold: %+v", s.Stats())
	}
	// More deltas past the threshold still start nothing.
	for i := 0; i < 5; i++ {
		if _, _, err := s.Add(5); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	if st := s.Stats(); st.Rebuilds != 0 || st.RebuildInFlight || !st.NeedsRebuild {
		t.Fatalf("a session rebuilt by itself: %+v", st)
	}
	rep, err := s.Rebuild(ctx)
	if err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	if rep.ReducersAfter == 0 {
		t.Fatalf("rebuild report = %+v", rep)
	}
	validateSession(t, s)
	if st := s.Stats(); st.Rebuilds != 1 || st.NeedsRebuild {
		t.Fatalf("stats after rebuild = %+v", st)
	}
}

func TestSessionOptionValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := assign.NewSession(ctx, assign.A2A([]assign.Size{1, 2})); err == nil {
		t.Fatal("missing capacity accepted")
	}
	if _, err := assign.NewSession(ctx,
		assign.X2Y([]assign.Size{1}, []assign.Size{2}), assign.Capacity(10)); err == nil {
		t.Fatal("X2Y session accepted")
	}
	if _, err := assign.NewSession(ctx,
		assign.A2A([]assign.Size{8, 8}), assign.Capacity(10)); !errors.Is(err, assign.ErrInfeasible) {
		t.Fatalf("pairwise-infeasible initial instance: err = %v", err)
	}
	// Source feeds records to Execute; a session cannot open on it.
	src := assign.Source(assign.NewSliceRecordSource([][]byte{[]byte("aaaa"), []byte("bb")}), []assign.Size{4, 2})
	if s, err := assign.NewSession(ctx, src, assign.Capacity(10)); err == nil {
		t.Fatalf("Source accepted: the session opened with %d inputs", s.Len())
	} else if !strings.Contains(err.Error(), "Source") {
		t.Fatalf("Source session: err = %v, want an error naming Source", err)
	}
	// A session needs no initial instance at all.
	s, err := assign.NewSession(ctx, assign.Capacity(10))
	if err != nil {
		t.Fatalf("empty session: %v", err)
	}
	defer s.Close()
	if _, _, err := s.Add(4); err != nil {
		t.Fatalf("Add to empty session: %v", err)
	}
	validateSession(t, s)
}

// TestSessionFromPayloads derives the initial sizes from concrete payloads,
// mirroring how Execute-oriented callers open sessions.
func TestSessionFromPayloads(t *testing.T) {
	s, err := assign.NewSession(context.Background(),
		assign.Inputs([][]byte{[]byte("aaaa"), []byte("bb"), []byte("cccccc")}),
		assign.Capacity(16),
	)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer s.Close()
	snap := s.Snapshot()
	want := []assign.Size{4, 2, 6}
	for i, w := range want {
		if snap.Sizes[i] != w {
			t.Fatalf("sizes = %v, want %v", snap.Sizes, want)
		}
	}
	validateSession(t, s)
}

// TestRestoreSessionDoesNotListThePairs restores a 5,000-input session and
// bounds what the restore allocates. Its static check, core.ValidateA2A,
// needs only which of the C(5000,2) = 12,497,500 required pairs the schema
// covers: an m²-bit matrix of 3 MB. Listing each covered pair at its owner,
// as a compiled run does, would add 8 B per pair, 100 MB, to a restore that
// runs nothing — 400 MB at pland's 10,000-input session cap, paid once per
// session at boot.
func TestRestoreSessionDoesNotListThePairs(t *testing.T) {
	const m = 5000
	sizes := make([]assign.Size, m)
	for i := range sizes {
		sizes[i] = assign.Size(1 + i*37%64)
	}
	pl := assign.NewPlanner(assign.PlannerConfig{})
	s, err := pl.NewSession(context.Background(),
		assign.A2A(sizes), assign.Capacity(4096), assign.Deterministic())
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	st := s.State()
	s.Close()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	restored, err := pl.RestoreSession(st, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("RestoreSession: %v", err)
	}
	defer restored.Close()
	// The whole restore — the session's own structure, its snapshot and the
	// coverage matrix — came to 23 MB when this was written.
	const bound = 64 << 20
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > bound {
		t.Fatalf("restoring %d inputs on %d reducers allocated %.1f MB, over the %d MB bound",
			m, restored.Stats().Reducers, float64(alloc)/(1<<20), bound>>20)
	}
}

// TestRestoreSessionRejectsTuning: the state carries the capacity and the
// maintenance tuning, so RestoreSession refuses each option that would set
// one, naming it, instead of dropping it.
func TestRestoreSessionRejectsTuning(t *testing.T) {
	pl := assign.NewPlanner(assign.PlannerConfig{})
	s, err := pl.NewSession(context.Background(), assign.A2A([]assign.Size{3, 4, 5}), assign.Capacity(20))
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	st := s.State()
	s.Close()
	for _, tc := range []struct {
		name string
		opt  assign.Option
	}{
		{"Capacity", assign.Capacity(40)},
		{"MigrationBudget", assign.MigrationBudget(100)},
		{"RebuildThreshold", assign.RebuildThreshold(0.5)},
		{"Headroom", assign.Headroom(2)},
	} {
		restored, err := pl.RestoreSession(st, nil, tc.opt)
		if err == nil {
			restored.Close()
			t.Errorf("RestoreSession accepted %s", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.name) {
			t.Errorf("RestoreSession with %s: error %q does not name the option", tc.name, err)
		}
	}
	restored, err := pl.RestoreSession(st, nil, assign.NoCache())
	if err != nil {
		t.Fatalf("RestoreSession with NoCache, which it ignores: %v", err)
	}
	restored.Close()
}
