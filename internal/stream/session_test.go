package stream_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/a2a"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/stream"
	"repro/internal/workload"
)

// solveReplan is the test ReplanFunc: the paper's baseline constructive
// dispatch, deterministic and fast.
func solveReplan(_ context.Context, sizes []core.Size, q core.Size) (*core.MappingSchema, error) {
	set, err := core.NewInputSet(sizes)
	if err != nil {
		return nil, err
	}
	return a2a.Solve(set, q)
}

// audit machine-checks the session's invariants on a consistent snapshot:
// core validation (coverage + recomputed loads) and the exec conformance
// auditor's PreCheck (declared loads within q, every pair owned).
func audit(t *testing.T, s *stream.Session) {
	t.Helper()
	snap := s.Snapshot()
	if len(snap.IDs) == 0 {
		if n := len(snap.Schema.Reducers); n != 0 {
			t.Fatalf("empty session has %d reducers", n)
		}
		return
	}
	set, err := core.NewInputSet(snap.Sizes)
	if err != nil {
		t.Fatalf("snapshot sizes: %v", err)
	}
	if err := snap.Schema.ValidateA2A(set); err != nil {
		t.Fatalf("schema invalid: %v", err)
	}
	aud, err := exec.NewAuditor(snap.Schema, len(snap.IDs))
	if err != nil {
		t.Fatalf("building auditor: %v", err)
	}
	if err := aud.PreCheck(); err != nil {
		t.Fatalf("audit: %v", err)
	}
}

func newSession(t *testing.T, cfg stream.Config) *stream.Session {
	t.Helper()
	if cfg.Replan == nil {
		cfg.Replan = solveReplan
	}
	s, err := stream.NewSession(context.Background(), cfg)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestAddCoversEveryPair(t *testing.T) {
	s := newSession(t, stream.Config{Capacity: 20})
	sizes := []core.Size{5, 3, 7, 2, 6, 4, 1, 8, 3, 5, 2, 9}
	for i, w := range sizes {
		id, rep, err := s.Add(w)
		if err != nil {
			t.Fatalf("Add(%d): %v", w, err)
		}
		if id != i {
			t.Fatalf("Add returned id %d, want %d", id, i)
		}
		if i > 0 && rep.MovedBytes == 0 {
			t.Fatalf("Add(%d) reports zero moved bytes", w)
		}
		audit(t, s)
	}
	st := s.Stats()
	if st.Inputs != len(sizes) || st.Adds != uint64(len(sizes)) {
		t.Fatalf("stats = %+v, want %d inputs/adds", st, len(sizes))
	}
}

func TestInitialImportPlansOnce(t *testing.T) {
	s := newSession(t, stream.Config{
		Capacity: 30,
		Initial:  []core.Size{5, 3, 7, 2, 6, 4, 1, 8, 3, 5},
	})
	audit(t, s)
	st := s.Stats()
	if st.Inputs != 10 || st.Reducers == 0 {
		t.Fatalf("stats after initial import = %+v", st)
	}
	if st.Rebuilds != 0 {
		t.Fatalf("initial import counted as a rebuild: %+v", st)
	}
	// IDs continue after the initial block.
	id, _, err := s.Add(4)
	if err != nil || id != 10 {
		t.Fatalf("Add after initial = (%d, %v), want id 10", id, err)
	}
	audit(t, s)
}

func TestRemoveAndResizeKeepInvariants(t *testing.T) {
	s := newSession(t, stream.Config{Capacity: 25, Initial: []core.Size{5, 3, 7, 2, 6, 4, 1, 8, 3, 5, 2, 9}})
	for _, id := range []int{3, 7, 0} {
		if _, err := s.Remove(id); err != nil {
			t.Fatalf("Remove(%d): %v", id, err)
		}
		audit(t, s)
	}
	// Shrink, grow within slack, then grow past reducer slack (forces
	// eviction + re-cover).
	if _, err := s.Resize(1, 1); err != nil {
		t.Fatalf("shrink: %v", err)
	}
	audit(t, s)
	if _, err := s.Resize(1, 6); err != nil {
		t.Fatalf("grow: %v", err)
	}
	audit(t, s)
	if _, err := s.Resize(11, 16); err != nil { // 9 -> 16 with q=25 forces evictions
		t.Fatalf("big grow: %v", err)
	}
	audit(t, s)
	st := s.Stats()
	if st.Inputs != 9 || st.Removes != 3 || st.Resizes != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestInfeasibleDeltasRejectedWithoutMutation(t *testing.T) {
	s := newSession(t, stream.Config{Capacity: 10, Initial: []core.Size{6, 3}})
	before := s.Stats()

	if _, _, err := s.Add(11); !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("Add over capacity: err = %v", err)
	}
	if _, _, err := s.Add(5); !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("Add pairwise-infeasible (5+6 > 10): err = %v", err)
	}
	if _, _, err := s.Add(0); !errors.Is(err, core.ErrNonPositiveSize) {
		t.Fatalf("Add zero size: err = %v", err)
	}
	if _, err := s.Resize(1, 5); !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("Resize pairwise-infeasible: err = %v", err)
	}
	if _, err := s.Resize(9, 2); !errors.Is(err, stream.ErrUnknownID) {
		t.Fatalf("Resize unknown: err = %v", err)
	}
	if _, err := s.Remove(9); !errors.Is(err, stream.ErrUnknownID) {
		t.Fatalf("Remove unknown: err = %v", err)
	}

	after := s.Stats()
	if after.Inputs != before.Inputs || after.Version != before.Version || after.LiveBytes != before.LiveBytes {
		t.Fatalf("rejected deltas mutated the session: %+v -> %+v", before, after)
	}
	audit(t, s)
}

func TestDriftTriggersManualRebuild(t *testing.T) {
	s := newSession(t, stream.Config{
		Capacity:         20,
		RebuildThreshold: 0.2,
		Initial:          []core.Size{5, 5, 5, 5, 5, 5, 5, 5},
	})
	// Churn until drift passes the threshold: removals free bytes, adds
	// re-pack.
	next := 8
	for i := 0; i < 50 && !s.NeedsRebuild(); i++ {
		if _, err := s.Remove(next - 8); err != nil {
			t.Fatalf("Remove: %v", err)
		}
		if _, _, err := s.Add(5); err != nil {
			t.Fatalf("Add: %v", err)
		}
		next++
		audit(t, s)
	}
	if !s.NeedsRebuild() {
		t.Fatalf("drift never passed the threshold: %+v", s.Stats())
	}
	rep, err := s.Rebuild(context.Background())
	if err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	if rep.PlannedInputs != 8 || rep.ReducersAfter == 0 {
		t.Fatalf("rebuild report = %+v", rep)
	}
	audit(t, s)
	st := s.Stats()
	if st.Rebuilds != 1 || st.DriftBytes != 0 || st.NeedsRebuild {
		t.Fatalf("stats after rebuild = %+v", st)
	}
}

func TestRebuildReconcilesRacingDeltas(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	var calls atomic.Int32
	blockingReplan := func(ctx context.Context, sizes []core.Size, q core.Size) (*core.MappingSchema, error) {
		// The first call is NewSession's initial plan and passes straight
		// through; the rebuild's call parks until the test releases it.
		if calls.Add(1) > 1 {
			started <- struct{}{}
			<-release
		}
		return solveReplan(ctx, sizes, q)
	}
	s := newSession(t, stream.Config{
		Capacity: 20,
		Replan:   blockingReplan,
		Initial:  []core.Size{5, 3, 7, 2, 6, 4},
	})
	done := make(chan error, 1)
	go func() {
		_, err := s.Rebuild(context.Background())
		done <- err
	}()
	<-started
	// Race every delta kind against the in-flight solve.
	if _, _, err := s.Add(8); err != nil {
		t.Fatalf("racing Add: %v", err)
	}
	if _, err := s.Remove(2); err != nil {
		t.Fatalf("racing Remove: %v", err)
	}
	if _, err := s.Resize(0, 9); err != nil {
		t.Fatalf("racing Resize: %v", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	audit(t, s)
	st := s.Stats()
	if st.Inputs != 6 { // 6 initial - 1 removed + 1 added
		t.Fatalf("inputs after reconcile = %d, want 6", st.Inputs)
	}
}

func TestCompactionMergesAfterRemovals(t *testing.T) {
	sizes := make([]core.Size, 24)
	for i := range sizes {
		sizes[i] = 10
	}
	s := newSession(t, stream.Config{Capacity: 40, Initial: sizes, RebuildThreshold: -1})
	before := s.Stats().Reducers
	merged := 0
	for id := 0; id < 12; id++ {
		rep, err := s.Remove(id)
		if err != nil {
			t.Fatalf("Remove(%d): %v", id, err)
		}
		merged += rep.MergedReducers
		audit(t, s)
	}
	after := s.Stats().Reducers
	if merged == 0 {
		t.Fatalf("no reducer merges across 12 removals (reducers %d -> %d)", before, after)
	}
	if after >= before {
		t.Fatalf("compaction never shrank the schema: reducers %d -> %d", before, after)
	}

	// With compaction disabled the same churn must not merge anything.
	s2 := newSession(t, stream.Config{Capacity: 40, Initial: sizes, RebuildThreshold: -1, MigrationBudget: -1})
	for id := 0; id < 12; id++ {
		rep, err := s2.Remove(id)
		if err != nil {
			t.Fatalf("Remove(%d): %v", id, err)
		}
		if rep.MergedReducers != 0 || rep.CompactedBytes != 0 {
			t.Fatalf("compaction ran with a negative budget: %+v", rep)
		}
		audit(t, s2)
	}
}

func TestDeterministicAcrossSessions(t *testing.T) {
	run := func() string {
		s := newSession(t, stream.Config{Capacity: 30, Initial: []core.Size{5, 3, 7, 2, 6, 4, 1, 8}})
		for _, w := range []core.Size{9, 2, 6} {
			if _, _, err := s.Add(w); err != nil {
				t.Fatalf("Add: %v", err)
			}
		}
		for _, id := range []int{1, 4} {
			if _, err := s.Remove(id); err != nil {
				t.Fatalf("Remove: %v", err)
			}
		}
		if _, err := s.Resize(7, 12); err != nil {
			t.Fatalf("Resize: %v", err)
		}
		snap := s.Snapshot()
		return fmt.Sprintf("%v|%v|%v", snap.IDs, snap.Sizes, snap.Schema.Reducers)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same delta sequence produced different schemas:\n%s\n%s", a, b)
	}
}

func TestCloseStopsTheSession(t *testing.T) {
	s := newSession(t, stream.Config{Capacity: 10, Initial: []core.Size{2, 3}})
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, _, err := s.Add(1); !errors.Is(err, stream.ErrClosed) {
		t.Fatalf("Add after Close: %v", err)
	}
	if _, err := s.Rebuild(context.Background()); !errors.Is(err, stream.ErrClosed) {
		t.Fatalf("Rebuild after Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestAffinePlaneSessionSurvivesChurn opens a session whose initial plan is
// the affine plane — 80 equal inputs at 20 per reducer, planned at the full
// capacity: the 20 lines of AG(2,4) over bins of 5 — and drives it through a
// churn trace with an audit after every delta. An arrival joins the reducers
// of one live input, which meet every other input because its n+1 lines meet
// every other bin; planned at the full capacity, no line has slack, so
// arrivals also pack fresh reducers.
func TestAffinePlaneSessionSurvivesChurn(t *testing.T) {
	const m = 80
	initial := make([]core.Size, m)
	for i := range initial {
		initial[i] = 5
	}
	var planned []string
	s := newSession(t, stream.Config{
		Capacity: 100,
		Headroom: -1,
		Initial:  initial,
		Replan: func(ctx context.Context, sizes []core.Size, q core.Size) (*core.MappingSchema, error) {
			ms, err := solveReplan(ctx, sizes, q)
			if err == nil {
				planned = append(planned, ms.Algorithm)
			}
			return ms, err
		},
	})
	if len(planned) != 1 || planned[0] != "a2a/affine-plane" {
		t.Fatalf("initial plans %v, want one a2a/affine-plane", planned)
	}
	if st := s.Stats(); st.Reducers != 20 || st.ReplicationRate != 5 {
		t.Fatalf("initial schema: %d reducers, replication %v; want 20 and 5", st.Reducers, st.ReplicationRate)
	}
	audit(t, s)
	trace, err := workload.Churn(workload.ChurnSpec{
		Initial: m,
		Steps:   300,
		Sizes:   workload.SizeSpec{Dist: workload.Uniform, Min: 1, Max: 10},
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range trace {
		switch ev.Op {
		case workload.OpAdd:
			id, _, aerr := s.Add(ev.Size)
			if aerr == nil && id != ev.ID {
				t.Fatalf("step %d: Add returned id %d, trace says %d", i, id, ev.ID)
			}
			err = aerr
		case workload.OpRemove:
			_, err = s.Remove(ev.ID)
		case workload.OpResize:
			_, err = s.Resize(ev.ID, ev.Size)
		}
		if err != nil {
			t.Fatalf("step %d (%v %d): %v", i, ev.Op, ev.ID, err)
		}
		audit(t, s)
	}
}

// TestDeltasDoNotWrapNearMaxCapacity: at a capacity near the int64 limit a
// sum of two sizes wraps, and compared as a sum it let a pairwise-infeasible
// Add and Resize through and left a reducer with a negative load. Every check
// now compares against the capacity minus one side, and the live total is
// kept within math.MaxInt64.
func TestDeltasDoNotWrapNearMaxCapacity(t *testing.T) {
	const q = core.Size(9e18)
	s := newSession(t, stream.Config{Capacity: q, Initial: []core.Size{5e18, 3e18, 1e18}})
	if _, _, err := s.Add(5e18); !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("Add(5e18) beside 5e18 at q=9e18: err = %v, want ErrInfeasible", err)
	}
	if _, err := s.Resize(1, 4.5e18); !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("Resize(1, 4.5e18) beside 5e18 at q=9e18: err = %v, want ErrInfeasible", err)
	}
	// Pairwise feasible, but the live total would pass math.MaxInt64.
	if _, err := s.Resize(2, 3.5e18); !errors.Is(err, core.ErrTotalTooLarge) {
		t.Fatalf("Resize(2, 3.5e18) to a total of 11.5e18: err = %v, want ErrTotalTooLarge", err)
	}
	// Pairwise feasible and within the limit, but the one reducer holding
	// all three overflows: the grown copy is evicted and its pairs re-covered.
	if _, err := s.Resize(2, 1.2e18); err != nil {
		t.Fatalf("Resize(2, 1.2e18): %v", err)
	}
	for r, red := range s.Snapshot().Schema.Reducers {
		if red.Load < 0 || red.Load > q {
			t.Fatalf("reducer %d has load %d, outside [0, %d]", r, red.Load, q)
		}
	}
	audit(t, s)

	// Three inputs of 4e18 are pairwise feasible at q=9e18, but together
	// they pass math.MaxInt64: the live total once wrapped negative, and
	// DriftRatio pinned at 0. The third Add is refused, as is a Resize, an
	// initial instance or a restored state that would pass the limit.
	w := newSession(t, stream.Config{Capacity: q})
	for range 2 {
		if _, _, err := w.Add(4e18); err != nil {
			t.Fatalf("Add(4e18): %v", err)
		}
	}
	if _, _, err := w.Add(4e18); !errors.Is(err, core.ErrTotalTooLarge) {
		t.Fatalf("third Add(4e18): err = %v, want ErrTotalTooLarge", err)
	}
	small, _, err := w.Add(1e18)
	if err != nil {
		t.Fatalf("Add(1e18): %v", err)
	}
	if _, err := w.Resize(small, 4e18); !errors.Is(err, core.ErrTotalTooLarge) {
		t.Fatalf("Resize(1e18 -> 4e18) past the limit: err = %v, want ErrTotalTooLarge", err)
	}
	if st := w.Stats(); st.LiveBytes != 9e18 || st.DriftRatio < 0 {
		t.Fatalf("LiveBytes = %d, DriftRatio = %v; want 9e18 and not negative", st.LiveBytes, st.DriftRatio)
	}
	audit(t, w)
	if _, err := stream.NewSession(context.Background(), stream.Config{Capacity: q, Initial: []core.Size{4e18, 4e18, 4e18}, Replan: solveReplan}); !errors.Is(err, core.ErrTotalTooLarge) {
		t.Fatalf("NewSession with three initial 4e18: err = %v, want ErrTotalTooLarge", err)
	}
	st := w.State()
	st.Sizes[len(st.Sizes)-1] = 2e18
	if _, err := stream.RestoreSession(stream.Config{Replan: solveReplan}, st, nil); !errors.Is(err, core.ErrTotalTooLarge) {
		t.Fatalf("RestoreSession of sizes summing past the limit: err = %v, want ErrTotalTooLarge", err)
	}

	// At q=8.5e18 no reducer holds all three, so the loads sum past
	// math.MaxInt64: Communication saturates, and the replication rate is
	// the true ratio of the loads to the live bytes.
	c := newSession(t, stream.Config{Capacity: 8.5e18, Initial: []core.Size{4e18, 4e18, 1e18}})
	var loads float64
	for _, red := range c.Snapshot().Schema.Reducers {
		loads += float64(red.Load)
	}
	if cs := c.Stats(); loads <= math.MaxInt64 || cs.Communication != math.MaxInt64 || math.Abs(cs.ReplicationRate-loads/9e18) > 1e-9 {
		t.Fatalf("loads summing to %v: Communication = %d, ReplicationRate = %v; want %d and %v",
			loads, cs.Communication, cs.ReplicationRate, int64(math.MaxInt64), loads/9e18)
	}
}
