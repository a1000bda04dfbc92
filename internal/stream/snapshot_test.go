package stream

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/a2a"
	"repro/internal/core"
	"repro/internal/workload"
)

// refSnapshot is Snapshot as it was built before it reused the State it
// fingerprints: the IDs and sizes copied, the fingerprint taken of a second
// full copy of the session, and every member list relabelled into a fresh
// slice.
func refSnapshot(s *Session) *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := &Snapshot{
		Schema:      &core.MappingSchema{Problem: core.ProblemA2A, Capacity: s.cfg.Capacity, Algorithm: "stream/incremental"},
		IDs:         append([]InputID(nil), s.ids...),
		Sizes:       make([]core.Size, len(s.ids)),
		Stats:       s.statsLocked(),
		Fingerprint: s.stateLocked().Fingerprint(),
	}
	dense := make(map[InputID]int, len(s.ids))
	for i, id := range snap.IDs {
		dense[id] = i
		snap.Sizes[i] = s.inputs[id].size
	}
	for _, r := range s.reds {
		if r == nil {
			continue
		}
		inputs := make([]int, len(r.members))
		for i, m := range r.members {
			inputs[i] = dense[m]
		}
		snap.Schema.Reducers = append(snap.Schema.Reducers, core.Reducer{Inputs: inputs, Load: r.load})
	}
	return snap
}

// TestSnapshotMatchesReference holds Snapshot to refSnapshot after every step
// of a churn trace with rebuilds, so freed slots, swaps and resized loads
// all show; and scribbling over a snapshot leaves the session as it was.
func TestSnapshotMatchesReference(t *testing.T) {
	replan := func(_ context.Context, sizes []core.Size, q core.Size) (*core.MappingSchema, error) {
		set, err := core.NewInputSet(sizes)
		if err != nil {
			return nil, err
		}
		return a2a.Solve(set, q)
	}
	ctx := context.Background()
	s, err := NewSession(ctx, Config{Capacity: 64, Initial: []core.Size{5, 3, 7, 2, 6, 4, 1, 8}, RebuildThreshold: 0.5, Replan: replan})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	events, err := workload.Churn(workload.ChurnSpec{
		Initial: 8, Steps: 600,
		AddWeight: 3, RemoveWeight: 3, ResizeWeight: 2,
		Sizes: workload.SizeSpec{Dist: workload.Uniform, Min: 1, Max: 8},
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	rebuilds := 0
	for step, ev := range events {
		switch ev.Op {
		case workload.OpAdd:
			_, _, err = s.Add(ev.Size)
		case workload.OpRemove:
			_, err = s.Remove(ev.ID)
		case workload.OpResize:
			_, err = s.Resize(ev.ID, ev.Size)
		}
		if err != nil {
			t.Fatalf("step %d (%s %d): %v", step, ev.Op, ev.ID, err)
		}
		if s.NeedsRebuild() {
			if _, err := s.Rebuild(ctx); err != nil {
				t.Fatalf("step %d: rebuild: %v", step, err)
			}
			rebuilds++
		}
		got, want := s.Snapshot(), refSnapshot(s)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: Snapshot differs from the reference construction", step)
		}
		before := s.State().Fingerprint()
		for i := range got.IDs {
			got.IDs[i], got.Sizes[i] = -1, -1
		}
		for _, r := range got.Schema.Reducers {
			for i := range r.Inputs {
				r.Inputs[i] = -1
			}
		}
		if s.State().Fingerprint() != before {
			t.Fatalf("step %d: writing to a snapshot changed the session", step)
		}
	}
	if rebuilds == 0 {
		t.Fatal("no rebuild ran: the trace exercised no swap")
	}
}
