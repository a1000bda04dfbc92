package stream

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// RebuildReport prices one full rebuild: the replan itself plus the atomic
// swap that installed it.
type RebuildReport struct {
	// PlannedInputs is how many inputs the snapshot handed to the replanner;
	// RepairedInputs is how many needed local repair at swap time because
	// they were added, resized past a reducer, or evicted while the solve
	// ran.
	PlannedInputs  int `json:"planned_inputs"`
	RepairedInputs int `json:"repaired_inputs"`
	// ReducersBefore/After and MaxLoadBefore/After compare the schemas
	// around the swap.
	ReducersBefore int       `json:"reducers_before"`
	ReducersAfter  int       `json:"reducers_after"`
	MaxLoadBefore  core.Size `json:"max_load_before"`
	MaxLoadAfter   core.Size `json:"max_load_after"`
	// MigrationBytes is the swap's migration cost: new placement bytes not
	// already in place under the old schema, by greedy max-byte-overlap
	// matching of old and new reducers.
	MigrationBytes core.Size `json:"migration_bytes"`
	// Elapsed is the wall-clock time of replan plus swap.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// replan solves a snapshot at the headroom-reduced capacity so the new
// schema's reducers keep slack for future arrivals; an instance that is only
// feasible at the full capacity is retried there (correctness beats
// headroom).
func (s *Session) replan(ctx context.Context, sizes []core.Size) (planned *core.MappingSchema, err error) {
	// ReplanFunc is pluggable; a panic inside it must surface as an ordinary
	// replan error (counted in rebuildFailures by the caller), not tear down
	// the process or leave session state latched.
	defer func() {
		if r := recover(); r != nil {
			planned, err = nil, fmt.Errorf("stream: replan panicked: %v", r)
		}
	}()
	qEff := s.planCapacity()
	planned, err = s.cfg.Replan(ctx, sizes, qEff)
	if err != nil && qEff < s.cfg.Capacity && errors.Is(err, core.ErrInfeasible) {
		planned, err = s.cfg.Replan(ctx, sizes, s.cfg.Capacity)
	}
	return planned, err
}

// Rebuild runs a full replan of the live instance through the configured
// ReplanFunc on the caller's goroutine and atomically swaps the result in,
// reconciling deltas that raced the solve. It snapshots and swaps under the
// session lock and replans outside it. Only one rebuild runs at a time.
func (s *Session) Rebuild(ctx context.Context) (*RebuildReport, error) {
	start := time.Now()
	sp := obs.SpanFrom(ctx)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if s.rebuilding {
		s.mu.Unlock()
		return nil, ErrRebuildInFlight
	}
	s.rebuilding = true
	// Clear the flag via defer: if the rebuild panics (it should not — replan
	// panics are recovered into errors), the session must not report
	// ErrRebuildInFlight forever after.
	defer func() {
		s.mu.Lock()
		s.rebuilding = false
		s.mu.Unlock()
	}()
	snapIDs := append([]InputID(nil), s.ids...)
	snapSizes := make([]core.Size, len(snapIDs))
	for i, id := range snapIDs {
		snapSizes[i] = s.inputs[id].size
	}
	q := s.cfg.Capacity
	s.mu.Unlock()

	planned := &core.MappingSchema{Problem: core.ProblemA2A, Capacity: q}
	if len(snapIDs) > 0 {
		endReplan := sp.Stage("replan")
		var err error
		planned, err = s.replan(ctx, snapSizes)
		endReplan()
		if err != nil {
			s.mu.Lock()
			s.counters.RebuildFailures++
			s.mu.Unlock()
			obsRebuildFailures.Inc()
			return nil, fmt.Errorf("stream: replanning %d inputs: %w", len(snapIDs), err)
		}
	}

	endSwap := sp.Stage("swap")
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	rep := s.swapLocked(planned, snapIDs)
	endSwap()
	rep.Elapsed = time.Since(start)
	s.counters.Rebuilds++
	s.counters.LastMigration = rep.MigrationBytes
	s.counters.MovedBytes += rep.MigrationBytes
	// A swap's outcome depends on which deltas raced the solve, so it is not
	// replay-deterministic; journal the post-swap state in full.
	if s.cfg.Journal != nil {
		s.cfg.Journal.Snapshot(s.stateLocked())
		s.sinceSnap = 0
	}
	obsRebuilds.Inc()
	obsRebuildSeconds.ObserveDuration(rep.Elapsed)
	obsMigrationBytes.Observe(float64(rep.MigrationBytes))
	obsMovedBytes.Add(uint64(rep.MigrationBytes))
	return rep, nil
}

// swapLocked installs a planned schema over the snapshot IDs and reconciles
// it with the current live set: inputs removed since the snapshot are
// stripped, reducers overloaded by races (resizes during the solve) evict
// their largest members, and every input left without full coverage — added
// since, evicted, or absent from the plan — is repaired through the normal
// cover path. Drift resets to zero. The migration cost is measured against
// the pre-swap structure after all repairs, so it prices exactly the
// placement change the swap causes.
func (s *Session) swapLocked(planned *core.MappingSchema, snapIDs []InputID) *RebuildReport {
	rep := &RebuildReport{PlannedInputs: len(snapIDs)}
	before := s.reds
	copies := 0
	for _, r := range before {
		if r == nil {
			continue
		}
		rep.ReducersBefore++
		if r.load > rep.MaxLoadBefore {
			rep.MaxLoadBefore = r.load
		}
		copies += len(r.members)
	}

	// Every live input keeps its old slots for the migration pricing and
	// starts over with none.
	old := make(map[InputID]oldInput, len(s.ids))
	buf := make([]int, 0, copies)
	for _, id := range s.ids {
		in := s.inputs[id]
		n := len(buf)
		buf = in.slots.AppendTo(buf)
		old[id] = oldInput{in.size, buf[n:]}
		in.slots.Reset(len(planned.Reducers))
	}
	s.reds = make([]*red, 0, len(planned.Reducers))
	s.free = s.free[:0]
	for _, pr := range planned.Reducers {
		members := make([]InputID, 0, len(pr.Inputs))
		for _, dense := range pr.Inputs {
			if dense < 0 || dense >= len(snapIDs) {
				continue // a plan for a different instance shape; skip defensively
			}
			if e := snapIDs[dense]; s.inputs[e] != nil { // else removed while the solve ran
				members = append(members, e)
			}
		}
		if len(members) == 0 {
			continue
		}
		sort.Ints(members)
		r := &red{members: slices.Compact(members)}
		for _, e := range r.members {
			in := s.inputs[e]
			r.load += in.size
			in.slots.Add(len(s.reds))
		}
		s.reds = append(s.reds, r)
	}

	// Loads were recomputed from the current sizes, so a resize that raced
	// the solve can overload an imported reducer; evict largest-first.
	needRepair := make(map[InputID]struct{})
	for slot, r := range s.reds {
		if r == nil {
			continue
		}
		for r.load > s.cfg.Capacity {
			victim, vw := InputID(-1), core.Size(0)
			for _, m := range r.members {
				if w := s.inputs[m].size; w > vw {
					victim, vw = m, w
				}
			}
			s.removeFromRedLocked(victim, slot)
			needRepair[victim] = struct{}{}
			if s.reds[slot] == nil {
				break
			}
		}
	}
	for _, id := range s.ids {
		if s.inputs[id].slots.Count() == 0 {
			needRepair[id] = struct{}{}
		}
	}
	repair := make([]InputID, 0, len(needRepair))
	for id := range needRepair {
		repair = append(repair, id)
	}
	sort.Ints(repair)
	for _, id := range repair {
		// Inputs still awaiting repair are untrusted as cover templates and
		// skipped as residue; repairing them later, with this input already
		// trusted, covers the shared pair instead.
		var dr DeltaReport
		s.coverLocked(id, needRepair, &dr)
		delete(needRepair, id)
	}
	rep.RepairedInputs = len(repair)

	for _, r := range s.reds {
		if r == nil {
			continue
		}
		rep.ReducersAfter++
		if r.load > rep.MaxLoadAfter {
			rep.MaxLoadAfter = r.load
		}
	}
	rep.MigrationBytes = migrationCost(before, old, s.reds)
	s.drift = 0
	s.version++
	return rep
}

// oldInput is a live input as the migration pricing reads it: its size and
// the slots that held it before the swap, ascending.
type oldInput struct {
	size  core.Size
	slots []int
}

// migrationCost estimates the bytes that must move to turn the old reducer
// placement into the new one: each new reducer, largest load first (ties to
// the lower slot), is matched to the unused old reducer sharing the most
// bytes with it (ties to the lower old slot), and only its bytes not on that
// reducer count as moved. before is the old slot table and old holds every
// member of the new one. A new reducer's overlaps are summed over its
// members' old slots, so the work is the sum over inputs of old times new
// copies.
func migrationCost(before []*red, old map[InputID]oldInput, after []*red) core.Size {
	order := make([]int, 0, len(after))
	for slot, r := range after {
		if r != nil {
			order = append(order, slot)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		if la, lb := after[order[a]].load, after[order[b]].load; la != lb {
			return la > lb
		}
		return order[a] < order[b]
	})
	// used marks the old reducers already matched; a free slot never is.
	used := make([]bool, len(before))
	for slot, r := range before {
		used[slot] = r == nil
	}
	overlap := make([]core.Size, len(before))
	var touched []int // the old slots with a nonzero overlap
	lowest := 0       // every old slot below it is used
	var moved core.Size
	for _, slot := range order {
		r := after[slot]
		for _, m := range r.members {
			in := old[m]
			for _, o := range in.slots {
				if overlap[o] == 0 {
					touched = append(touched, o)
				}
				overlap[o] += in.size
			}
		}
		best := -1
		for _, o := range touched {
			if !used[o] && (best < 0 || overlap[o] > overlap[best] || overlap[o] == overlap[best] && o < best) {
				best = o
			}
		}
		if best >= 0 {
			moved += r.load - overlap[best]
		} else {
			// No unused old reducer shares a byte with this one: it takes
			// the lowest unused old reducer, if any, and moves whole.
			for lowest < len(used) && used[lowest] {
				lowest++
			}
			if lowest < len(used) {
				best = lowest
			}
			moved += r.load
		}
		if best >= 0 {
			used[best] = true
		}
		for _, o := range touched {
			overlap[o] = 0
		}
		touched = touched[:0]
	}
	return moved
}
