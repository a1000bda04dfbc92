package stream

import (
	"context"
	"errors"
	"fmt"
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
		snapSizes[i] = s.sizes[id]
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
			s.st.rebuildFailures++
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
	s.st.rebuilds++
	s.st.lastMigration = rep.MigrationBytes
	s.st.movedBytes += rep.MigrationBytes
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
	oldReds := make([]*red, 0, len(s.reds))
	for _, r := range s.reds {
		if r == nil {
			continue
		}
		oldReds = append(oldReds, r)
		rep.ReducersBefore++
		if r.load > rep.MaxLoadBefore {
			rep.MaxLoadBefore = r.load
		}
	}

	s.reds = s.reds[:0]
	s.free = s.free[:0]
	for _, id := range s.ids {
		s.assign[id] = nil
		if bits := s.assignBits[id]; bits != nil {
			bits.Clear()
		} else {
			s.assignBits[id] = core.NewCoverSet(0)
		}
	}
	for _, pr := range planned.Reducers {
		ext := make([]InputID, 0, len(pr.Inputs))
		for _, dense := range pr.Inputs {
			if dense < 0 || dense >= len(snapIDs) {
				continue // a plan for a different instance shape; skip defensively
			}
			e := snapIDs[dense]
			if _, live := s.sizes[e]; !live {
				continue // removed while the solve ran
			}
			ext = append(ext, e)
		}
		if len(ext) == 0 {
			continue
		}
		sort.Ints(ext)
		slot := s.newRedLocked()
		for i, e := range ext {
			if i > 0 && e == ext[i-1] {
				continue
			}
			s.addToRedLocked(e, slot)
		}
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
				if w := s.sizes[m]; w > vw {
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
		if len(s.assign[id]) == 0 {
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
	rep.MigrationBytes = migrationCost(oldReds, s.reds, func(id InputID) core.Size { return s.sizes[id] })
	s.drift = 0
	s.version++
	return rep
}

// migrationCost estimates the bytes that must move to turn the old reducer
// placement into the new one: each new reducer is greedily matched (largest
// first) to the unused old reducer sharing the most bytes with it, and only
// its unmatched bytes count as moved. Members are remapped onto a dense
// universe (the union of all member IDs) so every reducer becomes one
// CoverSet and overlap pricing is a word-parallel AND walk instead of a
// merge over sorted external-ID slices.
func migrationCost(before, after []*red, size func(InputID) core.Size) core.Size {
	// Dense remap over the union of member IDs of both placements: register
	// every ID first (the universe size must be final before any set is
	// built), then build one bitset per reducer.
	dense := make(map[InputID]int)
	var denseSize []core.Size
	register := func(reds []*red) {
		for _, r := range reds {
			if r == nil {
				continue
			}
			for _, m := range r.members {
				if _, ok := dense[m]; !ok {
					dense[m] = len(denseSize)
					denseSize = append(denseSize, size(m))
				}
			}
		}
	}
	register(before)
	register(after)
	build := func(reds []*red) []*core.CoverSet {
		sets := make([]*core.CoverSet, len(reds))
		for i, r := range reds {
			if r == nil {
				continue
			}
			sets[i] = core.GetCoverSet(len(denseSize))
			for _, m := range r.members {
				sets[i].Add(dense[m])
			}
		}
		return sets
	}
	beforeBits := build(before)
	afterBits := build(after)
	release := func(sets []*core.CoverSet) {
		for _, s := range sets {
			if s != nil {
				core.PutCoverSet(s)
			}
		}
	}
	defer release(beforeBits)
	defer release(afterBits)

	newIdx := make([]int, 0, len(after))
	for i, r := range after {
		if r != nil {
			newIdx = append(newIdx, i)
		}
	}
	sort.Slice(newIdx, func(a, b int) bool {
		if after[newIdx[a]].load != after[newIdx[b]].load {
			return after[newIdx[a]].load > after[newIdx[b]].load
		}
		return newIdx[a] < newIdx[b]
	})
	used := make([]bool, len(before))
	var moved core.Size
	for _, ni := range newIdx {
		nr := after[ni]
		nb := afterBits[ni]
		bestOld, bestOverlap := -1, core.Size(-1)
		for oi, or := range before {
			if or == nil || used[oi] {
				continue
			}
			var overlap core.Size
			nb.ForEachAnd(beforeBits[oi], func(d int) { overlap += denseSize[d] })
			if overlap > bestOverlap {
				bestOld, bestOverlap = oi, overlap
			}
		}
		if bestOld >= 0 {
			used[bestOld] = true
			moved += nr.load - bestOverlap
		} else {
			moved += nr.load
		}
	}
	return moved
}
