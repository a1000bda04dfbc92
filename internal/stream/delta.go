package stream

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/core"
)

// DeltaReport prices one applied delta.
type DeltaReport struct {
	// Op is "add", "remove", or "resize"; ID is the input involved.
	Op string  `json:"op"`
	ID InputID `json:"id"`
	// MovedBytes is every byte shipped by this delta: copies of the new or
	// resized input, existing inputs re-packed by repair, and compaction.
	MovedBytes core.Size `json:"moved_bytes"`
	// MovedExistingBytes is the subset of MovedBytes that re-shipped
	// already-placed inputs during mandatory repair; it feeds drift.
	MovedExistingBytes core.Size `json:"moved_existing_bytes"`
	// FreedBytes is bytes deleted from reducers (removals, shrinks,
	// evictions); it also feeds drift.
	FreedBytes core.Size `json:"freed_bytes"`
	// CompactedBytes is the opportunistic movement of reducer merges,
	// bounded by the migration budget.
	CompactedBytes core.Size `json:"compacted_bytes"`
	// JoinedReducers, NewReducers, MergedReducers, and Evictions count the
	// structural changes.
	JoinedReducers int `json:"joined_reducers"`
	NewReducers    int `json:"new_reducers"`
	MergedReducers int `json:"merged_reducers"`
	Evictions      int `json:"evictions"`
	// OverBudget reports that mandatory repair alone moved more than the
	// migration budget; the repair was still performed (correctness first).
	OverBudget bool `json:"over_budget"`
}

// Add inserts a new input of the given size and repairs coverage: the input
// is placed into existing reducer slack by a greedy set cover, and whatever
// pairs remain uncovered are packed with it into fresh reducers. It returns
// the new input's stable ID.
func (s *Session) Add(size core.Size) (InputID, DeltaReport, error) {
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, DeltaReport{}, ErrClosed
	}
	if size <= 0 {
		return 0, DeltaReport{}, fmt.Errorf("stream: %w (size %d)", core.ErrNonPositiveSize, size)
	}
	if size > s.cfg.Capacity {
		return 0, DeltaReport{}, fmt.Errorf("%w: input size %d exceeds capacity %d", core.ErrInfeasible, size, s.cfg.Capacity)
	}
	if len(s.ids) > 0 && size > s.cfg.Capacity-s.liveMaxLocked() {
		return 0, DeltaReport{}, fmt.Errorf("%w: size %d cannot share any reducer with the largest live input (size %d, capacity %d)",
			core.ErrInfeasible, size, s.liveMaxLocked(), s.cfg.Capacity)
	}
	if size > math.MaxInt64-s.total {
		return 0, DeltaReport{}, fmt.Errorf("stream: %w: size %d beside %d live bytes", core.ErrTotalTooLarge, size, s.total)
	}
	id := s.next
	s.next++
	in := &input{size: size}
	in.slots.Reset(len(s.reds))
	s.inputs[id] = in
	s.ids = append(s.ids, id) // IDs are monotonic, so append keeps the order
	s.total += size
	s.noteSizeLocked(size)

	rep := DeltaReport{Op: "add", ID: id}
	s.coverLocked(id, nil, &rep)
	s.counters.Adds++
	s.finishDeltaLocked(&rep)
	obsDeltaAdd.Inc()
	obsDeltaSeconds.ObserveSince(start)
	return id, rep, nil
}

// Remove deletes a live input. Coverage of the remaining pairs is untouched
// (dropping an input from a reducer cannot uncover anyone else), so the only
// repair is opportunistic: merging the shrunken reducers back together
// within the migration budget.
func (s *Session) Remove(id InputID) (DeltaReport, error) {
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return DeltaReport{}, ErrClosed
	}
	in, ok := s.inputs[id]
	if !ok {
		return DeltaReport{}, fmt.Errorf("%w: %d", ErrUnknownID, id)
	}
	w := in.size
	rep := DeltaReport{Op: "remove", ID: id}
	slots := in.slotList()
	touched := slots[:0]
	for _, slot := range slots {
		s.removeFromRedLocked(id, slot)
		rep.FreedBytes += w
		if s.reds[slot] != nil {
			touched = append(touched, slot)
		}
	}
	delete(s.inputs, id)
	s.total -= w
	s.noteShrinkLocked(w)
	if i := sort.SearchInts(s.ids, id); i < len(s.ids) && s.ids[i] == id {
		s.ids = append(s.ids[:i], s.ids[i+1:]...)
	}
	s.compactLocked(touched, &rep)
	s.counters.Removes++
	s.finishDeltaLocked(&rep)
	obsDeltaRemove.Inc()
	obsDeltaSeconds.ObserveSince(start)
	return rep, nil
}

// Resize changes a live input's size. A shrink only relaxes loads; a grow
// that overflows a reducer evicts the resized input from exactly the
// overflowing reducers and re-covers the pairs that eviction lost.
func (s *Session) Resize(id InputID, newSize core.Size) (DeltaReport, error) {
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return DeltaReport{}, ErrClosed
	}
	in, ok := s.inputs[id]
	if !ok {
		return DeltaReport{}, fmt.Errorf("%w: %d", ErrUnknownID, id)
	}
	old := in.size
	if newSize <= 0 {
		return DeltaReport{}, fmt.Errorf("stream: %w (size %d)", core.ErrNonPositiveSize, newSize)
	}
	if newSize > s.cfg.Capacity {
		return DeltaReport{}, fmt.Errorf("%w: new size %d exceeds capacity %d", core.ErrInfeasible, newSize, s.cfg.Capacity)
	}
	rep := DeltaReport{Op: "resize", ID: id}
	if newSize == old {
		s.counters.Resizes++
		obsDeltaResize.Inc()
		obsDeltaSeconds.ObserveSince(start)
		return rep, nil
	}
	if newSize > old {
		if other := s.liveMaxExcludingLocked(id); newSize > s.cfg.Capacity-other {
			return DeltaReport{}, fmt.Errorf("%w: new size %d cannot share any reducer with the largest other live input (size %d, capacity %d)",
				core.ErrInfeasible, newSize, other, s.cfg.Capacity)
		}
		if newSize-old > math.MaxInt64-s.total {
			return DeltaReport{}, fmt.Errorf("stream: %w: growing %d to %d beside %d live bytes", core.ErrTotalTooLarge, old, newSize, s.total)
		}
	}
	delta := newSize - old
	s.total += delta
	if delta > 0 {
		s.noteSizeLocked(newSize)
	} else {
		s.noteShrinkLocked(old)
	}
	slots := in.slotList()
	if delta < 0 {
		in.size = newSize
		for _, slot := range slots {
			s.reds[slot].load += delta
		}
		rep.FreedBytes += core.Size(len(slots)) * -delta
		s.compactLocked(slots, &rep)
	} else {
		// The copies that would overflow their reducer leave it at the old
		// size; the others grow in place.
		for _, slot := range slots {
			if r := s.reds[slot]; r.load > s.cfg.Capacity-delta {
				s.removeFromRedLocked(id, slot)
				rep.Evictions++
				rep.FreedBytes += newSize
			} else {
				r.load += delta
				rep.MovedBytes += delta // the grown copy ships its extra bytes
			}
		}
		in.size = newSize
		if rep.Evictions > 0 || in.slots.Count() == 0 {
			s.coverLocked(id, nil, &rep)
		}
	}
	s.counters.Resizes++
	s.finishDeltaLocked(&rep)
	obsDeltaResize.Inc()
	obsDeltaSeconds.ObserveSince(start)
	return rep, nil
}

// coverLocked restores the pair-coverage invariant for input x against every
// trusted live co-input. It exploits a structural fact: any covered input y
// shares a reducer with every live input, so the reducer set holding y is a
// ready-made cover of the whole live set. x joins y's reducers where slack
// allows; members of the rows without slack become the residue, which is
// packed with x into fresh reducers first-fit-decreasing. Inputs in
// untrusted are themselves awaiting repair and are skipped — their own
// repair, run with x already trusted, covers the (x, y) pair instead.
// Feasibility (x fits with every live input pairwise) must already hold.
func (s *Session) coverLocked(x InputID, untrusted map[InputID]struct{}, rep *DeltaReport) {
	in := s.inputs[x]
	w := in.size
	// The cover template: the next trusted input in rotation. Rotating the
	// template spreads arrivals over every reducer row, so slack freed by
	// removals anywhere keeps being usable instead of one row-set being
	// exhausted while the rest of the schema sits idle.
	y := InputID(-1)
	if n := len(s.ids); n > 1 {
		start := sort.SearchInts(s.ids, s.cursor)
		for k := 0; k < n; k++ {
			cand := s.ids[(start+k)%n]
			if cand == x {
				continue
			}
			if _, skip := untrusted[cand]; skip {
				continue
			}
			y = cand
			s.cursor = cand + 1
			break
		}
	}
	var residue []InputID
	if y >= 0 {
		slots := s.inputs[y].slotList()
		seen := make(map[InputID]struct{})
		for _, slot := range slots {
			r := s.reds[slot]
			if s.inRedLocked(x, slot) {
				continue
			}
			if r.load <= s.cfg.Capacity-w {
				s.addToRedLocked(x, slot)
				rep.MovedBytes += w
				rep.JoinedReducers++
				continue
			}
			for _, m := range r.members {
				if _, dup := seen[m]; !dup {
					seen[m] = struct{}{}
					residue = append(residue, m)
				}
			}
		}
		// Keep only residue members genuinely uncovered against x.
		kept := residue[:0]
		for _, m := range residue {
			if m == x {
				continue
			}
			if _, skip := untrusted[m]; skip {
				continue
			}
			if s.sharesReducerLocked(x, m) {
				continue
			}
			kept = append(kept, m)
		}
		residue = kept
	}
	if len(residue) > 0 {
		sort.Slice(residue, func(i, j int) bool {
			if wi, wj := s.inputs[residue[i]].size, s.inputs[residue[j]].size; wi != wj {
				return wi > wj
			}
			return residue[i] < residue[j]
		})
		qEff := s.planCapacity()
		for len(residue) > 0 {
			slot := s.newRedLocked()
			s.addToRedLocked(x, slot)
			rep.MovedBytes += w
			rep.NewReducers++
			kept := residue[:0]
			for _, m := range residue {
				// Pack fresh reducers only to the headroom-reduced capacity so
				// they keep slack for future arrivals — except that a pair
				// which only fits the full capacity must still be placed.
				load, wm := s.reds[slot].load, s.inputs[m].size
				if wm <= qEff-load ||
					(len(s.reds[slot].members) == 1 && wm <= s.cfg.Capacity-load) {
					s.addToRedLocked(m, slot)
					rep.MovedBytes += wm
					rep.MovedExistingBytes += wm
				} else {
					kept = append(kept, m)
				}
			}
			residue = kept
		}
	}
	// An input with no co-inputs (or none trusted yet) must still live
	// somewhere so later deltas and executions can find it.
	if in.slots.Count() == 0 {
		slot := s.newRedLocked()
		s.addToRedLocked(x, slot)
		rep.MovedBytes += w
		rep.NewReducers++
	}
}

// compactLocked opportunistically merges fragmented candidate reducers into
// other reducers — a merge covers a superset of the pairs, so it is always
// safe — spending at most the migration budget in shipped bytes. The search
// is deliberately cheap: only small candidates (load at most q/4), capped in
// number, each merged best-fit into the fullest reducer it fits by load
// alone (member overlap only ever lowers the real shipping cost).
func (s *Session) compactLocked(candidates []int, rep *DeltaReport) {
	budget := s.migrationBudget()
	if budget <= 0 {
		return
	}
	const maxMerges = 8
	qEff := s.planCapacity()
	frag := candidates[:0]
	for _, slot := range candidates {
		if r := s.reds[slot]; r != nil && r.load <= s.cfg.Capacity/4 && r.load <= budget {
			frag = append(frag, slot)
		}
	}
	sort.Slice(frag, func(i, j int) bool {
		a, b := s.reds[frag[i]], s.reds[frag[j]]
		if a.load != b.load {
			return a.load < b.load
		}
		return frag[i] < frag[j]
	})
	if len(frag) > maxMerges {
		frag = frag[:maxMerges]
	}
	for _, from := range frag {
		r := s.reds[from]
		if r == nil || r.load > budget {
			continue
		}
		bestTo := -1
		for to, t := range s.reds {
			if to == from || t == nil || t.load > qEff-r.load {
				continue
			}
			if bestTo < 0 || t.load > s.reds[bestTo].load ||
				(t.load == s.reds[bestTo].load && to < bestTo) {
				bestTo = to
			}
		}
		if bestTo < 0 {
			continue
		}
		var ship core.Size
		for _, m := range r.members {
			if !s.inRedLocked(m, bestTo) {
				ship += s.inputs[m].size
			}
		}
		if ship > budget {
			continue
		}
		for _, m := range r.members {
			s.inputs[m].slots.Remove(from)
			if !s.inRedLocked(m, bestTo) {
				s.addToRedLocked(m, bestTo)
			}
		}
		s.reds[from] = nil
		s.free = append(s.free, from)
		budget -= ship
		rep.MovedBytes += ship
		rep.CompactedBytes += ship
		rep.MergedReducers++
		if budget <= 0 {
			return
		}
	}
}

// finishDeltaLocked folds a delta's movement into the session-wide drift and
// counters, and journals the delta.
func (s *Session) finishDeltaLocked(rep *DeltaReport) {
	mandatory := rep.MovedBytes - rep.CompactedBytes
	rep.OverBudget = mandatory > s.migrationBudget()
	s.drift += rep.MovedExistingBytes + rep.FreedBytes
	s.counters.MovedBytes += rep.MovedBytes
	obsMovedBytes.Add(uint64(rep.MovedBytes))
	obsDriftBytes.Add(uint64(rep.MovedExistingBytes + rep.FreedBytes))
	s.version++
	s.journalDeltaLocked(rep)
}
