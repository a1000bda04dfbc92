package stream

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
)

// DeltaRecord is the journaled form of one applied delta: exactly what a
// recovery needs to re-apply it deterministically. Add records carry the ID
// the session assigned so replay can verify it re-derives the same one.
type DeltaRecord struct {
	// Op is "add", "remove", or "resize".
	Op string `json:"op"`
	// ID is the input the delta addressed (for "add": the assigned ID).
	ID InputID `json:"id"`
	// Size is the input size for "add" and the new size for "resize"; zero
	// (and omitted) for "remove".
	Size core.Size `json:"size,omitempty"`
}

// Journal receives the session's durability stream: one Delta per applied
// delta and one Snapshot per full-state capture (session creation, rebuild
// swaps — whose outcome depends on the deltas that raced the solve — and every
// Config.SnapshotEvery deltas). Both are called with the session lock held,
// so implementations must be fast, must not block on the session, and must
// not call back into it.
type Journal interface {
	Delta(rec DeltaRecord)
	Snapshot(st *State)
}

// StateReducer is one reducer slot of a serialized session state.
type StateReducer struct {
	// Members are the slot's input IDs, ascending. An empty member list marks
	// a free (nil) slot; free-slot order lives in State.Free.
	Members []InputID `json:"members,omitempty"`
}

// StateCounters mirrors the session's cumulative statistics. Counters are
// excluded from the fingerprint: a no-op resize bumps Resizes without being
// journaled, so they are best-effort across recovery, not replay-exact.
type StateCounters struct {
	Adds            uint64    `json:"adds,omitempty"`
	Removes         uint64    `json:"removes,omitempty"`
	Resizes         uint64    `json:"resizes,omitempty"`
	Rebuilds        uint64    `json:"rebuilds,omitempty"`
	RebuildFailures uint64    `json:"rebuild_failures,omitempty"`
	MovedBytes      core.Size `json:"moved_bytes,omitempty"`
	LastMigration   core.Size `json:"last_migration,omitempty"`
}

// State is the full serializable state of a session: everything delta replay
// depends on, including the parts invisible in a Snapshot — the ID cursor,
// the free-slot stack order, and the maintenance tuning. Applying the same
// DeltaRecords to the same State always reproduces the same structure, which
// is the property the WAL's snapshot-plus-replay recovery rests on.
type State struct {
	// Capacity, MigrationBudget, Headroom, and RebuildThreshold are the
	// session's Config values (raw, zero-means-default); replay with
	// different tuning would diverge, so they travel with the state.
	Capacity         core.Size `json:"capacity"`
	MigrationBudget  core.Size `json:"migration_budget,omitempty"`
	Headroom         core.Size `json:"headroom,omitempty"`
	RebuildThreshold float64   `json:"rebuild_threshold,omitempty"`
	// Next is the next ID Add will hand out; Cursor rotates cover templates.
	Next   InputID `json:"next"`
	Cursor InputID `json:"cursor"`
	// Drift and Version are the divergence meter and the change counter.
	Drift   core.Size `json:"drift"`
	Version uint64    `json:"version"`
	// IDs are the live input IDs ascending; Sizes aligns with IDs.
	IDs   []InputID   `json:"ids"`
	Sizes []core.Size `json:"sizes"`
	// Reducers are the slots in index order, including free ones; Free is
	// the free-slot stack, bottom first, so slot recycling replays in the
	// same LIFO order.
	Reducers []StateReducer `json:"reducers"`
	Free     []int          `json:"free,omitempty"`
	Counters StateCounters  `json:"counters"`
}

// Fingerprint hashes everything replay-deterministic about the state:
// capacity and tuning, cursorry bookkeeping, live IDs and sizes, the exact
// slot structure, and the free stack. Counters are excluded (see
// StateCounters). Two sessions with equal fingerprints apply future deltas
// identically.
func (st *State) Fingerprint() uint64 {
	h := core.FingerprintSizes(st.Sizes)
	h = core.MixFingerprint(h,
		uint64(st.Capacity), uint64(st.MigrationBudget), uint64(st.Headroom),
		uint64(int64(st.RebuildThreshold*1e9)),
		uint64(st.Next), uint64(st.Cursor), uint64(st.Drift), st.Version,
		uint64(len(st.IDs)))
	for _, id := range st.IDs {
		h = core.MixFingerprint(h, uint64(id))
	}
	h = core.MixFingerprint(h, uint64(len(st.Reducers)))
	for _, r := range st.Reducers {
		h = core.MixFingerprint(h, uint64(len(r.Members)))
		for _, m := range r.Members {
			h = core.MixFingerprint(h, uint64(m))
		}
	}
	h = core.MixFingerprint(h, uint64(len(st.Free)))
	for _, slot := range st.Free {
		h = core.MixFingerprint(h, uint64(slot))
	}
	return h
}

// State captures the full serializable session state.
func (s *Session) State() *State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stateLocked()
}

func (s *Session) stateLocked() *State {
	st := &State{
		Capacity:         s.cfg.Capacity,
		MigrationBudget:  s.cfg.MigrationBudget,
		Headroom:         s.cfg.Headroom,
		RebuildThreshold: s.cfg.RebuildThreshold,
		Next:             s.next,
		Cursor:           s.cursor,
		Drift:            s.drift,
		Version:          s.version,
		IDs:              append([]InputID(nil), s.ids...),
		Sizes:            make([]core.Size, len(s.ids)),
		Reducers:         make([]StateReducer, len(s.reds)),
		Free:             append([]int(nil), s.free...),
		Counters: StateCounters{
			Adds:            s.st.adds,
			Removes:         s.st.removes,
			Resizes:         s.st.resizes,
			Rebuilds:        s.st.rebuilds,
			RebuildFailures: s.st.rebuildFailures,
			MovedBytes:      s.st.movedBytes,
			LastMigration:   s.st.lastMigration,
		},
	}
	for i, id := range st.IDs {
		st.Sizes[i] = s.sizes[id]
	}
	for slot, r := range s.reds {
		if r == nil {
			continue
		}
		st.Reducers[slot].Members = append([]InputID(nil), r.members...)
	}
	return st
}

// WriteSnapshot journals a full-state snapshot immediately (used by WAL
// checkpoints). It is a no-op without a configured journal.
func (s *Session) WriteSnapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.cfg.Journal != nil {
		s.cfg.Journal.Snapshot(s.stateLocked())
		s.sinceSnap = 0
	}
	return nil
}

// snapshotEvery resolves the periodic-snapshot cadence.
func (s *Session) snapshotEvery() int {
	switch {
	case s.cfg.SnapshotEvery > 0:
		return s.cfg.SnapshotEvery
	case s.cfg.SnapshotEvery < 0:
		return 0 // disabled
	default:
		return DefaultSnapshotEvery
	}
}

// journalDeltaLocked streams one applied delta to the journal and rolls a
// fresh snapshot once enough deltas accumulated since the last one, so
// recovery replay stays bounded.
func (s *Session) journalDeltaLocked(rep *DeltaReport) {
	if s.cfg.Journal == nil {
		return
	}
	rec := DeltaRecord{Op: rep.Op, ID: rep.ID}
	if rep.Op == "add" || rep.Op == "resize" {
		rec.Size = s.sizes[rep.ID]
	}
	s.cfg.Journal.Delta(rec)
	s.sinceSnap++
	if every := s.snapshotEvery(); every > 0 && s.sinceSnap >= every {
		s.cfg.Journal.Snapshot(s.stateLocked())
		s.sinceSnap = 0
	}
}

// validateState rejects states that cannot have come from a session dump.
func validateState(st *State) error {
	if st == nil {
		return errors.New("stream: nil state")
	}
	if st.Capacity <= 0 {
		return fmt.Errorf("stream: state capacity must be positive, got %d", st.Capacity)
	}
	if len(st.IDs) != len(st.Sizes) {
		return fmt.Errorf("stream: state has %d ids but %d sizes", len(st.IDs), len(st.Sizes))
	}
	for i, id := range st.IDs {
		if i > 0 && id <= st.IDs[i-1] {
			return fmt.Errorf("stream: state ids not strictly ascending at index %d", i)
		}
		if id >= st.Next {
			return fmt.Errorf("stream: state id %d not below next id %d", id, st.Next)
		}
		if st.Sizes[i] <= 0 {
			return fmt.Errorf("stream: state id %d: %w (size %d)", id, core.ErrNonPositiveSize, st.Sizes[i])
		}
	}
	free := make(map[int]struct{}, len(st.Free))
	for _, slot := range st.Free {
		if slot < 0 || slot >= len(st.Reducers) {
			return fmt.Errorf("stream: free slot %d out of range", slot)
		}
		if _, dup := free[slot]; dup {
			return fmt.Errorf("stream: free slot %d listed twice", slot)
		}
		free[slot] = struct{}{}
	}
	live := make(map[InputID]struct{}, len(st.IDs))
	for _, id := range st.IDs {
		live[id] = struct{}{}
	}
	for slot, r := range st.Reducers {
		_, isFree := free[slot]
		if (len(r.Members) == 0) != isFree {
			return fmt.Errorf("stream: slot %d: empty-membership and free-list disagree", slot)
		}
		for i, m := range r.Members {
			if i > 0 && m <= r.Members[i-1] {
				return fmt.Errorf("stream: slot %d members not strictly ascending", slot)
			}
			if _, ok := live[m]; !ok {
				return fmt.Errorf("stream: slot %d member %d is not a live input", slot, m)
			}
		}
	}
	return nil
}

// RestoreSession rebuilds a session from a serialized State and replays the
// deltas journaled after it, in order. The state carries its own capacity and
// tuning; cfg contributes the behavioral wiring — Replan (required),
// AutoRebuild, Journal, and SnapshotEvery — which is attached only after
// replay so recovery itself is never re-journaled. Replay re-derives each
// add's ID and fails on divergence, so a corrupt or misordered log surfaces
// as an error instead of a silently different schema.
func RestoreSession(cfg Config, st *State, deltas []DeltaRecord) (*Session, error) {
	if cfg.Replan == nil {
		return nil, errors.New("stream: Config.Replan is required")
	}
	if err := validateState(st); err != nil {
		return nil, err
	}
	s := &Session{
		cfg: Config{
			Capacity:         st.Capacity,
			MigrationBudget:  st.MigrationBudget,
			Headroom:         st.Headroom,
			RebuildThreshold: st.RebuildThreshold,
			Replan:           cfg.Replan,
			SnapshotEvery:    cfg.SnapshotEvery,
			// AutoRebuild and Journal attach after replay.
		},
		sizes:      make(map[InputID]core.Size, len(st.IDs)),
		assign:     make(map[InputID][]int, len(st.IDs)),
		assignBits: make(map[InputID]*core.CoverSet, len(st.IDs)),
		next:       st.Next,
		cursor:     st.Cursor,
		drift:      st.Drift,
		version:    st.Version,
		maxDirty:   true,
		st: counters{
			adds:            st.Counters.Adds,
			removes:         st.Counters.Removes,
			resizes:         st.Counters.Resizes,
			rebuilds:        st.Counters.Rebuilds,
			rebuildFailures: st.Counters.RebuildFailures,
			movedBytes:      st.Counters.MovedBytes,
			lastMigration:   st.Counters.LastMigration,
		},
	}
	s.baseCtx, s.cancel = context.WithCancelCause(context.Background())
	s.ids = append([]InputID(nil), st.IDs...)
	for i, id := range st.IDs {
		s.sizes[id] = st.Sizes[i]
		s.total += st.Sizes[i]
		s.assign[id] = nil
		s.assignBits[id] = core.NewCoverSet(len(st.Reducers))
	}
	s.reds = make([]*red, len(st.Reducers))
	for slot, sr := range st.Reducers {
		if len(sr.Members) == 0 {
			continue
		}
		r := &red{members: append([]InputID(nil), sr.Members...)}
		for _, m := range sr.Members {
			r.load += s.sizes[m]
			s.assign[m] = append(s.assign[m], slot)
			s.assignBits[m].Grow(slot + 1)
			s.assignBits[m].Add(slot)
		}
		s.reds[slot] = r
	}
	for _, slots := range s.assign {
		sort.Ints(slots)
	}
	s.free = append([]int(nil), st.Free...)

	// Paranoia: the rebuilt structure must fingerprint identically to the
	// state it came from, or replay below would diverge from the original.
	if got := s.stateLocked().Fingerprint(); got != st.Fingerprint() {
		s.cancel(errSessionAborted)
		return nil, fmt.Errorf("stream: restored state fingerprint %#x != source %#x", got, st.Fingerprint())
	}
	// The session is structurally live from here: a replay failure exits
	// through Close, which balances this gauge.
	obsSessions.Inc()

	for i, d := range deltas {
		var err error
		switch d.Op {
		case "add":
			var id InputID
			id, _, err = s.Add(d.Size)
			if err == nil && id != d.ID {
				err = fmt.Errorf("replayed add produced id %d, journal says %d", id, d.ID)
			}
		case "remove":
			_, err = s.Remove(d.ID)
		case "resize":
			_, err = s.Resize(d.ID, d.Size)
		default:
			err = fmt.Errorf("unknown op %q", d.Op)
		}
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("stream: replaying delta %d/%d (%s %d): %w", i+1, len(deltas), d.Op, d.ID, err)
		}
	}

	s.mu.Lock()
	s.cfg.AutoRebuild = cfg.AutoRebuild
	s.cfg.Journal = cfg.Journal
	s.mu.Unlock()
	return s, nil
}
