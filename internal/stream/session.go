package stream

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/core"
)

// InputID identifies one live input of a session. IDs are handed out by Add
// (and by NewSession for the initial inputs, as 0..m-1) and stay stable
// across repairs and rebuilds; they are never reused after Remove.
type InputID = int

// ReplanFunc solves the offline problem for a full snapshot of the live
// sizes: the i-th size is the input with dense ID i, and the returned schema
// must be a valid A2A mapping schema for those sizes under capacity q. The
// session calls it outside its lock, so it may be arbitrarily slow.
type ReplanFunc func(ctx context.Context, sizes []core.Size, q core.Size) (*core.MappingSchema, error)

const (
	// DefaultRebuildThreshold is the drift ratio (drift bytes over live
	// bytes) past which a rebuild is requested.
	DefaultRebuildThreshold = 1.0
	// snapshotEvery is how many journaled deltas may accumulate before the
	// session writes a fresh full-state snapshot to its journal, bounding how
	// much recovery ever has to replay.
	snapshotEvery = 1024
)

// Config configures NewSession.
type Config struct {
	// Capacity is the reducer capacity q. Required.
	Capacity core.Size
	// MigrationBudget caps the opportunistic movement (reducer-merge
	// compaction) of one delta, in bytes. 0 means 2*Capacity; negative
	// disables compaction. Mandatory repair ignores the budget and flags
	// OverBudget instead (see the package comment).
	MigrationBudget core.Size
	// Headroom is the slack reserved in every reducer the session itself
	// builds or replans: plans are solved at Capacity-Headroom so arrivals
	// up to this size can join existing reducers instead of cascading into
	// fresh ones. Correctness is always enforced at the full Capacity.
	// 0 means Capacity/8; negative reserves nothing.
	Headroom core.Size
	// RebuildThreshold is the drift ratio past which NeedsRebuild reports
	// true. 0 means DefaultRebuildThreshold; negative disables rebuild
	// requests entirely.
	RebuildThreshold float64
	// Replan solves a full snapshot during rebuilds. Required.
	Replan ReplanFunc
	// Initial seeds the session: NewSession plans these sizes through Replan
	// once and imports the result, so the session starts from a portfolio-
	// quality schema instead of m incremental repairs.
	Initial []core.Size
	// Journal, when non-nil, receives the session's durability stream: every
	// applied delta plus full-state snapshots at creation, after rebuild
	// swaps, and every 1,024 deltas. Calls happen under the session lock; see
	// Journal's contract.
	Journal Journal
}

// Session errors.
var (
	// ErrClosed is returned by every method after Close.
	ErrClosed = errors.New("stream: session is closed")
	// ErrUnknownID is returned for deltas addressing an input that is not
	// live.
	ErrUnknownID = errors.New("stream: unknown input id")
	// ErrRebuildInFlight is returned by Rebuild while another rebuild is
	// still running.
	ErrRebuildInFlight = errors.New("stream: a rebuild is already in flight")
)

// red is one reducer of the live structure. Members are kept as a sorted
// slice: at the typical tens-of-members scale, binary search plus memmove
// beats hashing, and a snapshot or state reads them out in order.
type red struct {
	members []InputID // ascending
	load    core.Size
}

// input is one live input: its size and the slots of the reducers holding
// it, as a bitset, so membership ("is x already in this reducer?") and
// row-set coverage ("do x and m share a reducer?") are O(1) and
// word-parallel.
type input struct {
	size  core.Size
	slots core.CoverSet
}

// slotList returns the slots holding the input, ascending, in a new slice.
func (in *input) slotList() []int {
	return in.slots.AppendTo(make([]int, 0, in.slots.Count()))
}

// Session owns a live mapping schema and applies deltas to it. Create with
// NewSession; Sessions are safe for concurrent use, and start no goroutine.
type Session struct {
	cfg Config

	mu sync.Mutex
	// inputs holds one record per live input; ids lists their IDs ascending.
	inputs map[InputID]*input
	ids    []InputID
	total  core.Size
	next   InputID
	// reds holds the reducers; nil entries are free slots recycled via free.
	reds []*red
	free []int

	// cursor rotates cover templates across the live inputs so arrivals
	// spread over every reducer row instead of piling onto one.
	cursor InputID
	// maxLive caches the largest live size for O(1) pair-feasibility
	// checks; maxDirty forces a rescan after the max may have shrunk.
	maxLive  core.Size
	maxDirty bool

	drift      core.Size
	version    uint64
	rebuilding bool
	closed     bool
	// counters are the cumulative statistics, kept in the form a State
	// carries them.
	counters StateCounters
	// sinceSnap counts journaled deltas since the last journal snapshot.
	sinceSnap int
}

// NewSession builds a session for capacity cfg.Capacity. When cfg.Initial is
// non-empty the initial instance is planned through cfg.Replan under ctx and
// imported, so an infeasible or failing initial plan surfaces here.
func NewSession(ctx context.Context, cfg Config) (*Session, error) {
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("stream: capacity must be positive, got %d", cfg.Capacity)
	}
	if cfg.Replan == nil {
		return nil, errors.New("stream: Config.Replan is required")
	}
	s := &Session{cfg: cfg, inputs: make(map[InputID]*input)}
	if len(cfg.Initial) == 0 {
		s.journalInitialSnapshot()
		obsSessions.Inc()
		return s, nil
	}
	var top1, top2, total core.Size
	for i, w := range cfg.Initial {
		if w <= 0 {
			return nil, fmt.Errorf("stream: initial input %d: %w (size %d)", i, core.ErrNonPositiveSize, w)
		}
		if w > math.MaxInt64-total {
			return nil, fmt.Errorf("stream: initial input %d: %w", i, core.ErrTotalTooLarge)
		}
		total += w
		if w > top1 {
			top1, top2 = w, top1
		} else if w > top2 {
			top2 = w
		}
	}
	if top1 > cfg.Capacity || (len(cfg.Initial) > 1 && top2 > cfg.Capacity-top1) {
		return nil, fmt.Errorf("%w: initial sizes do not fit capacity %d pairwise", core.ErrInfeasible, cfg.Capacity)
	}
	planned, err := s.replan(ctx, cfg.Initial)
	if err != nil {
		return nil, fmt.Errorf("stream: planning initial instance: %w", err)
	}
	snapIDs := make([]InputID, len(cfg.Initial))
	for i, w := range cfg.Initial {
		snapIDs[i] = i
		s.inputs[i] = &input{size: w}
		s.ids = append(s.ids, i)
	}
	s.total = total
	s.next = len(cfg.Initial)
	s.maxLive = top1
	s.swapLocked(planned, snapIDs) // no concurrency yet, lock not needed
	s.journalInitialSnapshot()
	obsSessions.Inc()
	return s, nil
}

// journalInitialSnapshot records the session's birth state so recovery has a
// base to replay onto. NewSession has no concurrency yet, so no lock.
func (s *Session) journalInitialSnapshot() {
	if s.cfg.Journal != nil {
		s.cfg.Journal.Snapshot(s.stateLocked())
	}
}

// Close marks the session closed: every later method returns ErrClosed, and
// a Rebuild in flight discards its solve instead of swapping it in.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		obsSessions.Dec()
	}
	return nil
}

// Len returns the number of live inputs.
func (s *Session) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ids)
}

// Stats is a point-in-time census of a session.
type Stats struct {
	// Inputs and LiveBytes describe the live instance.
	Inputs    int       `json:"inputs"`
	LiveBytes core.Size `json:"live_bytes"`
	// Reducers, MaxLoad, Communication, and ReplicationRate price the
	// current schema exactly as core.Cost does.
	Reducers        int       `json:"reducers"`
	MaxLoad         core.Size `json:"max_load"`
	Communication   core.Size `json:"communication"`
	ReplicationRate float64   `json:"replication_rate"`
	// Adds, Removes, and Resizes count applied deltas; Rebuilds and
	// RebuildFailures count full replans.
	Adds            uint64 `json:"adds"`
	Removes         uint64 `json:"removes"`
	Resizes         uint64 `json:"resizes"`
	Rebuilds        uint64 `json:"rebuilds"`
	RebuildFailures uint64 `json:"rebuild_failures"`
	// MovedBytes is the cumulative bytes shipped by repairs, compaction, and
	// rebuild swaps.
	MovedBytes core.Size `json:"moved_bytes"`
	// DriftBytes and DriftRatio measure divergence from a fresh plan since
	// the last rebuild; NeedsRebuild is DriftRatio against the threshold.
	DriftBytes   core.Size `json:"drift_bytes"`
	DriftRatio   float64   `json:"drift_ratio"`
	NeedsRebuild bool      `json:"needs_rebuild"`
	// LastRebuildMigration is the migration cost of the most recent swap.
	LastRebuildMigration core.Size `json:"last_rebuild_migration"`
	// RebuildInFlight reports whether a rebuild is currently running.
	RebuildInFlight bool `json:"rebuild_in_flight"`
	// Version increments on every delta and every swap.
	Version uint64 `json:"version"`
}

// Stats snapshots the session's counters.
func (s *Session) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statsLocked()
}

func (s *Session) statsLocked() Stats {
	st := Stats{
		Inputs:               len(s.ids),
		LiveBytes:            s.total,
		Adds:                 s.counters.Adds,
		Removes:              s.counters.Removes,
		Resizes:              s.counters.Resizes,
		Rebuilds:             s.counters.Rebuilds,
		RebuildFailures:      s.counters.RebuildFailures,
		MovedBytes:           s.counters.MovedBytes,
		DriftBytes:           s.drift,
		DriftRatio:           s.driftRatioLocked(),
		NeedsRebuild:         s.needsRebuildLocked(),
		LastRebuildMigration: s.counters.LastMigration,
		RebuildInFlight:      s.rebuilding,
		Version:              s.version,
	}
	var sum float64
	for _, r := range s.reds {
		if r == nil {
			continue
		}
		st.Reducers++
		st.Communication = core.AddSat(st.Communication, r.load)
		sum += float64(r.load)
		if r.load > st.MaxLoad {
			st.MaxLoad = r.load
		}
	}
	if s.total > 0 {
		st.ReplicationRate = sum / float64(s.total)
	}
	return st
}

// Snapshot is a consistent view of the session: the schema over dense input
// IDs plus the mapping back to the session's stable external IDs.
type Snapshot struct {
	// Schema is the current mapping schema. Input IDs are dense 0..m-1 in
	// ascending external-ID order, so exec.NewAuditor and core.ValidateA2A
	// apply directly. The schema is owned by the caller.
	Schema *core.MappingSchema
	// IDs maps dense IDs to external ones: IDs[dense] is the external ID.
	IDs []InputID
	// Sizes are the live sizes, aligned with IDs.
	Sizes []core.Size
	// Stats is the census at snapshot time.
	Stats Stats
	// Fingerprint is State().Fingerprint() of the state the snapshot was
	// taken from, computed under the same lock.
	Fingerprint uint64
}

// Snapshot materializes the current schema, census and fingerprint
// atomically. It copies the session once, as the State it fingerprints: the
// snapshot takes that state's IDs and sizes, and its member lists relabelled
// to dense IDs in place once the fingerprint is taken.
func (s *Session) Snapshot() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stateLocked()
	snap := &Snapshot{
		Schema:      &core.MappingSchema{Problem: core.ProblemA2A, Capacity: s.cfg.Capacity, Algorithm: "stream/incremental"},
		IDs:         st.IDs,
		Sizes:       st.Sizes,
		Stats:       s.statsLocked(),
		Fingerprint: st.Fingerprint(),
	}
	dense := make(map[InputID]int, len(st.IDs))
	for i, id := range st.IDs {
		dense[id] = i
	}
	for slot, r := range s.reds {
		if r == nil {
			continue
		}
		// Members are sorted by external ID and the dense mapping preserves
		// order, so the dense inputs come out ascending.
		inputs := st.Reducers[slot].Members
		for i, m := range inputs {
			inputs[i] = dense[m]
		}
		snap.Schema.Reducers = append(snap.Schema.Reducers, core.Reducer{Inputs: inputs, Load: r.load})
	}
	return snap
}

// liveMaxLocked returns the largest live input size, rescanning only after
// a removal or shrink may have lowered it.
func (s *Session) liveMaxLocked() core.Size {
	if s.maxDirty {
		s.maxLive = 0
		for _, id := range s.ids {
			if w := s.inputs[id].size; w > s.maxLive {
				s.maxLive = w
			}
		}
		s.maxDirty = false
	}
	return s.maxLive
}

// liveMaxExcludingLocked returns the largest live size among inputs other
// than x.
func (s *Session) liveMaxExcludingLocked(x InputID) core.Size {
	if !s.maxDirty && s.inputs[x].size < s.maxLive {
		return s.maxLive
	}
	var max core.Size
	for _, id := range s.ids {
		if w := s.inputs[id].size; id != x && w > max {
			max = w
		}
	}
	return max
}

// noteSizeLocked folds a new or grown size into the cached maximum.
func (s *Session) noteSizeLocked(w core.Size) {
	if !s.maxDirty && w > s.maxLive {
		s.maxLive = w
	}
}

// noteShrinkLocked marks the cache dirty when a size at the maximum left.
func (s *Session) noteShrinkLocked(w core.Size) {
	if w >= s.maxLive {
		s.maxDirty = true
	}
}

// planCapacity is the capacity handed to ReplanFunc and used when packing
// fresh reducers: the real capacity minus the reserved headroom. Pairs that
// only fit the full capacity still get it (correctness beats headroom).
func (s *Session) planCapacity() core.Size {
	h := s.cfg.Headroom
	switch {
	case h < 0:
		h = 0
	case h == 0:
		h = s.cfg.Capacity / 8
	}
	if h >= s.cfg.Capacity {
		h = 0
	}
	return s.cfg.Capacity - h
}

// migrationBudget resolves the per-delta compaction budget.
func (s *Session) migrationBudget() core.Size {
	switch {
	case s.cfg.MigrationBudget > 0:
		return s.cfg.MigrationBudget
	case s.cfg.MigrationBudget < 0:
		return 0
	default:
		return 2 * min(s.cfg.Capacity, math.MaxInt64/2)
	}
}

func (s *Session) driftRatioLocked() float64 {
	if s.total <= 0 {
		return 0
	}
	return float64(s.drift) / float64(s.total)
}

// NeedsRebuild reports whether drift has passed the rebuild threshold: the
// caller's cue to schedule Rebuild.
func (s *Session) NeedsRebuild() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.needsRebuildLocked()
}

func (s *Session) needsRebuildLocked() bool {
	th := s.cfg.RebuildThreshold
	if th == 0 {
		th = DefaultRebuildThreshold
	}
	if th < 0 || len(s.ids) < 2 {
		return false
	}
	return s.driftRatioLocked() > th
}

// insertSorted inserts v into the ascending slice, which must not already
// contain it.
func insertSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// deleteSorted removes v from the ascending slice if present.
func deleteSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	if i < len(s) && s[i] == v {
		s = append(s[:i], s[i+1:]...)
	}
	return s
}

// sharesReducerLocked reports whether two live inputs share a reducer, as a
// word-parallel intersection of their slot sets.
func (s *Session) sharesReducerLocked(a, b InputID) bool {
	return s.inputs[a].slots.Intersects(&s.inputs[b].slots)
}

// inRedLocked reports whether input x is assigned to the reducer in slot.
func (s *Session) inRedLocked(x InputID, slot int) bool {
	return s.inputs[x].slots.Contains(slot)
}

// newRedLocked allocates a reducer slot.
func (s *Session) newRedLocked() int {
	r := &red{}
	if n := len(s.free); n > 0 {
		slot := s.free[n-1]
		s.free = s.free[:n-1]
		s.reds[slot] = r
		return slot
	}
	s.reds = append(s.reds, r)
	return len(s.reds) - 1
}

// addToRedLocked assigns input x to the reducer in slot.
func (s *Session) addToRedLocked(x InputID, slot int) {
	in, r := s.inputs[x], s.reds[slot]
	r.members = insertSorted(r.members, x)
	r.load += in.size
	in.slots.Grow(slot + 1)
	in.slots.Add(slot)
}

// removeFromRedLocked drops input x from the reducer in slot, freeing the
// slot when it empties.
func (s *Session) removeFromRedLocked(x InputID, slot int) {
	in, r := s.inputs[x], s.reds[slot]
	r.members = deleteSorted(r.members, x)
	r.load -= in.size
	in.slots.Remove(slot)
	if len(r.members) == 0 {
		s.reds[slot] = nil
		s.free = append(s.free, slot)
	}
}
