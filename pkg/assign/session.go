package assign

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/stream"
)

// Session types and errors, re-exported from the maintenance layer so SDK
// callers never import internal packages.
type (
	// DeltaReport prices one applied session delta (bytes moved and freed,
	// reducers joined/created/merged, budget and rebuild flags).
	DeltaReport = stream.DeltaReport
	// RebuildReport prices one full rebuild and its swap.
	RebuildReport = stream.RebuildReport
	// SessionStats is a point-in-time census of a session.
	SessionStats = stream.Stats
	// SessionSnapshot is a consistent schema + ID-mapping + stats view.
	SessionSnapshot = stream.Snapshot
	// SessionState is the full serializable state of a session — everything
	// delta replay depends on — with a replay-deterministic Fingerprint.
	SessionState = stream.State
	// SessionDeltaRecord is the journaled form of one applied delta.
	SessionDeltaRecord = stream.DeltaRecord
	// SessionJournal receives a session's durability stream (deltas and
	// full-state snapshots); see stream.Journal for the calling contract.
	SessionJournal = stream.Journal
)

var (
	// ErrSessionClosed is returned by session methods after Close.
	ErrSessionClosed = stream.ErrClosed
	// ErrUnknownID is returned for deltas addressing an input that is not
	// live in the session.
	ErrUnknownID = stream.ErrUnknownID
	// ErrRebuildInFlight is returned by Rebuild while another rebuild runs.
	ErrRebuildInFlight = stream.ErrRebuildInFlight
)

// MigrationBudget caps the opportunistic data movement (reducer-merge
// compaction) of one session delta, in bytes. Zero keeps the default
// (2*Capacity); a negative budget disables compaction. Mandatory coverage
// repair always runs regardless and flags DeltaReport.OverBudget when it
// alone exceeded the budget.
func MigrationBudget(bytes Size) Option {
	return func(r *request) { r.migrationBudget = bytes }
}

// RebuildThreshold sets the drift ratio (bytes churned since the last full
// plan over live bytes) past which the session schedules a background
// rebuild. Zero keeps the default (1.0); a negative threshold disables
// rebuilds entirely.
func RebuildThreshold(frac float64) Option {
	return func(r *request) { r.rebuildThreshold = frac }
}

// Headroom reserves slack in every reducer the session plans or builds, so
// arrivals up to this size join existing reducers instead of forcing new
// ones. Zero keeps the default (Capacity/8); negative reserves nothing.
func Headroom(bytes Size) Option {
	return func(r *request) { r.headroom = bytes }
}

// ManualRebuild disables the session's automatic background rebuilds: the
// caller polls NeedsRebuild and runs Rebuild on its own schedule (cmd/pland
// runs them on its job queue).
func ManualRebuild() Option {
	return func(r *request) { r.manualRebuild = true }
}

// Journal attaches a durability journal to the session: every applied delta
// and every full-state snapshot (creation, rebuild swaps, periodic) streams
// through it, which is what cmd/pland's WAL persistence is built on.
func Journal(j SessionJournal) Option {
	return func(r *request) { r.journal = j }
}

// Session is a live, continuously-maintained assignment: it owns a mapping
// schema and applies Add/Remove/Resize deltas by bounded local repair,
// replanning in full through its Planner only when cumulative drift calls
// for it. Sessions are safe for concurrent use; see internal/stream's
// package documentation for the repair/rebuild contract.
type Session struct {
	s *stream.Session
}

// NewSession opens a session on the shared process-wide planner. Capacity is
// required; an initial A2A instance (A2A or Inputs) is optional and is
// planned once through the portfolio before the session goes live. NoCache
// shapes the session's replans; MigrationBudget, RebuildThreshold, Headroom,
// and ManualRebuild shape its maintenance.
func NewSession(ctx context.Context, opts ...Option) (*Session, error) {
	return Default.NewSession(ctx, opts...)
}

// NewSession opens a session replanning through this planner. See the
// package-level NewSession.
func (pl *Planner) NewSession(ctx context.Context, opts ...Option) (*Session, error) {
	r := &request{}
	for _, o := range opts {
		o(r)
	}
	if len(r.errs) > 0 {
		return nil, errors.Join(r.errs...)
	}
	if r.capacity <= 0 {
		return nil, fmt.Errorf("assign: capacity must be positive, got %d (use Capacity)", r.capacity)
	}
	if r.problemSet && r.problem != ProblemA2A {
		return nil, errors.New("assign: sessions maintain A2A instances only")
	}
	initial := r.sizes
	if r.hasData {
		initial = make([]Size, len(r.data))
		for i, p := range r.data {
			initial[i] = Size(len(p))
		}
	}
	// stream.Config shares the options' zero-means-default convention, so
	// the values pass straight through.
	s, err := stream.NewSession(ctx, stream.Config{
		Capacity:         r.capacity,
		MigrationBudget:  r.migrationBudget,
		RebuildThreshold: r.rebuildThreshold,
		Headroom:         r.headroom,
		AutoRebuild:      !r.manualRebuild,
		Initial:          initial,
		Replan:           pl.replanFunc(r),
		Journal:          r.journal,
	})
	if err != nil {
		return nil, err
	}
	return &Session{s: s}, nil
}

// RestoreSession rebuilds a session from a serialized state plus the deltas
// journaled after it — the recovery half of the Journal option. The restored
// structure is verified twice before it is returned: the replayed state must
// fingerprint identically to what the journal recorded, and the resulting
// schema must pass the executor auditor's static invariants (every load
// within capacity, every required pair covered), so a corrupt or misordered
// log surfaces as an error here instead of as a wrong answer later. Only the
// behavioral options apply (NoCache, ManualRebuild, Journal);
// capacity and tuning travel inside the state itself.
func (pl *Planner) RestoreSession(st *SessionState, deltas []SessionDeltaRecord, opts ...Option) (*Session, error) {
	r := &request{}
	for _, o := range opts {
		o(r)
	}
	if len(r.errs) > 0 {
		return nil, errors.Join(r.errs...)
	}
	if r.problemSet || len(r.sizes) > 0 || r.hasData {
		return nil, errors.New("assign: RestoreSession takes no instance; the state carries it")
	}
	s, err := stream.RestoreSession(stream.Config{
		AutoRebuild: !r.manualRebuild,
		Replan:      pl.replanFunc(r),
		Journal:     r.journal,
	}, st, deltas)
	if err != nil {
		return nil, err
	}
	sess := &Session{s: s}
	if err := auditSession(sess); err != nil {
		sess.Close()
		return nil, err
	}
	return sess, nil
}

// auditSession statically audits a session's current schema with the
// executor's conformance auditor.
func auditSession(sess *Session) error {
	snap := sess.Snapshot()
	if len(snap.IDs) == 0 {
		return nil // nothing to cover yet
	}
	aud, err := exec.NewAuditor(snap.Schema, len(snap.IDs))
	if err != nil {
		return fmt.Errorf("assign: auditing restored session: %w", err)
	}
	if err := aud.PreCheck(); err != nil {
		return fmt.Errorf("assign: restored session failed the audit: %w", err)
	}
	return nil
}

// replanFunc binds the session's rebuilds to this planner's portfolio,
// carrying the NoCache choice of the opening options into every replan.
func (pl *Planner) replanFunc(r *request) stream.ReplanFunc {
	noCache := r.noCache
	return func(ctx context.Context, sizes []core.Size, q core.Size) (*core.MappingSchema, error) {
		opts := []Option{A2A(sizes), Capacity(q)}
		if noCache {
			opts = append(opts, NoCache())
		}
		res, err := pl.Plan(ctx, opts...)
		if err != nil {
			return nil, err
		}
		return res.Schema, nil
	}
}

// Add inserts a new input of the given size, locally repairing the schema,
// and returns the input's stable ID.
func (s *Session) Add(size Size) (int, DeltaReport, error) { return s.s.Add(size) }

// Remove deletes a live input.
func (s *Session) Remove(id int) (DeltaReport, error) { return s.s.Remove(id) }

// Resize changes a live input's size.
func (s *Session) Resize(id int, newSize Size) (DeltaReport, error) { return s.s.Resize(id, newSize) }

// Len returns the number of live inputs.
func (s *Session) Len() int { return s.s.Len() }

// Stats snapshots the session's counters and drift.
func (s *Session) Stats() SessionStats { return s.s.Stats() }

// Snapshot returns the current schema (over dense IDs), the dense-to-stable
// ID mapping, the live sizes, and the stats, all consistent with each other.
func (s *Session) Snapshot() *SessionSnapshot { return s.s.Snapshot() }

// State captures the full serializable session state; with its Fingerprint
// it is the unit of WAL snapshot persistence.
func (s *Session) State() *SessionState { return s.s.State() }

// WriteSnapshot journals a full-state snapshot immediately; a no-op without
// a Journal. WAL checkpoints use it to re-anchor every live session in the
// barrier segment.
func (s *Session) WriteSnapshot() error { return s.s.WriteSnapshot() }

// NeedsRebuild reports whether drift passed the rebuild threshold; with
// ManualRebuild it is the caller's cue to invoke Rebuild.
func (s *Session) NeedsRebuild() bool { return s.s.NeedsRebuild() }

// Rebuild replans the live instance in full through the session's planner
// and atomically swaps the result in, reconciling deltas that raced the
// solve. It reports the swap's migration cost.
func (s *Session) Rebuild(ctx context.Context) (*RebuildReport, error) { return s.s.Rebuild(ctx) }

// Close stops the session; the in-flight background rebuild, if any, is
// canceled and awaited.
func (s *Session) Close() error { return s.s.Close() }
