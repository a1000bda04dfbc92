package assign

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/stream"
)

// Session types and errors, re-exported from the maintenance layer so SDK
// callers never import internal packages.
type (
	// Session is a live, continuously-maintained assignment: it owns a
	// mapping schema and applies Add/Remove/Resize deltas by bounded local
	// repair, replanning in full through its Planner only when cumulative
	// drift calls for it. Sessions are safe for concurrent use; see
	// internal/stream's package documentation for the repair/rebuild
	// contract. A session starts no goroutine: Rebuild runs on its caller's.
	Session = stream.Session
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
// plan over live bytes) past which NeedsRebuild reports true. Zero keeps the
// default (1.0); a negative threshold disables rebuild requests entirely.
func RebuildThreshold(frac float64) Option {
	return func(r *request) { r.rebuildThreshold = frac }
}

// Headroom reserves slack in every reducer the session plans or builds, so
// arrivals up to this size join existing reducers instead of forcing new
// ones. Zero keeps the default (Capacity/8); negative reserves nothing.
func Headroom(bytes Size) Option {
	return func(r *request) { r.headroom = bytes }
}

// ManualRebuild is accepted for compatibility and changes nothing: a session
// never rebuilds by itself. The caller polls NeedsRebuild and runs Rebuild on
// its own schedule (cmd/pland runs it on its job queue).
func ManualRebuild() Option { return func(*request) {} }

// Journal attaches a durability journal to the session: every applied delta
// and every full-state snapshot (creation, rebuild swaps, periodic) streams
// through it, which is what cmd/pland's WAL persistence is built on.
func Journal(j SessionJournal) Option {
	return func(r *request) { r.journal = j }
}

// NewSession opens a session on the shared process-wide planner. Capacity is
// required; an initial A2A instance (A2A or Inputs, not Source) is optional
// and is planned once through the portfolio before the session goes live.
// MigrationBudget, RebuildThreshold and Headroom shape its maintenance.
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
	if r.src != nil {
		return nil, errors.New("assign: NewSession takes no Source; give the initial sizes with A2A")
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
		Initial:          initial,
		Replan:           pl.replan,
		Journal:          r.journal,
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// RestoreSession rebuilds a session from a serialized state plus the deltas
// journaled after it — the recovery half of the Journal option. The restored
// structure is verified twice before it is returned: the replayed state must
// fingerprint identically to what the journal recorded, and the resulting
// schema must pass core.ValidateA2A (every load within capacity, every
// required pair covered), so a corrupt or misordered log surfaces as an error
// here instead of as a wrong answer later. Journal is
// the one option that applies. Capacity and tuning travel inside the state
// itself, so an instance, Capacity, MigrationBudget, RebuildThreshold or
// Headroom among the options is an error.
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
	for _, o := range []struct {
		name string
		set  bool
	}{
		{"Capacity", r.capacity != 0},
		{"MigrationBudget", r.migrationBudget != 0},
		{"RebuildThreshold", r.rebuildThreshold != 0},
		{"Headroom", r.headroom != 0},
	} {
		if o.set {
			return nil, fmt.Errorf("assign: RestoreSession takes no %s; the state carries it", o.name)
		}
	}
	s, err := stream.RestoreSession(stream.Config{
		Replan:  pl.replan,
		Journal: r.journal,
	}, st, deltas)
	if err != nil {
		return nil, err
	}
	if err := auditSession(s); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// auditSession statically checks a session's current schema with
// core.ValidateA2A: every reducer's load, recomputed from the live sizes,
// within capacity, and every required pair covered, in m² bits. The session
// restore has already bounded every slot's load without wrapping.
func auditSession(sess *Session) error {
	snap := sess.Snapshot()
	if len(snap.IDs) == 0 {
		return nil // nothing to cover yet
	}
	set, err := core.NewInputSet(snap.Sizes)
	if err == nil {
		err = snap.Schema.ValidateA2A(set)
	}
	if err != nil {
		return fmt.Errorf("assign: restored session failed the audit: %w", err)
	}
	return nil
}

// replan is a session's stream.ReplanFunc: its rebuilds go through this
// planner's portfolio and cache.
func (pl *Planner) replan(ctx context.Context, sizes []core.Size, q core.Size) (*core.MappingSchema, error) {
	res, err := pl.Plan(ctx, A2A(sizes), Capacity(q))
	if err != nil {
		return nil, err
	}
	return res.Schema, nil
}
