package main

import (
	"context"
	"encoding/json"
	"errors"
	"time"

	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/wal"
	"repro/pkg/assign"
)

// Recovery series: stamped once per boot (pland recovers exactly once, before
// serving), so the gauges read as "what the last recovery did".
var (
	obsRecoverySessions = obs.Default.Counter("pland_recovery_sessions_total",
		"Sessions restored from the WAL at boot.")
	obsRecoverySessionFailures = obs.Default.Counter("pland_recovery_session_failures_total",
		"Sessions in the WAL that failed fingerprint, replay, or audit and were dropped.")
	obsRecoveryJobs = obs.Default.Counter("pland_recovery_jobs_total",
		"Journaled-but-unfinished jobs re-enqueued at boot.")
	obsRecoveryJobFailures = obs.Default.Counter("pland_recovery_job_failures_total",
		"Journaled jobs whose payload no longer validated and were dropped.")
	obsRecoveryDeltas = obs.Default.Counter("pland_recovery_deltas_total",
		"Session deltas replayed on top of snapshots at boot.")
	obsRecoveryDurationMS = obs.Default.Gauge("pland_recovery_duration_ms",
		"Wall-clock milliseconds the boot recovery took.")
	obsRecoveryTornBytes = obs.Default.Gauge("pland_recovery_torn_bytes",
		"Bytes the boot recovery cut off at the first torn or corrupt WAL frame.")
)

// sessionMeta is the owner blob journaled with every session snapshot: the
// replan-shaping request fields that live outside stream state. Tuning
// (budget, headroom, threshold) travels inside the state itself. TimeoutMS
// no longer shapes anything; it stays so that old WAL records and handoffs,
// which carry it, keep decoding and re-journal unchanged.
type sessionMeta struct {
	TimeoutMS int  `json:"timeout_ms,omitempty"`
	NoCache   bool `json:"no_cache,omitempty"`
}

// sessionJournal adapts one session's durability stream onto the shared WAL.
// Both methods run under the session's own mutex, so per-session records land
// in the log in exactly the order they applied; the WAL never calls back, so
// the session-then-log lock order cannot deadlock.
type sessionJournal struct {
	sid  string
	meta json.RawMessage
	log  *wal.Log
}

func (j *sessionJournal) Delta(rec assign.SessionDeltaRecord) {
	// The log's sticky error surfaces on /metrics; the session keeps serving.
	_ = j.log.Append(&wal.Record{Kind: wal.KindSessionDelta, SID: j.sid, Delta: &rec})
}

func (j *sessionJournal) Snapshot(st *assign.SessionState) {
	_ = j.log.Append(&wal.Record{
		Kind: wal.KindSessionSnapshot, SID: j.sid,
		State: st, FP: st.Fingerprint(), Meta: j.meta,
	})
}

// walJob is the server-side copy of one journaled job submission, kept so
// checkpoints can re-record still-live jobs into the barrier segment.
type walJob struct {
	kind string
	body json.RawMessage
}

// newDurableServer builds the server and, when DataDir is set, opens the WAL
// under it, recovers whatever a previous process journaled (verified and
// audited before anything is served), compacts the recovered log, and starts
// the checkpoint loop. With an empty DataDir it is exactly newServer.
func newDurableServer(pl *assign.Planner, cfg serverConfig) (*server, error) {
	s := newServer(pl, cfg)
	if len(s.cfg.Peers) > 0 {
		cl, err := newCluster(s.cfg, s.log)
		if err != nil {
			return nil, err
		}
		s.cluster = cl
	}
	if cfg.DataDir == "" {
		return s, nil
	}
	log, err := wal.Open(cfg.DataDir, wal.Options{Fsync: cfg.Fsync, FsyncInterval: cfg.FsyncInterval})
	if err != nil {
		return nil, err
	}
	s.wal = log
	if err := s.recoverWAL(); err != nil {
		log.Close()
		return nil, err
	}
	// Re-anchor the recovered state right away so the pre-crash segments are
	// dropped instead of being replayed again (and growing) on every boot.
	if err := s.checkpoint(); err != nil {
		s.log.Warn("post-recovery checkpoint", "error", err)
	}
	s.checkpointStop = make(chan struct{})
	s.checkpointWG.Add(1)
	go s.runCheckpointer()
	// Recovery is done and re-anchored: from here /readyz says so and peers
	// may route to this node.
	s.ready.Store(true)
	return s, nil
}

// recoverWAL replays the log and rebuilds the live sessions and unfinished
// jobs. Each session is fingerprint-checked against its journaled stamp and
// audited (pkg/assign runs the executor's conformance auditor over the
// restored schema) before it is served; a session that fails either check is
// dropped and counted rather than served wrong.
func (s *server) recoverWAL() error {
	start := time.Now()
	rec, err := s.wal.Recover()
	if err != nil {
		return err
	}
	obsRecoveryTornBytes.Set(rec.TornBytes)
	if rec.TornBytes > 0 {
		s.log.Warn("wal tail torn; later records lost", "torn_bytes", rec.TornBytes)
	}

	for _, rs := range rec.Sessions {
		if got := rs.State.Fingerprint(); got != rs.FP {
			obsRecoverySessionFailures.Inc()
			s.log.Warn("dropping session: snapshot fingerprint mismatch",
				"session", rs.SID, "want", rs.FP, "got", got)
			continue
		}
		entry, err := s.installSession(rs.SID, rs.State, rs.Deltas, rs.Meta)
		if err != nil {
			obsRecoverySessionFailures.Inc()
			s.log.Warn("dropping session: restore failed", "session", rs.SID, "error", err)
			continue
		}
		obsRecoverySessions.Inc()
		obsRecoveryDeltas.Add(uint64(len(rs.Deltas)))
		s.log.Info("session recovered", "session", rs.SID,
			"inputs", entry.sess.Len(), "deltas_replayed", len(rs.Deltas))
	}

	for _, rj := range rec.Jobs {
		var body jobSubmitRequest
		if err := json.Unmarshal(rj.Body, &body); err != nil {
			obsRecoveryJobFailures.Inc()
			s.log.Warn("dropping job: body unreadable", "job", rj.ID, "error", err)
			continue
		}
		run, aerr := s.buildJobFunc(body)
		if aerr != nil {
			obsRecoveryJobFailures.Inc()
			s.log.Warn("dropping job: payload no longer valid", "job", rj.ID, "error", aerr.Message)
			continue
		}
		// Recovered jobs have no submitting request; they root a fresh trace.
		run = s.traceJobFunc(rj.Kind, nil, run)
		if _, err := s.jobs.Restore(rj.ID, rj.Kind, run); err != nil {
			obsRecoveryJobFailures.Inc()
			s.log.Warn("dropping job: re-enqueue failed", "job", rj.ID, "error", err)
			continue
		}
		s.walMu.Lock()
		s.walJobs[rj.ID] = walJob{kind: rj.Kind, body: rj.Body}
		s.walMu.Unlock()
		obsRecoveryJobs.Inc()
		s.log.Info("job re-enqueued", "job", rj.ID, "kind", rj.Kind)
	}

	obsRecoveryDurationMS.Set(time.Since(start).Milliseconds())
	return nil
}

// installSession restores a serialized session under its existing ID and
// registers it for serving. Boot recovery and the cluster handoff receiver
// share it, so a session re-materializes with identical semantics whether it
// came out of this node's WAL or off the wire from a draining peer. The
// caller has already verified the state's fingerprint.
func (s *server) installSession(sid string, st *assign.SessionState, deltas []assign.SessionDeltaRecord, metaRaw json.RawMessage) (*sessionEntry, error) {
	var meta sessionMeta
	if len(metaRaw) > 0 {
		if err := json.Unmarshal(metaRaw, &meta); err != nil {
			s.log.Warn("session meta unreadable; using defaults", "session", sid, "error", err)
			metaRaw = nil
		}
	}
	opts := []assign.Option{assign.ManualRebuild()} // rebuilds run on the shared job queue
	if s.wal != nil {
		opts = append(opts, assign.Journal(&sessionJournal{sid: sid, meta: metaRaw, log: s.wal}))
	}
	if meta.NoCache {
		opts = append(opts, assign.NoCache())
	}
	sess, err := s.planner.RestoreSession(st, deltas, opts...)
	if err != nil {
		return nil, err
	}
	entry := &sessionEntry{id: sid, sess: sess, meta: metaRaw}
	s.sessMu.Lock()
	s.sessions[sid] = entry
	s.sessMu.Unlock()
	return entry, nil
}

// checkpoint re-journals the complete live state into a fresh barrier segment
// and drops every segment below it. Sessions re-anchor through their own
// journal hook (WriteSnapshot runs under each session's mutex), so a delta
// racing the checkpoint lands either before its session's snapshot — and is
// subsumed — or after it — and replays on top: log order stays apply order.
func (s *server) checkpoint() error {
	barrier, err := s.wal.BeginCheckpoint()
	if err != nil {
		return err
	}
	for _, e := range s.liveSessions() {
		if err := e.sess.WriteSnapshot(); err != nil && !errors.Is(err, assign.ErrSessionClosed) {
			return err
		}
		// A session closed mid-checkpoint is fine: its DELETE wrote a close
		// record, and a close always lands after the last WriteSnapshot that
		// could have succeeded.
	}
	s.walMu.Lock()
	live := make(map[string]walJob, len(s.walJobs))
	for id, j := range s.walJobs {
		live[id] = j
	}
	s.walMu.Unlock()
	for id, j := range live {
		if err := s.wal.Append(&wal.Record{
			Kind: wal.KindJobSubmit, JobID: id, JobKind: j.kind, JobBody: j.body,
		}); err != nil {
			return err
		}
		// If this job finished between the copy above and this append, its
		// done record is also in the log; recovery's done-set wins.
	}
	return s.wal.EndCheckpoint(barrier)
}

// runCheckpointer compacts on a timer, skipping ticks with nothing to do.
func (s *server) runCheckpointer() {
	defer s.checkpointWG.Done()
	t := time.NewTicker(s.cfg.CheckpointInterval)
	defer t.Stop()
	for {
		select {
		case <-s.checkpointStop:
			return
		case <-t.C:
			s.sessMu.Lock()
			liveSessions := len(s.sessions)
			s.sessMu.Unlock()
			s.walMu.Lock()
			liveJobs := len(s.walJobs)
			s.walMu.Unlock()
			if liveSessions == 0 && liveJobs == 0 && s.wal.Segments() <= 1 {
				continue // nothing live, nothing to compact
			}
			if err := s.checkpoint(); err != nil {
				s.log.Warn("wal checkpoint", "error", err)
			}
		}
	}
}

// stopCheckpointer stops the loop; safe to call when none runs.
func (s *server) stopCheckpointer() {
	if s.checkpointStop == nil {
		return
	}
	s.checkpointOnce.Do(func() { close(s.checkpointStop) })
	s.checkpointWG.Wait()
}

// journalSessionClose records a client-initiated close. Only the DELETE
// handler (and the create path's limit-race abort) calls it: the shutdown
// drain closes sessions without close records, which is precisely what lets
// them survive a restart. The handler's ctx traces the append; the cluster
// drain passes its own.
func (s *server) journalSessionClose(ctx context.Context, id string) {
	if s.wal == nil {
		return
	}
	_ = s.wal.AppendCtx(ctx, &wal.Record{Kind: wal.KindSessionClose, SID: id})
}

// journalJobSubmit records an accepted v2 job so a crash re-enqueues it.
func (s *server) journalJobSubmit(ctx context.Context, id, kind string, body jobSubmitRequest) {
	if s.wal == nil {
		return
	}
	raw, err := json.Marshal(body)
	if err != nil {
		s.log.Warn("job not journaled", "job", id, "error", err)
		return
	}
	s.walMu.Lock()
	s.walJobs[id] = walJob{kind: kind, body: raw}
	s.walMu.Unlock()
	_ = s.wal.AppendCtx(ctx, &wal.Record{Kind: wal.KindJobSubmit, JobID: id, JobKind: kind, JobBody: raw})
}

// jobFinished is the jobs.Manager OnFinish hook (it runs under the manager
// lock, so it must not call back into the manager). Shutdown-drained jobs get
// no done record: they never ran to completion, and the missing record is
// what makes recovery re-enqueue them.
func (s *server) jobFinished(snap jobs.Snapshot) {
	if s.wal == nil {
		return
	}
	if errors.Is(snap.Err, jobs.ErrShutdown) {
		return
	}
	s.walMu.Lock()
	_, journaled := s.walJobs[snap.ID]
	delete(s.walJobs, snap.ID)
	s.walMu.Unlock()
	if !journaled {
		return // e.g. a rebuild job; those are rescheduled from drift, not the WAL
	}
	_ = s.wal.Append(&wal.Record{Kind: wal.KindJobDone, JobID: snap.ID})
}
