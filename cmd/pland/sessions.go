package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/pkg/assign"
	"repro/pkg/assign/plandclient"
)

// sessionEntry is one live session of the v2 API plus its rebuild-job
// bookkeeping. entry.mu serializes PATCH batches and rebuild scheduling;
// the session itself is internally synchronized.
type sessionEntry struct {
	id   string
	sess *assign.Session
	// meta is the marshaled sessionMeta this session was created (or
	// restored) with; drain handoff ships it alongside the state so the
	// receiver rebuilds the session with the same replan shaping.
	meta json.RawMessage

	mu         sync.Mutex
	rebuildJob string // last submitted rebuild job ID, "" when none
}

// randomHex returns n random bytes in hex, the stuff session and job IDs are
// made of.
func randomHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		panic(fmt.Sprintf("pland: reading a random ID: %v", err))
	}
	return hex.EncodeToString(b)
}

func newSessionID() string { return "s-" + randomHex(8) }

// createSession serves POST /v2/sessions. The route drew the ID before
// anything else: under clustering it decided the owning node, and the journal
// needs it to stamp the very first snapshot (NewSession journals one as the
// session goes live).
func (s *server) createSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var body plandclient.SessionCreateRequest
	if !s.decodeBody(w, r, &body) {
		return
	}
	if body.Capacity <= 0 {
		writeAPIError(w, badRequestf("capacity must be positive, got %d", body.Capacity))
		return
	}
	if len(body.Sizes) > s.cfg.MaxSessionInputs {
		writeAPIError(w, badRequestf("initial instance has %d inputs, session limit is %d",
			len(body.Sizes), s.cfg.MaxSessionInputs))
		return
	}
	if len(body.Sizes) > 0 {
		if aerr := validSizes("sizes", body.Sizes); aerr != nil {
			writeAPIError(w, aerr)
			return
		}
	}
	s.sessMu.Lock()
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.sessMu.Unlock()
		writeAPIError(w, newAPIError(http.StatusTooManyRequests, plandclient.CodeSessionLimit,
			fmt.Sprintf("session limit (%d) reached; DELETE one first", s.cfg.MaxSessions), nil))
		return
	}
	s.sessMu.Unlock()

	opts := []assign.Option{
		assign.Capacity(body.Capacity),
		assign.ManualRebuild(), // rebuilds run on the shared job queue
		assign.MigrationBudget(body.MigrationBudget),
		assign.RebuildThreshold(body.RebuildThreshold),
		assign.Headroom(body.Headroom),
	}
	if len(body.Sizes) > 0 {
		opts = append(opts, assign.A2A(body.Sizes))
	}
	if body.NoCache {
		opts = append(opts, assign.NoCache())
	}
	// The meta blob rides with every journaled snapshot and with a drain
	// handoff; it is computed even without a WAL so a clustered in-memory
	// node hands sessions off with their replan shaping intact.
	meta, err := json.Marshal(sessionMeta{TimeoutMS: body.TimeoutMS, NoCache: body.NoCache})
	if err != nil {
		writeAPIError(w, badRequestf("encoding session meta: %v", err))
		return
	}
	if s.wal != nil {
		opts = append(opts, assign.Journal(&sessionJournal{sid: id, meta: meta, log: s.wal}))
	}
	// The initial plan runs synchronously under the request budget.
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.MaxTimeout)
	defer cancel()
	sess, err := s.planner.NewSession(ctx, opts...)
	if err != nil {
		writeAPIError(w, planError(err))
		return
	}

	entry := &sessionEntry{id: id, sess: sess, meta: meta}
	s.sessMu.Lock()
	if len(s.sessions) >= s.cfg.MaxSessions { // re-check: creations may race
		s.sessMu.Unlock()
		sess.Close()
		// NewSession already journaled the initial snapshot; without a close
		// record recovery would resurrect this never-served session.
		s.journalSessionClose(r.Context(), id)
		writeAPIError(w, newAPIError(http.StatusTooManyRequests, plandclient.CodeSessionLimit,
			fmt.Sprintf("session limit (%d) reached; DELETE one first", s.cfg.MaxSessions), nil))
		return
	}
	s.sessions[entry.id] = entry
	s.sessMu.Unlock()
	writeJSON(w, http.StatusCreated, s.sessionView(entry))
}

// listSessions serves GET /v2/sessions.
func (s *server) listSessions(w http.ResponseWriter, r *http.Request) {
	entries := s.liveSessions()
	sort.Slice(entries, func(i, j int) bool { return entries[i].id < entries[j].id })
	node := ""
	if s.cluster != nil {
		node = s.cluster.self
	}
	resp := plandclient.SessionList{Sessions: make([]plandclient.Session, 0, len(entries)), Count: len(entries), Limit: s.cfg.MaxSessions}
	for _, e := range entries {
		resp.Sessions = append(resp.Sessions, plandclient.Session{ID: e.id, Stats: e.sess.Stats(), RebuildJobID: s.activeRebuild(e), Node: node})
	}
	writeJSON(w, http.StatusOK, resp)
}

// holdsSession reports whether the session lives on this node.
func (s *server) holdsSession(id string) bool {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	return s.sessions[id] != nil
}

// liveSessions snapshots the registered sessions, so that callers work on
// them without holding the registry's lock.
func (s *server) liveSessions() []*sessionEntry {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	entries := make([]*sessionEntry, 0, len(s.sessions))
	for _, e := range s.sessions {
		entries = append(entries, e)
	}
	return entries
}

// liveSession resolves the route's {id} to its session. The route has
// already forwarded what the ring places elsewhere, so an ID not found here
// is answered 404, by this function, and nil comes back.
func (s *server) liveSession(w http.ResponseWriter, r *http.Request) *sessionEntry {
	s.sessMu.Lock()
	entry := s.sessions[r.PathValue("id")]
	s.sessMu.Unlock()
	if entry == nil {
		writeAPIError(w, notFound("no such session"))
	}
	return entry
}

// getSession serves GET /v2/sessions/{id}.
func (s *server) getSession(w http.ResponseWriter, r *http.Request) {
	if entry := s.liveSession(w, r); entry != nil {
		writeJSON(w, http.StatusOK, s.sessionView(entry))
	}
}

// deleteSession serves DELETE /v2/sessions/{id}.
func (s *server) deleteSession(w http.ResponseWriter, r *http.Request) {
	entry := s.liveSession(w, r)
	if entry == nil {
		return
	}
	s.sessMu.Lock()
	delete(s.sessions, entry.id)
	s.sessMu.Unlock()
	stats := entry.sess.Stats()
	s.cancelRebuild(entry) // don't leave a zombie solve on the job queue
	entry.sess.Close()
	// The close record goes in only after Close: a checkpoint snapshot
	// either landed before it (superseded by the close) or hit ErrClosed,
	// so recovery can never resurrect a deleted session.
	s.journalSessionClose(r.Context(), entry.id)
	writeJSON(w, http.StatusOK, plandclient.Session{ID: entry.id, Stats: stats})
}

// patchSession serves PATCH /v2/sessions/{id}: it applies a delta batch in
// order, stopping at the first failure, then schedules a background rebuild
// on the job queue when the batch pushed drift past the threshold.
func (s *server) patchSession(w http.ResponseWriter, r *http.Request) {
	entry := s.liveSession(w, r)
	if entry == nil {
		return
	}
	var body struct {
		Deltas []plandclient.SessionDelta `json:"deltas"`
	}
	if !s.decodeBody(w, r, &body) {
		return
	}
	if len(body.Deltas) == 0 {
		writeAPIError(w, badRequestf("no deltas in batch"))
		return
	}
	entry.mu.Lock()
	defer entry.mu.Unlock()
	// The whole batch is one "delta" stage of the request span: per-delta
	// spans would let a large batch blow the span-children cap for no
	// diagnostic gain (the response already reports per-delta outcomes).
	endDelta := obs.SpanFrom(r.Context()).Stage("delta")
	resp := plandclient.SessionPatchResult{Results: make([]plandclient.SessionDeltaResult, 0, len(body.Deltas))}
	for i, d := range body.Deltas {
		var (
			rep assign.DeltaReport
			err error
		)
		switch d.Op {
		case "add":
			if entry.sess.Len() >= s.cfg.MaxSessionInputs {
				err = fmt.Errorf("session holds %d inputs, limit is %d", entry.sess.Len(), s.cfg.MaxSessionInputs)
			} else {
				_, rep, err = entry.sess.Add(d.Size)
			}
		case "remove":
			if d.ID == nil {
				err = errors.New(`"remove" needs an "id"`)
			} else {
				rep, err = entry.sess.Remove(*d.ID)
			}
		case "resize":
			if d.ID == nil {
				err = errors.New(`"resize" needs an "id"`)
			} else {
				rep, err = entry.sess.Resize(*d.ID, d.Size)
			}
		default:
			err = fmt.Errorf(`delta %d: op must be "add", "remove", or "resize", got %q`, i, d.Op)
		}
		if err != nil {
			resp.Results = append(resp.Results, plandclient.SessionDeltaResult{Error: deltaError(err)})
			break
		}
		resp.Applied++
		resp.Results = append(resp.Results, plandclient.SessionDeltaResult{DeltaReport: rep})
	}
	endDelta()
	resp.RebuildJobID = s.maybeScheduleRebuild(r.Context(), entry)
	resp.Stats = entry.sess.Stats()
	writeJSON(w, http.StatusOK, resp)
}

// deltaError classifies a per-delta failure into the stable envelope codes.
func deltaError(err error) *plandclient.ErrorBody {
	code := plandclient.CodeUnprocessable
	switch {
	case errors.Is(err, assign.ErrUnknownID):
		code = plandclient.CodeNotFound
	case errors.Is(err, assign.ErrSessionClosed):
		code = plandclient.CodeConflict
	}
	return &plandclient.ErrorBody{Code: code, Message: err.Error()}
}

// activeRebuild returns the entry's rebuild job ID while it is queued or
// running, clearing the bookkeeping once the job finished or expired.
func (s *server) activeRebuild(entry *sessionEntry) string {
	entry.mu.Lock()
	defer entry.mu.Unlock()
	return s.activeRebuildLocked(entry)
}

func (s *server) activeRebuildLocked(entry *sessionEntry) string {
	if entry.rebuildJob == "" {
		return ""
	}
	snap, err := s.jobs.Get(entry.rebuildJob)
	if err != nil || snap.State.Terminal() {
		entry.rebuildJob = ""
		return ""
	}
	return entry.rebuildJob
}

// maybeScheduleRebuild submits a "rebuild" job for the session when drift
// passed the threshold and no rebuild is already queued or running. The
// caller holds entry.mu via patchSession; list/GET paths go through
// activeRebuild instead. submitCtx is the PATCH's context — the rebuild's
// trace joins the batch that triggered it.
func (s *server) maybeScheduleRebuild(submitCtx context.Context, entry *sessionEntry) string {
	if id := s.activeRebuildLocked(entry); id != "" {
		return id
	}
	if !entry.sess.NeedsRebuild() {
		return ""
	}
	sess := entry.sess
	snap, err := s.jobs.Submit("rebuild", s.traceJobFunc("rebuild", submitCtx, func(ctx context.Context) (any, error) {
		jctx, cancel := context.WithTimeout(ctx, s.cfg.MaxJobTimeout)
		defer cancel()
		rep, err := sess.Rebuild(jctx)
		if err != nil {
			return nil, err
		}
		return rep, nil
	}))
	if err != nil {
		// A full queue is not an error for the batch itself: the rebuild is
		// retried on a later PATCH.
		return ""
	}
	entry.rebuildJob = snap.ID
	return snap.ID
}

// sessionView renders a session with its schema snapshot (the list view, the
// only one without, is built where it is served).
func (s *server) sessionView(entry *sessionEntry) plandclient.Session {
	snap := entry.sess.Snapshot()
	resp := plandclient.Session{ID: entry.id, RebuildJobID: s.activeRebuild(entry),
		Stats: snap.Stats, Schema: snap.Schema, IDs: snap.IDs, Sizes: snap.Sizes}
	if s.cluster != nil {
		resp.Node = s.cluster.self
	}
	if st := entry.sess.State(); st != nil {
		resp.Fingerprint = fmt.Sprintf("%016x", st.Fingerprint())
	}
	return resp
}

// cancelRebuild cancels the session's in-flight rebuild job, if any, so a
// deleted session's solve does not keep occupying a job worker until its
// own timeout. Best-effort: a job that already finished returns an error
// Cancel callers here can ignore.
func (s *server) cancelRebuild(entry *sessionEntry) {
	entry.mu.Lock()
	id := entry.rebuildJob
	entry.rebuildJob = ""
	entry.mu.Unlock()
	if id != "" {
		_, _ = s.jobs.Cancel(id)
	}
}

// closeSessions shuts every session down; used by the server drain.
func (s *server) closeSessions() {
	s.sessMu.Lock()
	entries := make([]*sessionEntry, 0, len(s.sessions))
	for id, e := range s.sessions {
		entries = append(entries, e)
		delete(s.sessions, id)
	}
	s.sessMu.Unlock()
	for _, e := range entries {
		s.cancelRebuild(e)
		e.sess.Close()
	}
}
