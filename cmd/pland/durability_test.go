package main

// In-process crash-recovery tests: a durable server is driven over HTTP,
// "crashed" (WAL closed with NO final checkpoint, jobs drained with no done
// records, sessions closed with no close records — exactly the state a
// SIGKILL leaves after the last fsync), and rebooted onto the same data dir.
// The shell script scripts/e2e-crash-recovery.sh does the same dance against
// a real process with a real kill -9.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/wal"
	"repro/pkg/assign"
	"repro/pkg/assign/plandclient"
)

func durableConfig(dataDir string) serverConfig {
	return serverConfig{
		DataDir: dataDir,
		// SyncAlways makes every acked request durable, so the in-process
		// crash (which drops nothing that was fsynced) loses zero acked work.
		Fsync: wal.SyncAlways,
		// The periodic loop stays quiet; tests drive checkpoints explicitly.
		CheckpointInterval: time.Hour,
	}
}

// bootDurable builds a durable server plus an HTTP front for it.
func bootDurable(t *testing.T, dataDir string) (*server, *httptest.Server, *plandclient.Client) {
	t.Helper()
	s, err := newDurableServer(assign.NewPlanner(assign.PlannerConfig{}), durableConfig(dataDir))
	if err != nil {
		t.Fatalf("newDurableServer: %v", err)
	}
	srv := httptest.NewServer(s)
	return s, srv, plandclient.New(srv.URL)
}

// crash simulates a kill -9 after the last fsync: no final checkpoint, no
// close records, no done records for unfinished jobs.
func crash(t *testing.T, s *server, srv *httptest.Server) {
	t.Helper()
	srv.Close()
	s.stopCheckpointer()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.jobs.Shutdown(ctx)
	s.closeSessions()
	if err := s.wal.Close(); err != nil {
		t.Fatalf("wal close: %v", err)
	}
}

// blockWorkers occupies every job worker of s with an unjournaled job that
// returns only when the manager shuts down, so every job enqueued after it
// stays queued until the crash.
func blockWorkers(t *testing.T, s *server) {
	t.Helper()
	for range s.jobs.Stats().Workers {
		if _, err := s.jobs.Submit("block", func(ctx context.Context) (any, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		}); err != nil {
			t.Fatalf("Submit(block): %v", err)
		}
	}
}

// enqueueJournaled enqueues a plan job carrying its body as payload, as
// submitJob does; the enqueue appends its submit record.
func enqueueJournaled(t *testing.T, s *server, id string, body jobSubmitRequest, fn jobs.Func) jobs.Snapshot {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := s.jobs.Restore(id, body.Type, fn, payload)
	if err != nil {
		t.Fatalf("Restore(%s): %v", id, err)
	}
	return snap
}

func sessionFingerprint(t *testing.T, s *server, id string) uint64 {
	t.Helper()
	s.sessMu.Lock()
	entry := s.sessions[id]
	s.sessMu.Unlock()
	if entry == nil {
		t.Fatalf("session %s not live", id)
	}
	return entry.sess.State().Fingerprint()
}

func TestCrashRecoversSessions(t *testing.T) {
	dataDir := t.TempDir()
	ctx := context.Background()
	s1, srv1, c1 := bootDurable(t, dataDir)

	kept, err := c1.CreateSession(ctx, plandclient.SessionCreateRequest{
		Capacity: 64, Sizes: []assign.Size{8, 5, 7, 3, 9}, TimeoutMS: -1,
	})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	if _, err := c1.UpdateSession(ctx, kept.ID,
		plandclient.AddDelta(6),
		plandclient.RemoveDelta(1),
		plandclient.ResizeDelta(0, 12),
	); err != nil {
		t.Fatalf("UpdateSession: %v", err)
	}
	doomed, err := c1.CreateSession(ctx, plandclient.SessionCreateRequest{
		Capacity: 32, Sizes: []assign.Size{4, 4}, TimeoutMS: -1,
	})
	if err != nil {
		t.Fatalf("CreateSession(doomed): %v", err)
	}
	if _, err := c1.DeleteSession(ctx, doomed.ID); err != nil {
		t.Fatalf("DeleteSession: %v", err)
	}
	wantFP := sessionFingerprint(t, s1, kept.ID)
	wantStats := func() assign.SessionStats {
		s1.sessMu.Lock()
		defer s1.sessMu.Unlock()
		return s1.sessions[kept.ID].sess.Stats()
	}()
	crash(t, s1, srv1)

	s2, srv2, c2 := bootDurable(t, dataDir)
	defer func() {
		dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv2.Close()
		s2.Close(dctx)
	}()
	if got := sessionFingerprint(t, s2, kept.ID); got != wantFP {
		t.Fatalf("recovered fingerprint %#x, pre-crash %#x", got, wantFP)
	}
	gotStats := func() assign.SessionStats {
		s2.sessMu.Lock()
		defer s2.sessMu.Unlock()
		return s2.sessions[kept.ID].sess.Stats()
	}()
	if gotStats.Inputs != wantStats.Inputs || gotStats.Adds != wantStats.Adds ||
		gotStats.Removes != wantStats.Removes || gotStats.Version != wantStats.Version {
		t.Fatalf("recovered stats %+v, pre-crash %+v", gotStats, wantStats)
	}
	s2.sessMu.Lock()
	_, resurrected := s2.sessions[doomed.ID]
	s2.sessMu.Unlock()
	if resurrected {
		t.Fatalf("deleted session %s resurrected by recovery", doomed.ID)
	}

	// The recovered session must keep serving deltas over HTTP.
	patch, err := c2.UpdateSession(ctx, kept.ID, plandclient.AddDelta(5))
	if err != nil {
		t.Fatalf("UpdateSession after recovery: %v", err)
	}
	if patch.Applied != 1 {
		t.Fatalf("patch after recovery = %+v", patch)
	}
}

// TestCrashSurvivesCheckpoint is the same round trip with a compaction in
// the middle: the checkpoint must re-anchor everything it drops segments for.
func TestCrashSurvivesCheckpoint(t *testing.T) {
	dataDir := t.TempDir()
	ctx := context.Background()
	s1, srv1, c1 := bootDurable(t, dataDir)

	sess, err := c1.CreateSession(ctx, plandclient.SessionCreateRequest{
		Capacity: 64, Sizes: []assign.Size{8, 5, 7}, TimeoutMS: -1,
	})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	if _, err := c1.UpdateSession(ctx, sess.ID, plandclient.AddDelta(6), plandclient.AddDelta(2)); err != nil {
		t.Fatalf("UpdateSession: %v", err)
	}
	if err := s1.checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if n := s1.wal.Segments(); n != 1 {
		t.Fatalf("Segments() = %d after checkpoint, want 1", n)
	}
	// Deltas after the checkpoint replay on top of the barrier snapshot.
	if _, err := c1.UpdateSession(ctx, sess.ID, plandclient.RemoveDelta(0)); err != nil {
		t.Fatalf("UpdateSession post-checkpoint: %v", err)
	}
	wantFP := sessionFingerprint(t, s1, sess.ID)
	crash(t, s1, srv1)

	s2, srv2, _ := bootDurable(t, dataDir)
	defer func() {
		dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv2.Close()
		s2.Close(dctx)
	}()
	if got := sessionFingerprint(t, s2, sess.ID); got != wantFP {
		t.Fatalf("post-checkpoint recovery fingerprint %#x, pre-crash %#x", got, wantFP)
	}
}

func TestCrashReenqueuesJobs(t *testing.T) {
	dataDir := t.TempDir()
	ctx := context.Background()
	s1, srv1, c1 := bootDurable(t, dataDir)

	// A job that finishes before the crash must NOT re-run after it.
	done, err := c1.SubmitPlan(ctx, plandclient.PlanRequest{
		Problem: "A2A", Capacity: 10, Sizes: []assign.Size{3, 3, 2}, TimeoutMS: -1,
	})
	if err != nil {
		t.Fatalf("SubmitPlan: %v", err)
	}
	if _, err := c1.WaitJob(ctx, done.ID, 5*time.Millisecond); err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	// A journaled-but-unfinished job (accepted, then the process died before
	// a worker finished it) must come back. Queuing it behind blocked
	// workers pins the exact on-disk state such a job leaves.
	blockWorkers(t, s1)
	queuedBody := jobSubmitRequest{Type: jobTypePlan, Plan: &plandclient.PlanRequest{
		Problem: "A2A", Capacity: 10, Sizes: []assign.Size{4, 4, 1}, TimeoutMS: -1,
	}}
	run, aerr := s1.buildJobFunc(queuedBody)
	if aerr != nil {
		t.Fatalf("buildJobFunc: %v", aerr)
	}
	enqueueJournaled(t, s1, "j-queued", queuedBody, run)
	crash(t, s1, srv1)

	s2, srv2, c2 := bootDurable(t, dataDir)
	defer func() {
		dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv2.Close()
		s2.Close(dctx)
	}()
	if _, err := s2.jobs.Get(done.ID); !errors.Is(err, jobs.ErrNotFound) {
		t.Fatalf("finished job %s re-appeared after recovery: %v", done.ID, err)
	}
	job, err := c2.WaitJob(ctx, "j-queued", 5*time.Millisecond)
	if err != nil {
		t.Fatalf("recovered job: %v", err)
	}
	if job.State != "succeeded" {
		t.Fatalf("recovered job finished as %q: %+v", job.State, job.Error)
	}
}

// TestJobDoneBeforeItsSubmitRecordIsNotRerun: a checkpoint re-journals the
// jobs it lists as unfinished, and one may finish before its record lands.
// Its done record then precedes that submit record, and recovery must still
// see it finished.
func TestJobDoneBeforeItsSubmitRecordIsNotRerun(t *testing.T) {
	dataDir := t.TempDir()
	s1, srv1, _ := bootDurable(t, dataDir)
	body := jobSubmitRequest{Type: jobTypePlan, Plan: &plandclient.PlanRequest{
		Problem: "A2A", Capacity: 10, Sizes: []assign.Size{3, 3, 2}, TimeoutMS: -1,
	}}
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := s1.jobs.Restore("j-fast", jobTypePlan, func(context.Context) (any, error) { return nil, nil }, payload)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if got, err := s1.jobs.Get(snap.ID); err == nil && got.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
	}
	if err := s1.journalJobSubmit(snap); err != nil {
		t.Fatalf("journalJobSubmit: %v", err)
	}
	crash(t, s1, srv1)

	s2, srv2, _ := bootDurable(t, dataDir)
	defer func() {
		dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv2.Close()
		s2.Close(dctx)
	}()
	if got, err := s2.jobs.Get(snap.ID); !errors.Is(err, jobs.ErrNotFound) {
		t.Fatalf("job finished before the crash was re-enqueued: %+v", got)
	}
}

// TestCheckpointBeforeTheReplyKeepsTheDoneRecord: a checkpoint between a
// job's enqueue and the submit handler's reply, taken once the job finished,
// drops the segment holding its done record. The submit record went into
// that segment with the enqueue, so nothing of the job is left to re-run.
// Appended after the enqueue instead, the record would land in the barrier
// segment, and every later recovery would run the job again.
func TestCheckpointBeforeTheReplyKeepsTheDoneRecord(t *testing.T) {
	dataDir := t.TempDir()
	ctx := context.Background()
	s1, err := newDurableServer(assign.NewPlanner(assign.PlannerConfig{}), durableConfig(dataDir))
	if err != nil {
		t.Fatalf("newDurableServer: %v", err)
	}
	checkpointed := make(chan error, 1)
	s1.afterJobEnqueue = func(snap jobs.Snapshot) {
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			if got, err := s1.jobs.Get(snap.ID); err == nil && got.State.Terminal() {
				break
			}
			if time.Now().After(deadline) {
				checkpointed <- errors.New("job never finished")
				return
			}
		}
		checkpointed <- s1.checkpoint()
	}
	srv1 := httptest.NewServer(s1)
	job, err := plandclient.New(srv1.URL).SubmitPlan(ctx, plandclient.PlanRequest{
		Problem: "A2A", Capacity: 10, Sizes: []assign.Size{3, 3, 2}, TimeoutMS: -1,
	})
	if err != nil {
		t.Fatalf("SubmitPlan: %v", err)
	}
	if err := <-checkpointed; err != nil {
		t.Fatalf("checkpoint after the enqueue: %v", err)
	}
	crash(t, s1, srv1)

	s2, srv2, _ := bootDurable(t, dataDir)
	defer func() {
		dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv2.Close()
		s2.Close(dctx)
	}()
	if got, err := s2.jobs.Get(job.ID); !errors.Is(err, jobs.ErrNotFound) {
		t.Fatalf("job finished before the checkpoint was re-enqueued: %+v", got)
	}
}

// TestCheckpointKeepsJobsInSubmitOrder: a checkpoint re-journals the
// unfinished jobs in submit order, so recovery re-enqueues them in it.
func TestCheckpointKeepsJobsInSubmitOrder(t *testing.T) {
	dataDir := t.TempDir()
	ctx := context.Background()
	s1, srv1, c1 := bootDurable(t, dataDir)
	blockWorkers(t, s1)
	var want []string
	for i := range 8 {
		job, err := c1.SubmitPlan(ctx, plandclient.PlanRequest{
			Problem: "A2A", Capacity: 20, Sizes: []assign.Size{3, 3, assign.Size(1 + i)}, TimeoutMS: -1,
		})
		if err != nil {
			t.Fatalf("SubmitPlan: %v", err)
		}
		want = append(want, job.ID)
	}
	if err := s1.checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	crash(t, s1, srv1)

	log, err := wal.Open(dataDir, wal.Options{})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	rec, err := log.Recover()
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatalf("reading the log: %v", err)
	}
	var got []string
	for _, j := range rec.Jobs {
		got = append(got, j.ID)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovery re-enqueues %v, want submit order %v", got, want)
	}

	s2, srv2, c2 := bootDurable(t, dataDir)
	defer func() {
		dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv2.Close()
		s2.Close(dctx)
	}()
	for _, id := range want {
		job, err := c2.WaitJob(ctx, id, 5*time.Millisecond)
		if err != nil || job.State != "succeeded" {
			t.Fatalf("recovered job %s: %+v, %v", id, job, err)
		}
	}
}

// TestShutdownDrainPreservesState: a clean Close must behave like the WAL
// contract promises — drained sessions and still-queued jobs survive into
// the next boot (Close is a planned restart, not a data-loss event).
func TestShutdownDrainPreservesState(t *testing.T) {
	dataDir := t.TempDir()
	ctx := context.Background()
	s1, srv1, c1 := bootDurable(t, dataDir)

	sess, err := c1.CreateSession(ctx, plandclient.SessionCreateRequest{
		Capacity: 64, Sizes: []assign.Size{8, 5, 7}, TimeoutMS: -1,
	})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	wantFP := sessionFingerprint(t, s1, sess.ID)
	srv1.Close()
	dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := s1.Close(dctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	cancel()

	s2, srv2, _ := bootDurable(t, dataDir)
	defer func() {
		dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv2.Close()
		s2.Close(dctx)
	}()
	if got := sessionFingerprint(t, s2, sess.ID); got != wantFP {
		t.Fatalf("clean-restart fingerprint %#x, pre-restart %#x", got, wantFP)
	}
}

// TestSessionCreatesReserveTheirSlots fires more concurrent creates than
// MaxSessions admits. Each create reserves its slot before it plans, so
// exactly the limit get 201 and the rest 429 session_limit without planning,
// and a refused create leaves nothing in the log: it holds the admitted
// sessions' snapshots alone, and recovery restores exactly those.
func TestSessionCreatesReserveTheirSlots(t *testing.T) {
	dataDir := t.TempDir()
	ctx := context.Background()
	pl := assign.NewPlanner(assign.PlannerConfig{})
	cfg := durableConfig(dataDir)
	cfg.MaxSessions = 2
	s1, err := newDurableServer(pl, cfg)
	if err != nil {
		t.Fatalf("newDurableServer: %v", err)
	}
	srv1 := httptest.NewServer(s1)
	c1 := plandclient.New(srv1.URL)

	const creates = 8
	errs := make([]error, creates)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range creates {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, errs[i] = c1.CreateSession(ctx, plandclient.SessionCreateRequest{
				Capacity: 64, Sizes: []assign.Size{8, 5, 7, assign.Size(1 + i)}, TimeoutMS: -1,
			})
		}()
	}
	close(start)
	wg.Wait()
	admitted := 0
	for i, err := range errs {
		switch {
		case err == nil:
			admitted++
		case !plandclient.IsCode(err, plandclient.CodeSessionLimit):
			t.Fatalf("create %d: %v, want 201 or 429 session_limit", i, err)
		}
	}
	if admitted != cfg.MaxSessions {
		t.Fatalf("%d of %d creates admitted at MaxSessions %d", admitted, creates, cfg.MaxSessions)
	}
	if got := pl.Stats().Requests; got != uint64(cfg.MaxSessions) {
		t.Fatalf("the planner served %d plans, want one per admitted create", got)
	}
	crash(t, s1, srv1)

	log, err := wal.Open(dataDir, wal.Options{})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	rec, err := log.Recover()
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatalf("reading the log: %v", err)
	}
	if rec.Records != cfg.MaxSessions || len(rec.Sessions) != cfg.MaxSessions {
		t.Fatalf("the log holds %d records for %d sessions, want only the %d admitted sessions' snapshots",
			rec.Records, len(rec.Sessions), cfg.MaxSessions)
	}

	s2, srv2, _ := bootDurable(t, dataDir)
	defer func() {
		dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv2.Close()
		s2.Close(dctx)
	}()
	if live := len(s2.liveSessions()); live != cfg.MaxSessions {
		t.Fatalf("recovery restored %d sessions, want %d", live, cfg.MaxSessions)
	}
}

// TestDurableJobSubmitHasWALAppendStage: a job submit on a durable server
// appends its submit record inside the enqueue, and the submit's trace shows
// that as a "wal_append" stage of the POST /v2/jobs span.
func TestDurableJobSubmitHasWALAppendStage(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	cfg.TraceSampleRate = 1
	s, err := newDurableServer(assign.NewPlanner(assign.PlannerConfig{}), cfg)
	if err != nil {
		t.Fatalf("newDurableServer: %v", err)
	}
	srv := httptest.NewServer(s)
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	ctx := context.Background()
	job, err := plandclient.New(srv.URL).SubmitPlan(ctx, plandclient.PlanRequest{
		Problem: "A2A", Capacity: 10, Sizes: []assign.Size{3, 3, 2}, TimeoutMS: -1,
	})
	if err != nil {
		t.Fatalf("SubmitPlan: %v", err)
	}
	for _, rec := range traceRecords(t, s, job.TraceID) {
		if rec.Route == "/v2/jobs" {
			if findSpan(rec.Root, "wal_append") == nil {
				t.Fatalf("the submit's span has no wal_append stage: %+v", rec.Root)
			}
			return
		}
	}
	t.Fatalf("trace %s holds no /v2/jobs record", job.TraceID)
}
