package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/pkg/assign"
	"repro/pkg/assign/plandclient"
)

// newTestServerWithJobs builds a server whose job manager the test can also
// reach directly (to inject blockers deterministically), plus a plandclient
// on it.
func newTestServerWithJobs(t *testing.T, cfg serverConfig) (*server, *plandclient.Client) {
	t.Helper()
	s := newServer(assign.NewPlanner(assign.PlannerConfig{}), cfg)
	srv := httptest.NewServer(s)
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	return s, plandclient.New(srv.URL)
}

// TestJobLifecyclePlan drives submit→poll→result end to end through the SDK
// client: the job must pass through a terminal succeeded state and carry a
// valid, decodable plan.
func TestJobLifecyclePlan(t *testing.T) {
	_, c := newTestServerWithJobs(t, serverConfig{})
	ctx := context.Background()
	job, err := c.SubmitPlan(ctx, plandclient.PlanRequest{
		Problem: "A2A", Capacity: 10, Sizes: []assign.Size{3, 3, 2, 2, 4, 1}, TimeoutMS: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if job.ID == "" || job.Type != "plan" || job.Terminal() {
		t.Fatalf("submitted job = %+v", job)
	}
	final, err := c.WaitJob(ctx, job.ID, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != plandclient.StateSucceeded {
		t.Fatalf("final state = %s (err %v)", final.State, final.Err())
	}
	if final.StartedAt == nil || final.FinishedAt == nil || final.ExpiresAt == nil {
		t.Errorf("missing lifecycle stamps: %+v", final)
	}
	res, err := final.PlanResult()
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema == nil || res.Reducers == 0 {
		t.Fatalf("result = %+v", res)
	}
	if err := res.Schema.ValidateA2A(assign.MustNewInputSet([]assign.Size{3, 3, 2, 2, 4, 1})); err != nil {
		t.Errorf("async-planned schema invalid: %v", err)
	}
}

// TestJobLifecycleExecute runs an execute job asynchronously and checks the
// audited result round-trips.
func TestJobLifecycleExecute(t *testing.T) {
	_, c := newTestServerWithJobs(t, serverConfig{})
	ctx := context.Background()
	job, err := c.SubmitExecute(ctx, plandclient.ExecuteRequest{
		Problem: "A2A", Capacity: 10, Inputs: []string{"aaa", "bbb", "cc", "d"}, ReturnPairs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if job, err = c.WaitJob(ctx, job.ID, 2*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	res, err := job.ExecuteResult()
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs != 6 || !res.Audited || len(res.PairIDs) != 6 {
		t.Errorf("async execute result = %+v", res)
	}
}

// TestJobSubmitValidation: malformed jobs fail synchronously at submit with
// the envelope, never entering the queue.
func TestJobSubmitValidation(t *testing.T) {
	s, c := newTestServerWithJobs(t, serverConfig{})
	ctx := context.Background()
	cases := []struct {
		name string
		req  plandclient.PlanRequest
	}{
		{"no sizes", plandclient.PlanRequest{Problem: "A2A", Capacity: 10}},
		{"bad capacity", plandclient.PlanRequest{Problem: "A2A", Sizes: []assign.Size{1}}},
		{"bad problem", plandclient.PlanRequest{Problem: "nope", Capacity: 10, Sizes: []assign.Size{1}}},
	}
	for _, tc := range cases {
		if _, err := c.SubmitPlan(ctx, tc.req); !plandclient.IsCode(err, plandclient.CodeBadRequest) {
			t.Errorf("%s: err = %v, want bad_request", tc.name, err)
		}
	}
	if st := s.jobs.Stats(); st.Submitted != 0 {
		t.Errorf("invalid jobs were enqueued: %+v", st)
	}
}

// blockWorker occupies n of the manager's workers until the returned release
// is called (or the server shuts down).
func blockWorker(t *testing.T, m *jobs.Manager, n int) (release func()) {
	t.Helper()
	ch := make(chan struct{})
	started := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		_, err := m.Submit("blocker", func(ctx context.Context) (any, error) {
			started <- struct{}{}
			select {
			case <-ch:
			case <-ctx.Done():
			}
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("blocker never started")
		}
	}
	var once sync.Once
	return func() { once.Do(func() { close(ch) }) }
}

// TestJobCancelQueued: with the single worker occupied, a submitted job
// stays queued; DELETE cancels it immediately and the worker never runs it.
func TestJobCancelQueued(t *testing.T) {
	s, c := newTestServerWithJobs(t, serverConfig{JobWorkers: 1, QueueDepth: 8})
	release := blockWorker(t, s.jobs, 1)
	defer release()
	ctx := context.Background()
	job, err := c.SubmitPlan(ctx, plandclient.PlanRequest{Problem: "A2A", Capacity: 10, Sizes: []assign.Size{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.CancelJob(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != plandclient.StateCanceled {
		t.Fatalf("state after cancel = %s, want canceled", got.State)
	}
	if !plandclient.IsCode(got.Err(), plandclient.CodeCanceled) {
		t.Errorf("canceled job error = %v", got.Err())
	}
	release()
	// The worker must skip it: the job stays canceled with no result.
	time.Sleep(20 * time.Millisecond)
	again, err := c.GetJob(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if again.State != plandclient.StateCanceled || len(again.Result) != 0 {
		t.Errorf("canceled job was still run: %+v", again)
	}
	// Canceling a terminal job is a conflict.
	if _, err := c.CancelJob(ctx, job.ID); !plandclient.IsCode(err, plandclient.CodeConflict) {
		t.Errorf("second cancel err = %v, want conflict", err)
	}
}

// TestJobCancelRunningReportsCanceledCode: canceling a RUNNING job must
// surface the "canceled" envelope code, even though the aborted solver
// inside surfaces its context error as a plan_timeout-shaped apiError.
func TestJobCancelRunningReportsCanceledCode(t *testing.T) {
	s, c := newTestServerWithJobs(t, serverConfig{JobWorkers: 1})
	started := make(chan struct{})
	snap, err := s.jobs.Submit("plan", func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, planError(ctx.Err()) // exactly what runPlan surfaces on abort
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx := context.Background()
	if _, err := c.CancelJob(ctx, snap.ID); err != nil {
		t.Fatal(err)
	}
	final, err := c.WaitJob(ctx, snap.ID, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != plandclient.StateCanceled {
		t.Fatalf("state = %s, want canceled", final.State)
	}
	if !plandclient.IsCode(final.Err(), plandclient.CodeCanceled) {
		t.Errorf("running-cancel error = %v, want code canceled (not the solver's abort shape)", final.Err())
	}
}

// TestJobBackpressure429: one busy worker + depth-1 queue → the second
// waiting submit is refused with 429/queue_full.
func TestJobBackpressure429(t *testing.T) {
	s, c := newTestServerWithJobs(t, serverConfig{JobWorkers: 1, QueueDepth: 1})
	release := blockWorker(t, s.jobs, 1)
	defer release()
	ctx := context.Background()
	req := plandclient.PlanRequest{Problem: "A2A", Capacity: 10, Sizes: []assign.Size{1, 1}}
	if _, err := c.SubmitPlan(ctx, req); err != nil {
		t.Fatalf("queue-filling submit: %v", err)
	}
	_, err := c.SubmitPlan(ctx, req)
	if !plandclient.IsCode(err, plandclient.CodeQueueFull) {
		t.Fatalf("overflow submit err = %v, want queue_full", err)
	}
	var ae *plandclient.APIError
	if plandclient.IsCode(err, plandclient.CodeQueueFull) {
		ae = err.(*plandclient.APIError)
		if ae.StatusCode != http.StatusTooManyRequests {
			t.Errorf("status = %d, want 429", ae.StatusCode)
		}
	}
}

// TestJobResultTTLExpiry: a finished job's result disappears (404) after
// the retention TTL.
func TestJobResultTTLExpiry(t *testing.T) {
	_, c := newTestServerWithJobs(t, serverConfig{ResultTTL: 40 * time.Millisecond})
	ctx := context.Background()
	job, err := c.SubmitPlan(ctx, plandclient.PlanRequest{Problem: "A2A", Capacity: 10, Sizes: []assign.Size{2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitJob(ctx, job.ID, 2*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := c.GetJob(ctx, job.ID)
		if plandclient.IsCode(err, plandclient.CodeNotFound) {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("job result never expired")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobEndpointsMethodAndPath: wrong methods and unknown IDs keep the
// envelope contract.
func TestJobEndpointsMethodAndPath(t *testing.T) {
	_, c := newTestServerWithJobs(t, serverConfig{})
	ctx := context.Background()
	if _, err := c.GetJob(ctx, "doesnotexist"); !plandclient.IsCode(err, plandclient.CodeNotFound) {
		t.Errorf("unknown job err = %v, want not_found", err)
	}
	if _, err := c.CancelJob(ctx, "doesnotexist"); !plandclient.IsCode(err, plandclient.CodeNotFound) {
		t.Errorf("cancel unknown job err = %v, want not_found", err)
	}
}

// TestJobsConcurrentHammer hammers the HTTP surface with concurrent
// submits, polls, and cancels; run under -race in CI.
func TestJobsConcurrentHammer(t *testing.T) {
	s, c := newTestServerWithJobs(t, serverConfig{JobWorkers: 4, QueueDepth: 512})
	ctx := context.Background()
	const goroutines = 6
	const perG = 15
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Vary the instance so solves are not all cache hits.
				sizes := []assign.Size{1, 2, 3, assign.Size(1 + (g+i)%5)}
				job, err := c.SubmitPlan(ctx, plandclient.PlanRequest{Problem: "A2A", Capacity: 10, Sizes: sizes})
				if err != nil {
					if plandclient.IsCode(err, plandclient.CodeQueueFull) {
						continue
					}
					t.Errorf("submit: %v", err)
					return
				}
				switch i % 3 {
				case 0:
					if _, err := c.WaitJob(ctx, job.ID, time.Millisecond); err != nil {
						t.Errorf("wait: %v", err)
					}
				case 1:
					c.CancelJob(ctx, job.ID)
				default:
					c.GetJob(ctx, job.ID)
				}
			}
		}(g)
	}
	wg.Wait()
	// Every accepted job must drain to a terminal state.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.jobs.Stats()
		if st.Succeeded+st.Failed+st.Canceled == st.Submitted {
			if st.Failed != 0 {
				t.Errorf("hammer produced %d failed jobs", st.Failed)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs never drained: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestShutdownFailsJobsWithReason: server Close (the SIGTERM path) marks
// still-queued jobs failed with a shutdown reason; they are not dropped.
func TestShutdownFailsJobsWithReason(t *testing.T) {
	s := newServer(assign.NewPlanner(assign.PlannerConfig{}), serverConfig{JobWorkers: 1, QueueDepth: 8})
	srv := httptest.NewServer(s)
	defer srv.Close()
	c := plandclient.New(srv.URL)
	release := blockWorker(t, s.jobs, 1)
	defer release()
	job, err := c.SubmitPlan(context.Background(), plandclient.PlanRequest{Problem: "A2A", Capacity: 10, Sizes: []assign.Size{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got, err := c.GetJob(context.Background(), job.ID)
	if err != nil {
		t.Fatalf("job dropped by shutdown: %v", err)
	}
	if got.State != plandclient.StateFailed || !plandclient.IsCode(got.Err(), plandclient.CodeShuttingDown) {
		t.Errorf("after shutdown: state=%s err=%v, want failed/shutting_down", got.State, got.Err())
	}
	// New submits are refused while shut down.
	if _, err := c.SubmitPlan(context.Background(), plandclient.PlanRequest{Problem: "A2A", Capacity: 10, Sizes: []assign.Size{1, 1}}); !plandclient.IsCode(err, plandclient.CodeShuttingDown) {
		t.Errorf("submit after shutdown err = %v, want shutting_down", err)
	}
}
