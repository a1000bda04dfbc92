package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/pkg/assign/plandclient"
)

// Job kinds of the v2 API.
const (
	jobTypePlan    = "plan"
	jobTypeExecute = "execute"
)

// jobSubmitRequest is the JSON body of POST /v2/jobs: one job of either
// kind, with the same payload the synchronous v1 endpoint takes. (The client
// builds it through SubmitPlan and SubmitExecute and exports no type for it.)
type jobSubmitRequest struct {
	// Type is "plan" or "execute".
	Type string `json:"type"`
	// Plan is the job payload when Type is "plan".
	Plan *plandclient.PlanRequest `json:"plan,omitempty"`
	// Execute is the job payload when Type is "execute".
	Execute *plandclient.ExecuteRequest `json:"execute,omitempty"`
}

// jobResponse is the JSON view of one job, returned by every v2 endpoint. It
// is plandclient.Job seen from the writing side — the one wire type that
// stays two, because the server encodes the result value it holds where the
// client keeps the raw bytes to decode by job type — and wire_test.go holds
// the two to the same fields.
type jobResponse struct {
	ID    string `json:"id"`
	Type  string `json:"type"`
	State string `json:"state"`
	// CreatedAt/StartedAt/FinishedAt stamp the lifecycle transitions;
	// ExpiresAt is when a finished job's result is evicted.
	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
	ExpiresAt  *time.Time `json:"expires_at,omitempty"`
	// Result is the plan or execute result (a rebuild report for a session's
	// rebuild job) once State is "succeeded".
	Result any `json:"result,omitempty"`
	// Error carries the failure code and message once State is "failed" or
	// "canceled".
	Error *plandclient.ErrorBody `json:"error,omitempty"`
}

// jobView converts a manager snapshot into the wire shape.
func jobView(snap jobs.Snapshot) jobResponse {
	resp := jobResponse{
		ID:        snap.ID,
		Type:      snap.Kind,
		State:     string(snap.State),
		CreatedAt: snap.Created,
		Result:    snap.Result,
	}
	stamp := func(t time.Time) *time.Time {
		if t.IsZero() {
			return nil
		}
		return &t
	}
	resp.StartedAt = stamp(snap.Started)
	resp.FinishedAt = stamp(snap.Finished)
	resp.ExpiresAt = stamp(snap.ExpiresAt)
	switch {
	case snap.State == jobs.StateCanceled:
		// Cancellation wins over however the solver's abort surfaced (a raw
		// context error when queued, a plan_timeout-shaped wrapper when the
		// running portfolio was cut short): the client asked, the client
		// gets the canceled code it can branch on.
		resp.Error = &plandclient.ErrorBody{Code: plandclient.CodeCanceled, Message: "job canceled"}
	case snap.Err != nil:
		resp.Error = &jobError(snap.Err).ErrorBody
	}
	return resp
}

// jobError maps a failed job's error to the stable envelope codes.
// Handler-built *apiError values round-trip intact; everything else is
// classified.
func jobError(err error) *apiError {
	var aerr *apiError
	switch {
	case errors.As(err, &aerr):
		return aerr
	case errors.Is(err, jobs.ErrShutdown):
		return newAPIError(http.StatusServiceUnavailable, plandclient.CodeShuttingDown, err.Error(), nil)
	default:
		return newAPIError(http.StatusInternalServerError, plandclient.CodeInternal, err.Error(), nil)
	}
}

// submitJob serves POST /v2/jobs: validate synchronously (a malformed job
// fails fast with 400), then enqueue the solve itself under the ID the route
// drew — placement routed the create to that ID's ring owner, exactly like
// session creation, so polls route the same way. A full queue pushes back
// with 429 rather than buffering without bound.
func (s *server) submitJob(w http.ResponseWriter, r *http.Request) {
	var body jobSubmitRequest
	if !s.decodeBody(w, r, &body) {
		return
	}
	run, aerr := s.buildJobFunc(body)
	if aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	var payload []byte // the WAL submit record's body; none without a WAL
	walAppended := func() {}
	if s.wal != nil {
		payload, _ = json.Marshal(body) // a body decoded from JSON re-encodes
		// Restore appends the submit record in its critical section (the
		// manager's OnEnqueue hook, which has no request context): that
		// append is the section's only I/O, so the call is the stage.
		walAppended = obs.SpanFrom(r.Context()).Stage("wal_append")
	}
	snap, err := s.jobs.Restore(r.PathValue("id"), body.Type, s.traceJobFunc(body.Type, r.Context(), run), payload)
	walAppended()
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		writeAPIError(w, newAPIError(http.StatusTooManyRequests, plandclient.CodeQueueFull,
			"job queue is full, retry later", nil))
		return
	case errors.Is(err, jobs.ErrShutdown):
		writeAPIError(w, newAPIError(http.StatusServiceUnavailable, plandclient.CodeShuttingDown,
			"server is shutting down", nil))
		return
	case err != nil:
		writeAPIError(w, newAPIError(http.StatusInternalServerError, plandclient.CodeInternal, err.Error(), nil))
		return
	}
	if s.afterJobEnqueue != nil {
		s.afterJobEnqueue(snap)
	}
	writeJSON(w, http.StatusAccepted, jobView(snap))
}

// buildJobFunc validates a job payload and binds it into the closure the job
// queue runs. Submission and boot-time recovery share it, so a journaled job
// re-enqueues with exactly the semantics it was accepted with.
func (s *server) buildJobFunc(body jobSubmitRequest) (jobs.Func, *apiError) {
	switch body.Type {
	case jobTypePlan:
		if body.Plan == nil {
			return nil, badRequestf(`job type "plan" needs a "plan" payload`)
		}
		opts, aerr := s.planOptions(*body.Plan)
		if aerr != nil {
			return nil, aerr
		}
		return jobRun(s, func(ctx context.Context) (*plandclient.PlanResult, *apiError) {
			return s.runPlan(ctx, opts)
		}), nil
	case jobTypeExecute:
		if body.Execute == nil {
			return nil, badRequestf(`job type "execute" needs an "execute" payload`)
		}
		opts, aerr := s.executeOptions(*body.Execute)
		if aerr != nil {
			return nil, aerr
		}
		returnPairs := body.Execute.ReturnPairs
		return jobRun(s, func(ctx context.Context) (*plandclient.ExecuteResult, *apiError) {
			return s.runExecute(ctx, opts, returnPairs)
		}), nil
	default:
		return nil, badRequestf(`job type must be "plan" or "execute", got %q`, body.Type)
	}
}

// jobRun makes a job of one of the two cores the synchronous endpoints run,
// under the job budget instead of the request's.
func jobRun[T any](s *server, run func(context.Context) (*T, *apiError)) jobs.Func {
	return func(ctx context.Context) (any, error) {
		jctx, cancel := context.WithTimeout(ctx, s.cfg.MaxJobTimeout)
		defer cancel()
		resp, aerr := run(jctx)
		if aerr != nil {
			return nil, aerr
		}
		return resp, nil
	}
}

// traceJobFunc wraps a job closure in its own trace root ("job:<kind>") that
// joins the submitting request's trace, so an async solve shows up under the
// same trace ID as the POST that enqueued it — with the queue wait and the
// run as separate child spans. submitCtx is read now (the request context
// dies when the response goes out); the returned closure runs later under
// the manager's context.
func (s *server) traceJobFunc(kind string, submitCtx context.Context, fn jobs.Func) jobs.Func {
	submitted := time.Now()
	rid := obs.RequestID(submitCtx)
	parent, _ := obs.TraceContextFrom(submitCtx)
	return func(ctx context.Context) (any, error) {
		if rid != "" {
			ctx = obs.WithRequestID(ctx, rid)
		}
		ctx = obs.WithTraceContext(ctx, parent)
		ctx = obs.WithRecorder(ctx, s.recorder)
		ctx, sp := obs.StartSpan(ctx, "job:"+kind)
		sp.StageAt("queue_wait", submitted)()
		done := sp.Stage("run")
		res, err := fn(ctx)
		done()
		if err != nil {
			sp.SetError(err.Error())
		}
		sp.End()
		return res, err
	}
}

// holdsJob reports whether the job is queued, running or retained on this
// node.
func (s *server) holdsJob(id string) bool {
	_, err := s.jobs.Get(id)
	return err == nil
}

// getJob serves GET /v2/jobs/{id}.
func (s *server) getJob(w http.ResponseWriter, r *http.Request) {
	snap, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		writeAPIError(w, notFound("no such job (unknown ID, or result expired)"))
		return
	}
	writeJSON(w, http.StatusOK, jobView(snap))
}

// cancelJob serves DELETE /v2/jobs/{id}.
func (s *server) cancelJob(w http.ResponseWriter, r *http.Request) {
	snap, err := s.jobs.Cancel(r.PathValue("id"))
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		writeAPIError(w, notFound("no such job (unknown ID, or result expired)"))
	case errors.Is(err, jobs.ErrFinished):
		writeAPIError(w, newAPIError(http.StatusConflict, plandclient.CodeConflict,
			"job already finished in state "+string(snap.State), nil))
	default:
		writeJSON(w, http.StatusOK, jobView(snap))
	}
}
