// Package plandclient is the Go client of the pland HTTP service: the
// synchronous v1 endpoints (Plan, Execute), the asynchronous v2 job API
// (SubmitPlan, SubmitExecute, GetJob, CancelJob, and the WaitJob polling
// helper with exponential backoff), and the v2 session API for live,
// continuously-maintained assignments (CreateSession, UpdateSession with
// delta batches, GetSession, DeleteSession). It is part of the public SDK
// surface; see pkg/assign for the compatibility contract.
package plandclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/pkg/assign"
)

// Client talks to one pland server. The zero value is not usable; use New.
// Clients are safe for concurrent use.
type Client struct {
	baseURL string
	httpc   *http.Client
	// sleep parks between WaitJob polls; tests replace it to observe the
	// backoff schedule without waiting it out.
	sleep func(ctx context.Context, d time.Duration) error
}

// Option configures New.
type Option func(*Client)

// WithHTTPClient uses c instead of a default client with a 30s overall
// timeout. Pass a client without timeout when long synchronous solves (or
// slow WaitJob polls) must not be cut off mid-request.
func WithHTTPClient(c *http.Client) Option {
	return func(cl *Client) { cl.httpc = c }
}

// New builds a client for the pland server at baseURL (e.g.
// "http://localhost:8080").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		baseURL: strings.TrimRight(baseURL, "/"),
		httpc:   &http.Client{Timeout: 30 * time.Second},
		sleep:   sleepCtx,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// sleepCtx sleeps for d or until ctx ends.
func sleepCtx(ctx context.Context, d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// APIError is a pland error envelope: a stable machine-readable Code, a
// human Message, and the HTTP status it arrived with.
type APIError struct {
	StatusCode int
	Code       string
	Message    string
	// RequestID is the server's X-Request-ID correlation header, when the
	// error arrived as an HTTP response. Quote it when reporting a failure:
	// the server's request log carries the same ID.
	RequestID string
	// TraceID is the trace ID from the response's traceparent header, when
	// the error arrived as an HTTP response from a tracing-enabled server.
	// Feed it to GET /debug/traces/{id} to pull the request's span tree.
	TraceID string
	// Attempts is how many round trips the client made before this error
	// surfaced: 1 for a plain failure, more when the retry layer (idempotent
	// GETs on transport errors, refused connections on any method) burned
	// through its budget first.
	Attempts int
}

func (e *APIError) Error() string {
	var msg string
	if e.StatusCode == 0 { // e.g. an error carried inside a job body, not a response status
		msg = fmt.Sprintf("pland: %s (%s)", e.Message, e.Code)
	} else {
		msg = fmt.Sprintf("pland: %s (%s, HTTP %d)", e.Message, e.Code, e.StatusCode)
	}
	if e.Attempts > 1 {
		msg += fmt.Sprintf(" [after %d attempts]", e.Attempts)
	}
	if e.RequestID != "" {
		msg += " [request " + e.RequestID + "]"
	}
	if e.TraceID != "" {
		msg += " [trace " + e.TraceID + "]"
	}
	return msg
}

// ErrorBody is the error object of the wire: what the envelope
// {"error":{"code":"...","message":"..."}} of every failed call carries, and
// what a failed job or a failed session delta carries inside an otherwise
// successful reply. The HTTP status travels out of band.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// apiError is the body as the *APIError the Err methods return, nil for nil.
func (e *ErrorBody) apiError() error {
	if e == nil {
		return nil
	}
	return &APIError{Code: e.Code, Message: e.Message}
}

// Error codes the server emits; compare against APIError.Code.
const (
	CodeBadRequest       = "bad_request"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeNotFound         = "not_found"
	CodeConflict         = "conflict"
	CodeQueueFull        = "queue_full"
	CodeSessionLimit     = "session_limit"
	CodeUnprocessable    = "unprocessable"
	CodePlanTimeout      = "plan_timeout"
	CodeCanceled         = "canceled"
	CodeShuttingDown     = "shutting_down"
	CodeNotOwner         = "not_owner"
	CodePeerUnreachable  = "peer_unreachable"
	CodeInternal         = "internal"

	// CodeTransport is client-side: the request never produced an HTTP
	// response (refused connection, reset, DNS failure) even after the retry
	// layer's budget. APIError.StatusCode is 0 for it.
	CodeTransport = "transport"
)

// The request and result types below are the wire itself: pland decodes and
// encodes these very structs, so a field exists on both sides or on neither.
// Fields tagged `json:"-"` are the client's own.

// PlanRequest is the body of POST /v1/plan and of "plan" jobs.
type PlanRequest struct {
	// Problem is "A2A" or "X2Y".
	Problem string `json:"problem"`
	// Capacity is the reducer capacity q.
	Capacity assign.Size `json:"capacity"`
	// Sizes holds the A2A input sizes; XSizes/YSizes the X2Y sides.
	Sizes  []assign.Size `json:"sizes,omitempty"`
	XSizes []assign.Size `json:"x_sizes,omitempty"`
	YSizes []assign.Size `json:"y_sizes,omitempty"`
	// TimeoutMS is accepted for compatibility and does not change the plan:
	// the server's portfolio members are each bounded on their own, so a
	// plan is the same for one instance whatever the budget. The server's
	// -max-timeout (synchronous) or -max-job-timeout (v2 jobs) bounds how
	// long a request may take.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// NoCache skips the server's canonicalization cache for this request.
	NoCache bool `json:"no_cache,omitempty"`
}

// PlanResult is the answer of a plan call or a succeeded "plan" job.
type PlanResult struct {
	Schema             *assign.MappingSchema `json:"schema"`
	Reducers           int                   `json:"reducers"`
	Communication      assign.Size           `json:"communication"`
	ReplicationRate    float64               `json:"replication_rate"`
	MaxLoad            assign.Size           `json:"max_load"`
	Winner             string                `json:"winner"`
	LowerBoundReducers int                   `json:"lower_bound_reducers"`
	Gap                int                   `json:"gap"`
	Candidates         int                   `json:"candidates"`
	CacheHit           bool                  `json:"cache_hit"`
	SharedFlight       bool                  `json:"shared_flight"`
	// FleetCacheHit marks a result served from the fleet-wide cluster cache:
	// another node solved this canonical instance and the key's ring owner
	// served it from its shard.
	FleetCacheHit bool  `json:"fleet_cache_hit,omitempty"`
	ElapsedMicros int64 `json:"elapsed_us"`
	// RequestID is the server's X-Request-ID for the call that produced this
	// result; it matches the server's request log line. TraceID is the trace
	// from the response's traceparent header (empty on older servers); fetch
	// its span tree via GET /debug/traces/{id}.
	RequestID string `json:"-"`
	TraceID   string `json:"-"`
}

// ExecuteRequest is the body of POST /v1/execute and of "execute" jobs.
// Input sizes are the payload byte lengths, so the planned schema's capacity
// bound is about the very bytes that are shuffled.
type ExecuteRequest struct {
	// Problem is "A2A" or "X2Y".
	Problem string `json:"problem"`
	// Capacity is the reducer capacity q in bytes.
	Capacity assign.Size `json:"capacity"`
	// Inputs holds the A2A payloads; XInputs/YInputs the X2Y sides.
	Inputs  []string `json:"inputs,omitempty"`
	XInputs []string `json:"x_inputs,omitempty"`
	YInputs []string `json:"y_inputs,omitempty"`
	// TimeoutMS and NoCache mean what they mean in PlanRequest.
	TimeoutMS int  `json:"timeout_ms,omitempty"`
	NoCache   bool `json:"no_cache,omitempty"`
	// ReturnPairs includes the processed pair IDs in the result (capped
	// server-side).
	ReturnPairs bool `json:"return_pairs,omitempty"`
	// MemoryBudget, when positive, bounds the execution's in-memory shuffle
	// bytes; over-budget reduce partitions spill sorted runs to disk on the
	// server and merge them back at reduce time. The output is unchanged and
	// the result reports the realized spill volume.
	MemoryBudget int64 `json:"memory_budget,omitempty"`
}

// ExecuteResult is the answer of an execute call or a succeeded "execute"
// job.
type ExecuteResult struct {
	Schema         *assign.MappingSchema `json:"schema"`
	Reducers       int                   `json:"reducers"`
	Winner         string                `json:"winner"`
	CacheHit       bool                  `json:"cache_hit"`
	Pairs          int64                 `json:"pairs"`
	PairIDs        []string              `json:"pair_ids,omitempty"`
	ShuffleRecords int64                 `json:"shuffle_records"`
	ShuffleBytes   int64                 `json:"shuffle_bytes"`
	MaxReducerLoad int64                 `json:"max_reducer_load"`
	// Spill figures are zero unless the request set a MemoryBudget the run
	// exceeded.
	SpillRuns       int64 `json:"spill_runs,omitempty"`
	SpillPartitions int64 `json:"spill_partitions,omitempty"`
	SpillBytes      int64 `json:"spill_bytes,omitempty"`
	Audited         bool  `json:"audited"`
	ElapsedMicros   int64 `json:"elapsed_us"`
	// RequestID is the server's X-Request-ID for the call that produced this
	// result; it matches the server's request log line. TraceID is the trace
	// from the response's traceparent header (empty on older servers); fetch
	// its span tree via GET /debug/traces/{id}.
	RequestID string `json:"-"`
	TraceID   string `json:"-"`
}

// Job states of the v2 API.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateSucceeded = "succeeded"
	StateFailed    = "failed"
	StateCanceled  = "canceled"
)

// Job is the v2 view of one asynchronous job.
type Job struct {
	ID    string `json:"id"`
	Type  string `json:"type"`
	State string `json:"state"`
	// CreatedAt/StartedAt/FinishedAt stamp the lifecycle; ExpiresAt is when
	// a finished job's result is evicted server-side.
	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
	ExpiresAt  *time.Time `json:"expires_at,omitempty"`
	// Result is the raw result payload once State is "succeeded"; decode
	// with PlanResult or ExecuteResult.
	Result json.RawMessage `json:"result,omitempty"`
	// Error is the failure reason once State is "failed" or "canceled".
	Error *ErrorBody `json:"error,omitempty"`
	// RequestID is the server's X-Request-ID of the call this view came from
	// (submit or poll), not a property of the job itself. TraceID is that
	// call's trace from the response's traceparent header.
	RequestID string `json:"-"`
	TraceID   string `json:"-"`
}

// Terminal reports whether the job reached a final state.
func (j *Job) Terminal() bool {
	return j.State == StateSucceeded || j.State == StateFailed || j.State == StateCanceled
}

// Err converts a failed or canceled job's error payload into an *APIError
// (nil when the job carries no error).
func (j *Job) Err() error { return j.Error.apiError() }

// PlanResult decodes a succeeded "plan" job's result.
func (j *Job) PlanResult() (*PlanResult, error) { return jobResult[PlanResult](j, "plan") }

// ExecuteResult decodes a succeeded "execute" job's result.
func (j *Job) ExecuteResult() (*ExecuteResult, error) { return jobResult[ExecuteResult](j, "execute") }

// jobResult decodes a succeeded job's result; it came with the poll that
// returned the job, so it carries that call's identity.
func jobResult[R any, P reply[R]](j *Job, kind string) (*R, error) {
	if j.State != StateSucceeded {
		return nil, fmt.Errorf("plandclient: job %s is %s, not succeeded", j.ID, j.State)
	}
	out := new(R)
	if err := json.Unmarshal(j.Result, out); err != nil {
		return nil, fmt.Errorf("plandclient: decoding %s result: %w", kind, err)
	}
	P(out).stamp(callMeta{requestID: j.RequestID, traceID: j.TraceID})
	return out, nil
}

// Plan solves synchronously via POST /v1/plan.
func (c *Client) Plan(ctx context.Context, req PlanRequest) (*PlanResult, error) {
	return call[PlanResult](ctx, c, http.MethodPost, "/v1/plan", req)
}

// Execute plans and runs synchronously via POST /v1/execute.
func (c *Client) Execute(ctx context.Context, req ExecuteRequest) (*ExecuteResult, error) {
	return call[ExecuteResult](ctx, c, http.MethodPost, "/v1/execute", req)
}

// jobSubmit mirrors the server's POST /v2/jobs body.
type jobSubmit struct {
	Type    string          `json:"type"`
	Plan    *PlanRequest    `json:"plan,omitempty"`
	Execute *ExecuteRequest `json:"execute,omitempty"`
}

// SubmitPlan enqueues an asynchronous "plan" job and returns its queued
// state. A full queue surfaces as an *APIError with CodeQueueFull.
func (c *Client) SubmitPlan(ctx context.Context, req PlanRequest) (*Job, error) {
	return call[Job](ctx, c, http.MethodPost, "/v2/jobs", jobSubmit{Type: "plan", Plan: &req})
}

// SubmitExecute enqueues an asynchronous "execute" job.
func (c *Client) SubmitExecute(ctx context.Context, req ExecuteRequest) (*Job, error) {
	return call[Job](ctx, c, http.MethodPost, "/v2/jobs", jobSubmit{Type: "execute", Execute: &req})
}

// GetJob polls one job's state via GET /v2/jobs/{id}.
func (c *Client) GetJob(ctx context.Context, id string) (*Job, error) {
	return call[Job](ctx, c, http.MethodGet, "/v2/jobs/"+id, nil)
}

// CancelJob cancels a queued or running job via DELETE /v2/jobs/{id}. A
// running job reports canceled only once its solver observes the
// cancellation — follow with WaitJob to see the final state.
func (c *Client) CancelJob(ctx context.Context, id string) (*Job, error) {
	return call[Job](ctx, c, http.MethodDelete, "/v2/jobs/"+id, nil)
}

// backoff is the delay schedule WaitJob polling and the transport-retry
// layer share: delays start at base (at least 1ms), double per step, carry
// ±25% jitter to decorrelate concurrent clients, and cap at max.
type backoff struct {
	cur, max time.Duration
}

func newBackoff(base, max time.Duration) *backoff {
	if base < time.Millisecond {
		base = time.Millisecond
	}
	if max < base {
		max = base
	}
	return &backoff{cur: base, max: max}
}

// next returns this step's jittered delay and advances the schedule.
func (b *backoff) next() time.Duration {
	d := b.cur + time.Duration(rand.Int64N(int64(b.cur)/2+1)) - b.cur/4
	if d > b.max {
		d = b.max
	}
	if b.cur < b.max {
		b.cur *= 2
		if b.cur > b.max {
			b.cur = b.max
		}
	}
	return d
}

// WaitJob polls GET /v2/jobs/{id} until the job reaches a terminal state or
// ctx ends, backing off exponentially: the first retry comes after roughly
// poll/16 (at least 1ms), each later one doubles, and the delay is capped
// at poll (default 100ms) — so short jobs resolve in a few milliseconds
// while long solves cost one request per poll interval, not sixteen. The
// terminal job is returned as-is; inspect State and Err.
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration) (*Job, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	bo := newBackoff(poll/16, poll)
	for {
		job, err := c.GetJob(ctx, id)
		if err != nil {
			return nil, err
		}
		if job.Terminal() {
			return job, nil
		}
		if err := c.sleep(ctx, bo.next()); err != nil {
			return job, err
		}
	}
}

// PlanAsync submits a "plan" job and waits for it, returning the decoded
// result. A failed or canceled job surfaces as its *APIError.
func (c *Client) PlanAsync(ctx context.Context, req PlanRequest, poll time.Duration) (*PlanResult, error) {
	job, err := c.SubmitPlan(ctx, req)
	if err != nil {
		return nil, err
	}
	if job, err = c.waitSucceeded(ctx, job, poll); err != nil {
		return nil, err
	}
	return job.PlanResult()
}

// ExecuteAsync submits an "execute" job and waits for its decoded result.
func (c *Client) ExecuteAsync(ctx context.Context, req ExecuteRequest, poll time.Duration) (*ExecuteResult, error) {
	job, err := c.SubmitExecute(ctx, req)
	if err != nil {
		return nil, err
	}
	if job, err = c.waitSucceeded(ctx, job, poll); err != nil {
		return nil, err
	}
	return job.ExecuteResult()
}

// waitSucceeded waits for a submitted job and returns it only if it
// succeeded; a job that ended otherwise becomes its error.
func (c *Client) waitSucceeded(ctx context.Context, job *Job, poll time.Duration) (*Job, error) {
	final, err := c.WaitJob(ctx, job.ID, poll)
	if err != nil {
		return nil, err
	}
	if final.State != StateSucceeded {
		if jerr := final.Err(); jerr != nil {
			return nil, jerr
		}
		return nil, fmt.Errorf("plandclient: job %s ended %s", final.ID, final.State)
	}
	return final, nil
}

// SessionCreateRequest is the body of POST /v2/sessions.
type SessionCreateRequest struct {
	// Capacity is the reducer capacity q. Required.
	Capacity assign.Size `json:"capacity"`
	// Sizes optionally seeds the session with an initial A2A instance,
	// planned once through the portfolio before the session goes live.
	Sizes []assign.Size `json:"sizes,omitempty"`
	// MigrationBudget, RebuildThreshold, and Headroom tune the maintenance
	// layer; zero keeps each default (see pkg/assign).
	MigrationBudget  assign.Size `json:"migration_budget,omitempty"`
	RebuildThreshold float64     `json:"rebuild_threshold,omitempty"`
	Headroom         assign.Size `json:"headroom,omitempty"`
	// TimeoutMS and NoCache mean what they mean in PlanRequest; NoCache
	// carries into the session's replans.
	TimeoutMS int  `json:"timeout_ms,omitempty"`
	NoCache   bool `json:"no_cache,omitempty"`
}

// Session is the wire view of one live session.
type Session struct {
	ID    string              `json:"id"`
	Stats assign.SessionStats `json:"stats"`
	// Schema, IDs, and Sizes are present on create and GET: the schema over
	// dense input indexes plus the mapping to the session's stable IDs.
	Schema *assign.MappingSchema `json:"schema,omitempty"`
	IDs    []int                 `json:"ids,omitempty"`
	Sizes  []assign.Size         `json:"sizes,omitempty"`
	// RebuildJobID, when set, is a rebuild running on the v2 job queue;
	// poll it with GetJob/WaitJob.
	RebuildJobID string `json:"rebuild_job_id,omitempty"`
	// Node is the cluster node serving this session (clustered servers only);
	// Fingerprint is the hex state fingerprint of the snapshot this view came
	// from — equal fingerprints mean replay-identical sessions, which is how
	// the cluster e2e asserts a handed-off session survived intact.
	Node        string `json:"node,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	// RequestID and TraceID identify the call this view came from: the
	// server's X-Request-ID and the traceparent trace ID.
	RequestID string `json:"-"`
	TraceID   string `json:"-"`
}

// SessionDelta is one delta of an UpdateSession batch; build with AddDelta,
// RemoveDelta, and ResizeDelta.
type SessionDelta struct {
	// Op is "add", "remove", or "resize".
	Op string `json:"op"`
	// Size is the input size for "add" and the new size for "resize".
	Size assign.Size `json:"size,omitempty"`
	// ID addresses the input for "remove" and "resize".
	ID *int `json:"id,omitempty"`
}

// AddDelta inserts a new input of the given size.
func AddDelta(size assign.Size) SessionDelta { return SessionDelta{Op: "add", Size: size} }

// RemoveDelta deletes the identified input.
func RemoveDelta(id int) SessionDelta { return SessionDelta{Op: "remove", ID: &id} }

// ResizeDelta changes the identified input's size.
func ResizeDelta(id int, size assign.Size) SessionDelta {
	return SessionDelta{Op: "resize", Size: size, ID: &id}
}

// SessionDeltaResult reports one delta of a batch: the applied repair's
// price, or the error that stopped the batch.
type SessionDeltaResult struct {
	assign.DeltaReport
	Error *ErrorBody `json:"error,omitempty"`
}

// Err converts a failed delta's error payload into an *APIError (nil when
// the delta was applied).
func (r *SessionDeltaResult) Err() error { return r.Error.apiError() }

// SessionPatchResult is the answer of PATCH /v2/sessions/{id}.
type SessionPatchResult struct {
	// Applied counts the deltas that succeeded; processing stops at the
	// first failure, whose result carries the error.
	Applied int                  `json:"applied"`
	Results []SessionDeltaResult `json:"results"`
	Stats   assign.SessionStats  `json:"stats"`
	// RebuildJobID is set when this batch pushed drift past the threshold
	// and scheduled a background rebuild.
	RebuildJobID string `json:"rebuild_job_id,omitempty"`
	// RequestID and TraceID identify the PATCH call: the server's
	// X-Request-ID and the traceparent trace ID.
	RequestID string `json:"-"`
	TraceID   string `json:"-"`
}

// SessionList is the answer of GET /v2/sessions: every live session without
// its schema, ordered by ID, and the server's session limit.
type SessionList struct {
	Sessions []Session `json:"sessions"`
	Count    int       `json:"count"`
	Limit    int       `json:"limit"`
	// RequestID and TraceID identify the list call: the server's
	// X-Request-ID and the traceparent trace ID.
	RequestID string `json:"-"`
	TraceID   string `json:"-"`
}

// CreateSession opens a live session via POST /v2/sessions. A server at its
// session limit surfaces as an *APIError with CodeSessionLimit.
func (c *Client) CreateSession(ctx context.Context, req SessionCreateRequest) (*Session, error) {
	return call[Session](ctx, c, http.MethodPost, "/v2/sessions", req)
}

// ListSessions lists the live sessions via GET /v2/sessions.
func (c *Client) ListSessions(ctx context.Context) (*SessionList, error) {
	return call[SessionList](ctx, c, http.MethodGet, "/v2/sessions", nil)
}

// GetSession fetches a session's current schema and drift stats.
func (c *Client) GetSession(ctx context.Context, id string) (*Session, error) {
	return call[Session](ctx, c, http.MethodGet, "/v2/sessions/"+id, nil)
}

// UpdateSession applies a delta batch via PATCH /v2/sessions/{id}. The call
// succeeds even when a delta fails mid-batch — check Applied and the last
// result's Err.
func (c *Client) UpdateSession(ctx context.Context, id string, deltas ...SessionDelta) (*SessionPatchResult, error) {
	body := struct {
		Deltas []SessionDelta `json:"deltas"`
	}{Deltas: deltas}
	return call[SessionPatchResult](ctx, c, http.MethodPatch, "/v2/sessions/"+id, body)
}

// DeleteSession closes a session via DELETE /v2/sessions/{id}.
func (c *Client) DeleteSession(ctx context.Context, id string) (*Session, error) {
	return call[Session](ctx, c, http.MethodDelete, "/v2/sessions/"+id, nil)
}

// Transport-retry budget: how many round trips one call may cost, and the
// backoff window between them (same doubling-with-jitter schedule WaitJob
// uses). Only requests the server never answered are retried — an HTTP
// response, whatever its status, is the server's verdict and is returned.
const (
	retryAttempts = 4
	retryBase     = 25 * time.Millisecond
	retryCap      = 250 * time.Millisecond
)

// transportError marks a round trip that produced no HTTP response.
type transportError struct {
	method, path string
	err          error
}

func (e *transportError) Error() string { return fmt.Sprintf("%s %s: %v", e.method, e.path, e.err) }
func (e *transportError) Unwrap() error { return e.err }

// retryableTransport reports whether a transport failure may be retried:
// idempotent GETs always (re-reading is free), every other method only when
// the connection was refused outright — the server never saw the request, so
// replaying it cannot double-apply anything. A failure mid-exchange on a
// non-idempotent method is surfaced instead.
func retryableTransport(method string, err error) bool {
	return method == http.MethodGet || errors.Is(err, syscall.ECONNREFUSED)
}

// callMeta is the correlation identity of one completed call: the server's
// X-Request-ID and the trace ID echoed in its traceparent response header.
type callMeta struct {
	requestID string
	traceID   string
}

// reply is a pointer to one of the reply types that say which call produced
// them.
type reply[R any] interface {
	*R
	stamp(callMeta)
}

func (r *PlanResult) stamp(m callMeta)         { r.RequestID, r.TraceID = m.requestID, m.traceID }
func (r *ExecuteResult) stamp(m callMeta)      { r.RequestID, r.TraceID = m.requestID, m.traceID }
func (r *Job) stamp(m callMeta)                { r.RequestID, r.TraceID = m.requestID, m.traceID }
func (r *Session) stamp(m callMeta)            { r.RequestID, r.TraceID = m.requestID, m.traceID }
func (r *SessionPatchResult) stamp(m callMeta) { r.RequestID, r.TraceID = m.requestID, m.traceID }
func (r *SessionList) stamp(m callMeta)        { r.RequestID, r.TraceID = m.requestID, m.traceID }
func (r *HandoffResult) stamp(m callMeta)      { r.RequestID, r.TraceID = m.requestID, m.traceID }

// call is do for the calls that answer with one of those types: the reply is
// decoded into a new R and stamped with the identity of the call.
func call[R any, P reply[R]](ctx context.Context, c *Client, method, path string, body any) (*R, error) {
	out := new(R)
	meta, err := c.do(ctx, method, path, body, P(out))
	if err != nil {
		return nil, err
	}
	P(out).stamp(meta)
	return out, nil
}

// do performs a round trip: JSON request body (when non-nil), JSON response
// into out on 2xx (out may be nil to discard), and the server's error
// envelope as *APIError otherwise. Transport failures are retried per
// retryableTransport with capped exponential backoff and jitter; the attempt
// count rides on the returned *APIError. The first return carries the
// response's correlation identity.
func (c *Client) do(ctx context.Context, method, path string, body, out any) (callMeta, error) {
	var buf []byte
	if body != nil {
		var err error
		buf, err = json.Marshal(body)
		if err != nil {
			return callMeta{}, fmt.Errorf("plandclient: encoding request: %w", err)
		}
	}
	bo := newBackoff(retryBase, retryCap)
	for attempt := 1; ; attempt++ {
		meta, err := c.doOnce(ctx, method, path, buf, out)
		if err == nil {
			return meta, nil
		}
		var terr *transportError
		if !errors.As(err, &terr) {
			// The server answered (or the response failed to decode): stamp
			// the attempt count onto the envelope and surface it.
			var ae *APIError
			if errors.As(err, &ae) {
				ae.Attempts = attempt
			}
			return meta, err
		}
		if !retryableTransport(method, terr.err) || attempt >= retryAttempts || ctx.Err() != nil ||
			c.sleep(ctx, bo.next()) != nil {
			return meta, &APIError{Code: CodeTransport, Message: "pland unreachable: " + terr.Error(), Attempts: attempt}
		}
	}
}

// doOnce is one round trip of do. It propagates the caller's correlation
// identity: a request ID already in ctx rides as X-Request-ID, and the ctx's
// trace context (an active span inside a traced server, or a remote parent)
// rides as traceparent so the server's root span joins the caller's trace.
// Without one, a fresh sampled trace context is minted per round trip — the
// server then logs and records under an ID the caller gets back.
func (c *Client) doOnce(ctx context.Context, method, path string, body []byte, out any) (callMeta, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.baseURL+path, rd)
	if err != nil {
		return callMeta{}, fmt.Errorf("plandclient: building request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if rid := obs.RequestID(ctx); rid != "" {
		req.Header.Set("X-Request-ID", rid)
	}
	tc, ok := obs.TraceContextFrom(ctx)
	if !ok {
		tc = obs.TraceContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Sampled: true}
	}
	req.Header.Set(obs.TraceparentHeader, tc.Traceparent())
	resp, err := c.httpc.Do(req)
	if err != nil {
		return callMeta{}, &transportError{method: method, path: path, err: err}
	}
	// Whatever reads the body below may stop short of EOF: the decoder stops
	// at the value's closing brace, before the newline the server's encoder
	// adds and before a chunked body's terminator. Closing the body there
	// makes net/http drop the connection, so read on a little first.
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		resp.Body.Close()
	}()
	meta := callMeta{requestID: resp.Header.Get("X-Request-ID")}
	if rtc, ok := obs.ParseTraceparent(resp.Header.Get(obs.TraceparentHeader)); ok {
		meta.traceID = rtc.TraceID
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return meta, decodeAPIError(resp, meta)
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		return meta, nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return meta, fmt.Errorf("plandclient: decoding %s %s response: %w", method, path, err)
	}
	return meta, nil
}

// decodeAPIError parses the unified error envelope; a non-envelope body
// still yields a usable *APIError with the raw text.
func decodeAPIError(resp *http.Response, meta callMeta) error {
	ae := &APIError{StatusCode: resp.StatusCode, Code: CodeInternal, RequestID: meta.requestID, TraceID: meta.traceID}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		ae.Message = err.Error()
		return ae
	}
	var env struct {
		Error ErrorBody `json:"error"`
	}
	if err := json.Unmarshal(raw, &env); err != nil || env.Error.Code == "" {
		ae.Message = strings.TrimSpace(string(raw))
		return ae
	}
	ae.Code, ae.Message = env.Error.Code, env.Error.Message
	return ae
}

// IsCode reports whether err is an *APIError with the given code.
func IsCode(err error, code string) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Code == code
}
