package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/wal"
	"repro/pkg/assign"
	"repro/pkg/assign/plandclient"
)

// serverConfig bounds what one request — synchronous or queued — may cost
// the service.
type serverConfig struct {
	// MaxTimeout bounds one synchronous request's context.
	MaxTimeout   time.Duration
	MaxBodyBytes int64
	MaxInputs    int
	// MaxExecInputs caps execute instances separately: execution does
	// quadratic pair work, so its ceiling sits far below the planning cap.
	MaxExecInputs int
	// JobWorkers, QueueDepth, and ResultTTL shape the v2 job queue.
	JobWorkers int
	QueueDepth int
	ResultTTL  time.Duration
	// MaxJobTimeout bounds one async job's context; it may far exceed
	// MaxTimeout because nothing blocks on the answer.
	MaxJobTimeout time.Duration
	// MaxSessions bounds how many v2 sessions may be live at once, and
	// MaxSessionInputs bounds the live inputs of each.
	MaxSessions      int
	MaxSessionInputs int
	// DebugAddr is the separate listener -debug-addr serves /metrics,
	// /debug/pprof, and /debug/traces on; when empty they mount on the main
	// mux instead.
	DebugAddr string
	// TraceSampleRate, TraceSlow, and TraceBufferEntries shape the flight
	// recorder (see internal/obs): the fraction of fast-OK traces kept, the
	// latency at which a trace is always kept, and the ring capacity.
	TraceSampleRate    float64
	TraceSlow          time.Duration
	TraceBufferEntries int
	// Logger receives one structured line per request; nil uses slog.Default.
	Logger *slog.Logger
	// DataDir, when non-empty, makes sessions and queued jobs durable: a WAL
	// lives under it, boot replays it (see newDurableServer), and Fsync,
	// FsyncInterval, and CheckpointInterval shape the log's disciplines.
	DataDir            string
	Fsync              wal.Policy
	FsyncInterval      time.Duration
	CheckpointInterval time.Duration
	// Self and Peers wire the node into a static fleet (see cluster.go):
	// Peers is every node's advertised base URL including this one, Self is
	// this node's own entry. Empty Peers runs single-node with no cluster
	// layer at all. HealthInterval/HealthFailAfter shape peer readiness
	// probing; FleetCacheEntries sizes this node's fleet plan-cache shard.
	Self              string
	Peers             []string
	HealthInterval    time.Duration
	HealthFailAfter   int
	FleetCacheEntries int
}

// server is the HTTP front end over the assign SDK. It is a plain
// http.Handler so tests drive it through httptest without a listener.
type server struct {
	planner  *assign.Planner
	jobs     *jobs.Manager
	cfg      serverConfig
	mux      *http.ServeMux
	handler  http.Handler // mux wrapped in the observability middleware
	log      *slog.Logger
	recorder *obs.Recorder
	started  time.Time

	sessMu   sync.Mutex
	sessions map[string]*sessionEntry

	// Cluster layer (nil single-node; see cluster.go). ready flips once boot
	// recovery finished; draining flips when shutdown starts — /readyz is the
	// AND of the two, and peers probe it.
	cluster  *cluster
	ready    atomic.Bool
	draining atomic.Bool

	// Durability (nil/zero without -data-dir; see durability.go).
	wal            *wal.Log
	walMu          sync.Mutex
	walJobs        map[string]walJob
	checkpointStop chan struct{}
	checkpointOnce sync.Once
	checkpointWG   sync.WaitGroup
}

// defaultServerConfig is the one list of defaults: main binds its flags onto
// a copy of it, and newServer takes from it whatever limit a caller left
// unset. A field that is absent here defaults to its zero value, which the
// package it configures reads as its own default (0 job workers is
// GOMAXPROCS, 0 fleet-cache entries is shard.DefaultCacheEntries).
func defaultServerConfig() serverConfig {
	return serverConfig{
		MaxTimeout:         10 * time.Second,
		MaxBodyBytes:       8 << 20,
		MaxInputs:          200_000,
		MaxExecInputs:      1000,
		QueueDepth:         64,
		ResultTTL:          15 * time.Minute,
		MaxJobTimeout:      5 * time.Minute,
		MaxSessions:        64,
		MaxSessionInputs:   10_000,
		TraceSampleRate:    0.05,
		TraceSlow:          250 * time.Millisecond,
		TraceBufferEntries: 512,
		Fsync:              wal.SyncInterval,
		FsyncInterval:      100 * time.Millisecond,
		CheckpointInterval: time.Minute,
		HealthInterval:     500 * time.Millisecond,
		HealthFailAfter:    2,
	}
}

// orDefault replaces a limit that is not positive with its default.
func orDefault[T ~int | ~int64](v *T, def T) {
	if *v <= 0 {
		*v = def
	}
}

func newServer(pl *assign.Planner, cfg serverConfig) *server {
	def := defaultServerConfig()
	orDefault(&cfg.MaxTimeout, def.MaxTimeout)
	// A job may run at least as long as a synchronous request.
	cfg.MaxJobTimeout = max(cfg.MaxJobTimeout, cfg.MaxTimeout)
	orDefault(&cfg.MaxBodyBytes, def.MaxBodyBytes)
	orDefault(&cfg.MaxInputs, def.MaxInputs)
	orDefault(&cfg.MaxExecInputs, def.MaxExecInputs)
	orDefault(&cfg.QueueDepth, def.QueueDepth)
	orDefault(&cfg.ResultTTL, def.ResultTTL)
	orDefault(&cfg.MaxSessions, def.MaxSessions)
	orDefault(&cfg.MaxSessionInputs, def.MaxSessionInputs)
	orDefault(&cfg.CheckpointInterval, def.CheckpointInterval)
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	s := &server{
		planner: pl,
		cfg:     cfg,
		mux:     http.NewServeMux(),
		log:     cfg.Logger,
		recorder: obs.NewRecorder(obs.RecorderConfig{
			Capacity:      cfg.TraceBufferEntries,
			SampleRate:    cfg.TraceSampleRate,
			SlowThreshold: cfg.TraceSlow,
			Node:          cfg.Self,
		}),
		started:  time.Now(),
		sessions: make(map[string]*sessionEntry),
		walJobs:  make(map[string]walJob),
	}
	s.jobs = jobs.New(jobs.Config{
		Workers:    cfg.JobWorkers,
		QueueDepth: cfg.QueueDepth,
		ResultTTL:  cfg.ResultTTL,
		OnFinish:   s.jobFinished,
	})
	s.mount(s.mux, false)
	if cfg.DebugAddr == "" {
		s.mount(s.mux, true)
	}
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeAPIError(w, notFound("no such endpoint"))
	})
	s.handler = withObs(s.log, s.recorder, s.mux)
	// Without a WAL there is no boot recovery to wait for; newDurableServer
	// flips readiness itself once recovery and the re-anchor checkpoint ran.
	if cfg.DataDir == "" {
		s.ready.Store(true)
	}
	return s
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// Close drains the job queue — in-flight jobs that outlive ctx are marked
// failed with a shutdown reason — and then shuts every live session down.
// With a WAL, a final checkpoint runs first (so the compacted log carries the
// complete live state), drained jobs get no done records, and sessions get no
// close records: both re-appear intact on the next boot.
func (s *server) Close(ctx context.Context) error {
	if s.wal != nil {
		s.stopCheckpointer()
		if err := s.checkpoint(); err != nil {
			s.log.Warn("final wal checkpoint", "error", err)
		}
	}
	err := s.jobs.Shutdown(ctx)
	s.closeSessions()
	if s.wal != nil {
		if cerr := s.wal.Close(); cerr != nil {
			s.log.Warn("wal close", "error", cerr)
		}
	}
	return err
}

// apiError is one handler failure: the error body the wire carries (every
// failure, v1 and v2, is the envelope {"error":{"code":"...","message":"..."}}
// with a stable machine-readable code from plandclient's Code constants) plus
// the HTTP status, which travels out of band. It implements error (and
// unwraps to its cause) so it can round-trip through the jobs manager intact.
type apiError struct {
	plandclient.ErrorBody
	Status int `json:"-"`
	cause  error
}

func (e *apiError) Error() string { return e.Message }
func (e *apiError) Unwrap() error { return e.cause }

func newAPIError(status int, code, message string, cause error) *apiError {
	return &apiError{ErrorBody: plandclient.ErrorBody{Code: code, Message: message}, Status: status, cause: cause}
}

func badRequestf(format string, args ...any) *apiError {
	return newAPIError(http.StatusBadRequest, plandclient.CodeBadRequest, fmt.Sprintf(format, args...), nil)
}

func notFound(msg string) *apiError {
	return newAPIError(http.StatusNotFound, plandclient.CodeNotFound, msg, nil)
}

func writeAPIError(w http.ResponseWriter, e *apiError) {
	writeJSON(w, e.Status, struct {
		Error *apiError `json:"error"`
	}{e})
}

// planError maps a planning failure to an envelope: budget/context
// exhaustion is a gateway timeout, everything else (e.g. an infeasible
// instance) is unprocessable.
func planError(err error) *apiError {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return newAPIError(http.StatusGatewayTimeout, plandclient.CodePlanTimeout, err.Error(), err)
	}
	return newAPIError(http.StatusUnprocessableEntity, plandclient.CodeUnprocessable, err.Error(), err)
}

// decodeBody decodes a JSON body under the server's size cap, or answers 400
// and reports false. The body is one JSON value: Decode stops after the
// first, so whatever follows it is looked at too and only white space is let
// through.
func (s *server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeAPIError(w, badRequestf("decoding request: %v", err))
		return false
	}
	if _, err := dec.Token(); err != io.EOF {
		writeAPIError(w, badRequestf("decoding request: unexpected data after the request body"))
		return false
	}
	return true
}

func (s *server) handlePlan(w http.ResponseWriter, r *http.Request) {
	var body plandclient.PlanRequest
	if !s.decodeBody(w, r, &body) {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.MaxTimeout)
	defer cancel()
	// planFleet consults the fleet-wide cluster cache around the solve; it is
	// exactly runPlan when unclustered or when the client opted out of caching.
	resp, aerr := s.planFleet(ctx, body)
	if aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// validSizes rejects what assign.Plan itself would reject, but as an
// allocation-free 400 instead of a later 422.
func validSizes(field string, sizes []assign.Size) *apiError {
	if len(sizes) == 0 {
		return badRequestf("%s: no inputs", field)
	}
	for i, sz := range sizes {
		if sz <= 0 {
			return badRequestf("%s: input %d has non-positive size %d", field, i, sz)
		}
	}
	return nil
}

// validatePlan checks the wire request without building anything, so v2
// submit can fail malformed jobs fast and cheaply. Validation failures map
// uniformly to 400; failures from planning itself (e.g. infeasible
// instances) map to 422 later.
func (s *server) validatePlan(body plandclient.PlanRequest) *apiError {
	if body.Capacity <= 0 {
		return badRequestf("capacity must be positive, got %d", body.Capacity)
	}
	if n := len(body.Sizes) + len(body.XSizes) + len(body.YSizes); n > s.cfg.MaxInputs {
		return badRequestf("instance has %d inputs, limit is %d", n, s.cfg.MaxInputs)
	}
	switch body.Problem {
	case "A2A", "a2a":
		return validSizes("sizes", body.Sizes)
	case "X2Y", "x2y":
		if aerr := validSizes("x_sizes", body.XSizes); aerr != nil {
			return aerr
		}
		return validSizes("y_sizes", body.YSizes)
	default:
		return badRequestf("problem must be A2A or X2Y, got %q", body.Problem)
	}
}

// planOptions assembles the SDK options for a validated request.
func (s *server) planOptions(body plandclient.PlanRequest) ([]assign.Option, *apiError) {
	if aerr := s.validatePlan(body); aerr != nil {
		return nil, aerr
	}
	opts := []assign.Option{assign.Capacity(body.Capacity)}
	switch body.Problem {
	case "A2A", "a2a":
		opts = append(opts, assign.A2A(body.Sizes))
	default:
		opts = append(opts, assign.X2Y(body.XSizes, body.YSizes))
	}
	if body.NoCache {
		opts = append(opts, assign.NoCache())
	}
	return opts, nil
}

// runPlan is the one core both /v1/plan and "plan" jobs execute; ctx
// carries the surface's bound (MaxTimeout synchronously, MaxJobTimeout for
// jobs).
func (s *server) runPlan(ctx context.Context, body plandclient.PlanRequest) (*plandclient.PlanResult, *apiError) {
	opts, aerr := s.planOptions(body)
	if aerr != nil {
		return nil, aerr
	}
	res, err := s.planner.Plan(ctx, opts...)
	if err != nil {
		return nil, planError(err)
	}
	return &plandclient.PlanResult{
		Schema:             res.Schema,
		Reducers:           res.Cost.Reducers,
		Communication:      res.Cost.Communication,
		ReplicationRate:    res.Cost.ReplicationRate,
		MaxLoad:            res.Cost.MaxLoad,
		Winner:             res.Winner,
		LowerBoundReducers: res.LowerBoundReducers,
		Gap:                res.Gap,
		Candidates:         res.Candidates,
		CacheHit:           res.CacheHit,
		SharedFlight:       res.SharedFlight,
		ElapsedMicros:      res.Elapsed.Microseconds(),
	}, nil
}

// maxReturnedPairs caps the pair list a single response may carry.
const maxReturnedPairs = 10_000

func (s *server) handleExecute(w http.ResponseWriter, r *http.Request) {
	var body plandclient.ExecuteRequest
	if !s.decodeBody(w, r, &body) {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.MaxTimeout)
	defer cancel()
	resp, aerr := s.runExecute(ctx, body)
	if aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// validPayloads rejects what the SDK's derived input set would reject,
// without copying the payloads.
func validPayloads(field string, in []string) *apiError {
	if len(in) == 0 {
		return badRequestf("%s: no inputs", field)
	}
	for i, p := range in {
		if len(p) == 0 {
			return badRequestf("%s: input %d is empty (sizes are payload byte lengths and must be positive)", field, i)
		}
	}
	return nil
}

// validateExecute checks the wire request without materializing payload
// copies — v2 submit runs it synchronously for every job.
func (s *server) validateExecute(body plandclient.ExecuteRequest) *apiError {
	if body.Capacity <= 0 {
		return badRequestf("capacity must be positive, got %d", body.Capacity)
	}
	if n := len(body.Inputs) + len(body.XInputs) + len(body.YInputs); n > s.cfg.MaxExecInputs {
		return badRequestf("instance has %d inputs, execution limit is %d", n, s.cfg.MaxExecInputs)
	}
	switch body.Problem {
	case "A2A", "a2a":
		return validPayloads("inputs", body.Inputs)
	case "X2Y", "x2y":
		if aerr := validPayloads("x_inputs", body.XInputs); aerr != nil {
			return aerr
		}
		return validPayloads("y_inputs", body.YInputs)
	default:
		return badRequestf("problem must be A2A or X2Y, got %q", body.Problem)
	}
}

// executeOptions assembles the SDK options for a validated request, minus
// the pair logic.
func (s *server) executeOptions(body plandclient.ExecuteRequest) ([]assign.Option, *apiError) {
	if aerr := s.validateExecute(body); aerr != nil {
		return nil, aerr
	}
	toPayloads := func(in []string) [][]byte {
		data := make([][]byte, len(in))
		for i, p := range in {
			data[i] = []byte(p)
		}
		return data
	}
	opts := []assign.Option{assign.Capacity(body.Capacity), assign.Named("pland-execute")}
	switch body.Problem {
	case "A2A", "a2a":
		opts = append(opts, assign.Inputs(toPayloads(body.Inputs)))
	default:
		opts = append(opts, assign.XYInputs(toPayloads(body.XInputs), toPayloads(body.YInputs)))
	}
	if body.NoCache {
		opts = append(opts, assign.NoCache())
	}
	if body.MemoryBudget > 0 {
		opts = append(opts, assign.MemoryBudget(body.MemoryBudget))
	}
	return opts, nil
}

// runExecute is the one core both /v1/execute and "execute" jobs run.
func (s *server) runExecute(ctx context.Context, body plandclient.ExecuteRequest) (*plandclient.ExecuteResult, *apiError) {
	start := time.Now()
	opts, aerr := s.executeOptions(body)
	if aerr != nil {
		return nil, aerr
	}
	returnPairs := body.ReturnPairs
	opts = append(opts, assign.Pair(func(a, b assign.Record, emit func([]byte)) error {
		// The pair count comes from the executor's trace; materialize the IDs
		// only when the client asked for them.
		if returnPairs {
			emit([]byte(fmt.Sprintf("%d,%d", a.ID, b.ID)))
		}
		return nil
	}))
	ex, err := s.planner.Execute(ctx, opts...)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
			return nil, planError(err)
		case errors.Is(err, assign.ErrInfeasible):
			return nil, planError(err)
		default:
			// The schema was planned and validated moments ago, so an
			// execution or audit failure is a server-side defect.
			return nil, newAPIError(http.StatusInternalServerError, plandclient.CodeInternal,
				fmt.Sprintf("executing plan: %v", err), err)
		}
	}
	resp := &plandclient.ExecuteResult{
		Schema:          ex.Plan.Schema,
		Reducers:        ex.Plan.Schema.NumReducers(),
		Winner:          ex.Plan.Winner,
		CacheHit:        ex.Plan.CacheHit,
		Pairs:           ex.PairsProcessed,
		ShuffleRecords:  ex.ShuffleRecords,
		ShuffleBytes:    ex.ShuffleBytes,
		MaxReducerLoad:  ex.MaxReducerLoad,
		SpillRuns:       ex.SpillRuns,
		SpillPartitions: ex.SpillPartitions,
		SpillBytes:      ex.SpillBytes,
		Audited:         ex.Audited,
		ElapsedMicros:   time.Since(start).Microseconds(),
	}
	if returnPairs {
		for i, rec := range ex.Output {
			if i >= maxReturnedPairs {
				break
			}
			resp.PairIDs = append(resp.PairIDs, string(rec))
		}
	}
	return resp, nil
}

// sessionsStats is the session-manager block of GET /v1/stats.
type sessionsStats struct {
	// Live is how many v2 sessions are open right now; Limit the ceiling.
	Live  int `json:"live"`
	Limit int `json:"limit"`
}

// httpStats is the request-surface block of GET /v1/stats, a thin view over
// the same gauge /metrics exports.
type httpStats struct {
	InFlight int64 `json:"in_flight"`
}

// statsResponse is the JSON answer of GET /v1/stats. The jobs block carries
// the queue state (depth, capacity, workers, running = workers busy); the
// sessions block the session-manager state.
type statsResponse struct {
	assign.Stats
	Jobs          jobs.Stats        `json:"jobs"`
	Sessions      sessionsStats     `json:"sessions"`
	HTTP          httpStats         `json:"http"`
	Trace         obs.RecorderStats `json:"trace"`
	Cluster       *clusterStats     `json:"cluster,omitempty"`
	UptimeSeconds float64           `json:"uptime_seconds"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.sessMu.Lock()
	live := len(s.sessions)
	s.sessMu.Unlock()
	resp := statsResponse{
		Stats:         s.planner.Stats(),
		Jobs:          s.jobs.Stats(),
		Sessions:      sessionsStats{Live: live, Limit: s.cfg.MaxSessions},
		HTTP:          httpStats{InFlight: obsHTTPInFlight.Value()},
		Trace:         s.recorder.Stats(),
		UptimeSeconds: time.Since(s.started).Seconds(),
	}
	if s.cluster != nil {
		resp.Cluster = s.cluster.stats()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		slog.Error("encoding response", "error", err)
	}
}
