package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
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
	// probing.
	Self            string
	Peers           []string
	HealthInterval  time.Duration
	HealthFailAfter int
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

	sessMu       sync.Mutex
	sessions     map[string]*sessionEntry
	sessCreating int // creates holding a slot under MaxSessions while they plan

	// Cluster layer (nil single-node; see cluster.go). ready flips once boot
	// recovery finished; draining flips when shutdown starts — /readyz is the
	// AND of the two, and peers probe it.
	cluster  *cluster
	ready    atomic.Bool
	draining atomic.Bool

	// Durability (nil/zero without -data-dir; see durability.go).
	wal            *wal.Log
	checkpointStop chan struct{}
	checkpointOnce sync.Once
	checkpointWG   sync.WaitGroup

	// afterJobEnqueue, when set before the server is served, runs between a
	// v2 job's enqueue and its reply; tests place a checkpoint there.
	afterJobEnqueue func(jobs.Snapshot)
}

// defaultServerConfig is the one list of defaults: main binds its flags onto
// a copy of it, and newServer takes from it whatever limit a caller left
// unset. A field that is absent here defaults to its zero value, which the
// package it configures reads as its own default (0 job workers is
// GOMAXPROCS).
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
	}
	s.jobs = jobs.New(jobs.Config{
		Workers:    cfg.JobWorkers,
		QueueDepth: cfg.QueueDepth,
		ResultTTL:  cfg.ResultTTL,
		OnEnqueue:  s.jobEnqueued,
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

// handlePlan serves POST /v1/plan. In a fleet the request is keyed by its
// body: the instance's canonical key names the one node that solves and holds
// its plan, and a request landing elsewhere is forwarded there whole, as a
// session request is forwarded to its ID's owner. What no planner caches
// (no_cache, or an instance above the cacheable size) has no key and is
// served where it lands. The owner marks a cache hit on a forwarded request
// fleet_cache_hit: the plan was solved for another node's request.
func (s *server) handlePlan(w http.ResponseWriter, r *http.Request) {
	var raw []byte
	if s.cluster != nil {
		// Read whole, so the body can still be forwarded once its key is known.
		var err error
		if raw, err = io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)); err != nil {
			writeAPIError(w, badRequestf("decoding request: %v", err))
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(raw))
	}
	var body plandclient.PlanRequest
	if !s.decodeBody(w, r, &body) {
		return
	}
	opts, aerr := s.planOptions(body)
	if aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	if raw != nil {
		r.Body = io.NopCloser(bytes.NewReader(raw))
		// A key error is the plan's own error, which runPlan reports here.
		if key, err := assign.Key(opts...); err == nil && key != "" && s.forwardToOwner(w, r, key, "") {
			return
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.MaxTimeout)
	defer cancel()
	resp, aerr := s.runPlan(ctx, opts)
	if aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	resp.FleetCacheHit = resp.CacheHit && r.Header.Get(headerForwarded) != ""
	writeSchemaJSON(w, r, http.StatusOK, resp, &resp.Schema)
}

// validSizes rejects what assign.Plan itself would reject, but as an
// allocation-free 400 instead of a later 422.
func validSizes(field string, sizes []assign.Size) *apiError {
	if len(sizes) == 0 {
		return badRequestf("%s: no inputs", field)
	}
	var total assign.Size
	for i, sz := range sizes {
		if sz <= 0 {
			return badRequestf("%s: input %d has non-positive size %d", field, i, sz)
		}
		// Compared before adding, so the sum cannot wrap.
		if sz > math.MaxInt64-total {
			return badRequestf("%s: sizes sum past %d at input %d", field, int64(math.MaxInt64), i)
		}
		total += sz
	}
	return nil
}

// planOptions checks the wire request and assembles its SDK options. It
// copies nothing, so v2 submit runs it for every job and fails malformed ones
// fast and cheaply. Validation failures map uniformly to 400; failures from
// planning itself (e.g. infeasible instances) map to 422 later.
func (s *server) planOptions(body plandclient.PlanRequest) ([]assign.Option, *apiError) {
	if body.Capacity <= 0 {
		return nil, badRequestf("capacity must be positive, got %d", body.Capacity)
	}
	if n := len(body.Sizes) + len(body.XSizes) + len(body.YSizes); n > s.cfg.MaxInputs {
		return nil, badRequestf("instance has %d inputs, limit is %d", n, s.cfg.MaxInputs)
	}
	opts := []assign.Option{assign.Capacity(body.Capacity)}
	switch body.Problem {
	case "A2A", "a2a":
		if aerr := validSizes("sizes", body.Sizes); aerr != nil {
			return nil, aerr
		}
		opts = append(opts, assign.A2A(body.Sizes))
	case "X2Y", "x2y":
		if aerr := validSizes("x_sizes", body.XSizes); aerr != nil {
			return nil, aerr
		}
		if aerr := validSizes("y_sizes", body.YSizes); aerr != nil {
			return nil, aerr
		}
		opts = append(opts, assign.X2Y(body.XSizes, body.YSizes))
	default:
		return nil, badRequestf("problem must be A2A or X2Y, got %q", body.Problem)
	}
	if body.NoCache {
		opts = append(opts, assign.NoCache())
	}
	return opts, nil
}

// runPlan is the one core both /v1/plan and "plan" jobs execute, on the
// options planOptions built; ctx carries the surface's bound (MaxTimeout
// synchronously, MaxJobTimeout for jobs).
func (s *server) runPlan(ctx context.Context, opts []assign.Option) (*plandclient.PlanResult, *apiError) {
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
	opts, aerr := s.executeOptions(body)
	if aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	resp, aerr := s.runExecute(ctx, opts, body.ReturnPairs)
	if aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	writeSchemaJSON(w, r, http.StatusOK, resp, &resp.Schema)
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

// executeOptions checks the wire request and returns what assembles its SDK
// options, minus the pair logic. The check copies no payload — v2 submit runs
// it synchronously for every job — and the payloads are copied only when the
// returned function is called, as the run starts.
func (s *server) executeOptions(body plandclient.ExecuteRequest) (func() []assign.Option, *apiError) {
	if body.Capacity <= 0 {
		return nil, badRequestf("capacity must be positive, got %d", body.Capacity)
	}
	if n := len(body.Inputs) + len(body.XInputs) + len(body.YInputs); n > s.cfg.MaxExecInputs {
		return nil, badRequestf("instance has %d inputs, execution limit is %d", n, s.cfg.MaxExecInputs)
	}
	toPayloads := func(in []string) [][]byte {
		data := make([][]byte, len(in))
		for i, p := range in {
			data[i] = []byte(p)
		}
		return data
	}
	var instance func() assign.Option
	switch body.Problem {
	case "A2A", "a2a":
		if aerr := validPayloads("inputs", body.Inputs); aerr != nil {
			return nil, aerr
		}
		instance = func() assign.Option { return assign.Inputs(toPayloads(body.Inputs)) }
	case "X2Y", "x2y":
		if aerr := validPayloads("x_inputs", body.XInputs); aerr != nil {
			return nil, aerr
		}
		if aerr := validPayloads("y_inputs", body.YInputs); aerr != nil {
			return nil, aerr
		}
		instance = func() assign.Option {
			return assign.XYInputs(toPayloads(body.XInputs), toPayloads(body.YInputs))
		}
	default:
		return nil, badRequestf("problem must be A2A or X2Y, got %q", body.Problem)
	}
	return func() []assign.Option {
		opts := []assign.Option{assign.Capacity(body.Capacity), assign.Named("pland-execute"), instance()}
		if body.NoCache {
			opts = append(opts, assign.NoCache())
		}
		if body.MemoryBudget > 0 {
			opts = append(opts, assign.MemoryBudget(body.MemoryBudget))
		}
		return opts
	}, nil
}

// runExecute is the one core both /v1/execute and "execute" jobs run, on the
// options executeOptions returned.
func (s *server) runExecute(ctx context.Context, options func() []assign.Option, returnPairs bool) (*plandclient.ExecuteResult, *apiError) {
	start := time.Now()
	opts := append(options(), assign.Pair(func(a, b assign.Record, emit func([]byte)) error {
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

// handleMetrics serves the process-wide series of obs.Default, then this
// server's planner's and its job manager's own.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	obs.Handler(obs.Default.WritePrometheus, s.planner.WritePrometheus, s.jobs.WritePrometheus).ServeHTTP(w, r)
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

// schemaPlaceholder stands in for a reply's schema while encoding/json writes
// the rest of the reply, and schemaMark is what it leaves there: the key and
// the placeholder's bytes. Inside an encoded string every quote is escaped,
// so the mark's `":{"` cannot occur in one, and the reply types have no other
// "schema" key: the first match is the reply's schema field.
var (
	schemaPlaceholder = &assign.MappingSchema{}
	schemaMark        = func() []byte {
		b, err := schemaPlaceholder.MarshalJSON()
		if err != nil {
			panic(err)
		}
		return append([]byte(`"schema":`), b...)
	}()
)

// writeSchemaJSON writes v, a reply whose schema field is *schema, byte for
// byte as writeJSON would. The schema is most of such a reply, and
// encoding/json re-scans whatever a Marshaler returns; so encoding/json
// writes the reply around a placeholder and the schema's own one-pass
// encoder writes the schema in its place. The whole write is the request
// span's "encode" stage.
func writeSchemaJSON(w http.ResponseWriter, r *http.Request, status int, v any, schema **assign.MappingSchema) {
	defer obs.SpanFrom(r.Context()).Stage("encode")()
	ms := *schema
	if ms == nil {
		writeJSON(w, status, v)
		return
	}
	*schema = schemaPlaceholder
	envelope, err := json.Marshal(v)
	*schema = ms
	var body []byte
	if err == nil {
		body, err = ms.MarshalJSON()
	}
	at := bytes.Index(envelope, schemaMark)
	if err != nil || at < 0 {
		writeJSON(w, status, v) // encodes v whole, and logs what fails
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	valueAt := at + len(`"schema":`)
	for _, part := range [][]byte{envelope[:valueAt], body, envelope[at+len(schemaMark):], {'\n'}} {
		if _, err := w.Write(part); err != nil {
			slog.Error("encoding response", "error", err)
			return
		}
	}
}
