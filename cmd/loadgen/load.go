package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/pkg/assign"
	"repro/pkg/assign/plandclient"
)

// Operation names of the traffic mix. Each op is one client-visible unit of
// work: a synchronous plan, a synchronous execute, or a full session
// create→mutate→verify→delete cycle.
const (
	opPlan    = "plan"
	opExecute = "execute"
	opChurn   = "churn"
	// opShed is not schedulable: it books open-loop ops that could not start
	// because the in-flight cap was already full — the fleet fell behind the
	// offered rate, and hiding that would let an overloaded run pass.
	opShed = "shed"
)

// loadConfig is everything one load run needs; main fills it from flags and
// the tests fill it directly.
type loadConfig struct {
	// Targets are the pland base URLs traffic is spread over. An op that
	// fails one target with a transport-class error is retried on the others
	// before it counts as an error, which is what lets a run ride through a
	// node draining away mid-test.
	Targets []string
	// Mix maps op name to relative weight; zero-weight ops never run.
	Mix map[string]int
	// Rate is how many ops start per second, regardless of completions:
	// the load is open-loop, so a slow fleet cannot hide latency by
	// throttling the probe. It must be positive.
	Rate float64
	// Duration bounds the run.
	Duration time.Duration
	// Capacity and Inputs shape the generated instances.
	Capacity assign.Size
	Inputs   int
	// Seed makes the generated instances reproducible.
	Seed int64
	// OpTimeout bounds each op attempt.
	OpTimeout time.Duration
	// LostTimeout is how long a churn op keeps re-asking for a session that
	// answered 404 before declaring it lost. It must cover the handoff window
	// of a draining node: a session can be legitimately unreachable between
	// the owner closing its listener and the successor installing it.
	LostTimeout time.Duration

	// Gates; violations make the run exit non-zero.
	MaxP99          time.Duration // 0 disables
	MaxErrorRate    float64       // fraction of ops; negative disables
	RequireZeroLost bool

	Log *slog.Logger
}

// opCounters aggregates one op's outcomes.
type opCounters struct {
	requests atomic.Uint64
	errors   atomic.Uint64
	lost     atomic.Uint64
}

// OpStats is the per-op slice of the report.
type OpStats struct {
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
	Lost     uint64 `json:"lost,omitempty"`
}

// loadReport is the JSON document a run emits.
type loadReport struct {
	Targets    []string `json:"targets"`
	DurationS  float64  `json:"duration_s"`
	Requests   uint64   `json:"requests"`
	Errors     uint64   `json:"errors"`
	Lost       uint64   `json:"lost"`
	ErrorRate  float64  `json:"error_rate"`
	Throughput float64  `json:"throughput_rps"`
	// Latency quantiles in milliseconds, over successful and failed ops
	// alike (an error that took 2s to surface is still 2s of client pain).
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	P999MS float64 `json:"p999_ms"`
	// FleetCacheHits counts plan results served from another node's solve.
	FleetCacheHits uint64             `json:"fleet_cache_hits"`
	ByOp           map[string]OpStats `json:"by_op"`
	// FailedOps samples the first few failed ops with their correlation
	// identity, so a gate violation comes with request and trace IDs that can
	// be looked up in the fleet's logs and /debug/traces.
	FailedOps []failedOp `json:"failed_ops,omitempty"`
	// Violations lists every failed gate; empty means the run passed.
	Violations []string `json:"violations"`
}

// failedOp is one sampled failure: the op, its error, the request ID loadgen
// minted for the op (every server log line for it carries the same ID), and
// the server's trace ID when the failure arrived as an HTTP response.
type failedOp struct {
	Op        string `json:"op"`
	Error     string `json:"error"`
	RequestID string `json:"request_id"`
	TraceID   string `json:"trace_id,omitempty"`
}

// maxFailedOps caps the sample: enough to debug with, small enough that an
// all-errors run does not bloat the report.
const maxFailedOps = 10

// generator is the shared state of one load run.
type generator struct {
	cfg     loadConfig
	clients []*plandclient.Client
	ops     []string // weighted op lottery, Mix expanded
	hist    *obs.Histogram

	cursor    atomic.Uint64 // round-robin target index
	fleetHits atomic.Uint64
	perOp     map[string]*opCounters

	failMu sync.Mutex
	failed []failedOp // first maxFailedOps failures, for the report
}

// parseMix turns "plan=6,execute=2,churn=2" into the Mix map.
func parseMix(s string) (map[string]int, error) {
	mix := map[string]int{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, weight, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("mix term %q: want op=weight", part)
		}
		switch name {
		case opPlan, opExecute, opChurn:
		default:
			return nil, fmt.Errorf("mix term %q: unknown op (plan, execute, churn)", part)
		}
		w, err := strconv.Atoi(weight)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("mix term %q: weight must be a non-negative integer", part)
		}
		mix[name] += w
	}
	return mix, nil
}

// runLoad drives the configured traffic and returns the report. The error
// return is for unusable configuration only — request failures are data, not
// errors, and land in the report.
func runLoad(ctx context.Context, cfg loadConfig) (*loadReport, error) {
	if len(cfg.Targets) == 0 {
		return nil, errors.New("no targets")
	}
	if cfg.Duration <= 0 {
		return nil, errors.New("duration must be positive")
	}
	if cfg.Rate <= 0 {
		return nil, errors.New("rate must be positive")
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 64
	}
	if cfg.Inputs <= 0 {
		cfg.Inputs = 12
	}
	if cfg.OpTimeout <= 0 {
		cfg.OpTimeout = 10 * time.Second
	}
	if cfg.LostTimeout <= 0 {
		cfg.LostTimeout = 3 * time.Second
	}
	if cfg.Log == nil {
		cfg.Log = slog.New(slog.DiscardHandler)
	}
	g := &generator{
		cfg: cfg,
		// A private registry: runs (and tests) never collide on metric names.
		hist: obs.NewRegistry().Histogram("loadgen_op_seconds",
			"End-to-end op latency.", obs.ExpBuckets(50e-6, 2, 20)),
		perOp: map[string]*opCounters{
			opPlan: {}, opExecute: {}, opChurn: {}, opShed: {},
		},
	}
	for _, t := range cfg.Targets {
		g.clients = append(g.clients, plandclient.New(t))
	}
	for _, op := range []string{opPlan, opExecute, opChurn} { // deterministic order
		for i := 0; i < cfg.Mix[op]; i++ {
			g.ops = append(g.ops, op)
		}
	}
	if len(g.ops) == 0 {
		return nil, errors.New("traffic mix is empty")
	}

	runCtx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()
	start := time.Now()
	g.openLoop(runCtx)
	return g.report(time.Since(start)), nil
}

// openLoop starts ops on a fixed clock regardless of how long they take, so
// a slow fleet accumulates in-flight requests instead of quietly throttling
// the probe. In-flight is capped; an op that cannot start counts as an
// error, which is the honest reading of an overloaded fleet.
func (g *generator) openLoop(ctx context.Context) {
	interval := time.Duration(float64(time.Second) / g.cfg.Rate)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	sem := make(chan struct{}, 1024)
	var wg sync.WaitGroup
	// Worker seeds are drawn from one dispatcher-owned rng: sequential seeds
	// would correlate the workers' first draws and skew the op mix.
	seeds := rand.New(rand.NewSource(g.cfg.Seed))
	for {
		select {
		case <-ctx.Done():
			wg.Wait()
			return
		case <-ticker.C:
			select {
			case sem <- struct{}{}:
			default:
				g.perOp[opShed].requests.Add(1)
				g.perOp[opShed].errors.Add(1)
				continue
			}
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				defer func() { <-sem }()
				g.step(ctx, rand.New(rand.NewSource(seed)))
			}(seeds.Int63())
		}
	}
}

// step runs one op end to end and records it; an op the end of the run cut
// short is neither counted nor timed. Every op gets its own minted
// request ID: the client sends it as X-Request-ID (and it seeds the
// traceparent the SDK injects), so a failure here names the exact server log
// lines and trace that produced it.
func (g *generator) step(ctx context.Context, rng *rand.Rand) {
	op := g.ops[rng.Intn(len(g.ops))]
	c := g.perOp[op]
	c.requests.Add(1)
	rid := obs.NewRequestID()
	ctx = obs.WithRequestID(ctx, rid)
	start := time.Now()
	var err error
	var lost bool
	switch op {
	case opPlan:
		err = g.doPlan(ctx, rng)
	case opExecute:
		err = g.doExecute(ctx, rng)
	case opChurn:
		lost, err = g.doChurn(ctx, rng)
	}
	if ctx.Err() != nil && err != nil {
		// The run ended mid-op; a deadline-cut request is not a fleet failure.
		c.requests.Add(^uint64(0))
		return
	}
	g.hist.ObserveSince(start)
	if err != nil {
		c.errors.Add(1)
		g.recordFailure(op, rid, err)
		g.cfg.Log.Debug("op failed", "op", op, "request_id", rid, "error", err)
	}
	if lost {
		c.lost.Add(1)
		g.cfg.Log.Warn("session lost", "request_id", rid, "error", err)
	}
}

// recordFailure samples the op into the report's failed-op list, preferring
// the server's own correlation identity (the APIError's request and trace
// IDs) over the client-minted request ID when a response came back.
func (g *generator) recordFailure(op, rid string, err error) {
	f := failedOp{Op: op, Error: err.Error(), RequestID: rid}
	var aerr *plandclient.APIError
	if errors.As(err, &aerr) {
		if aerr.RequestID != "" {
			f.RequestID = aerr.RequestID
		}
		f.TraceID = aerr.TraceID
	}
	g.failMu.Lock()
	if len(g.failed) < maxFailedOps {
		g.failed = append(g.failed, f)
	}
	g.failMu.Unlock()
}

// retryable reports whether an error is worth re-trying on a different
// target: transport failures and 5xx-class server states, i.e. exactly the
// failures a dying or draining node emits. 4xx responses are real answers.
func retryable(err error) bool {
	var aerr *plandclient.APIError
	if !errors.As(err, &aerr) {
		return false
	}
	return aerr.StatusCode == 0 || aerr.StatusCode >= 500
}

// onFleet runs fn against a target, rotating to the other targets when the
// failure looks like the node's problem rather than the request's. The base
// target comes from the shared round-robin cursor, but the rotation itself
// walks the target list from there — drawing each retry from the shared
// cursor would let interleaved workers hand one op the same dead node three
// times, failing it without ever trying a live one.
func (g *generator) onFleet(ctx context.Context, fn func(ctx context.Context, c *plandclient.Client) error) error {
	var err error
	base := g.cursor.Add(1)
	for i := 0; i < len(g.clients); i++ {
		octx, cancel := context.WithTimeout(ctx, g.cfg.OpTimeout)
		err = fn(octx, g.clients[(base+uint64(i))%uint64(len(g.clients))])
		cancel()
		if err == nil || !retryable(err) || ctx.Err() != nil {
			return err
		}
	}
	return err
}

// sizes draws a random instance of n inputs in [1, capacity/2].
func (g *generator) sizes(rng *rand.Rand, n int) []assign.Size {
	out := make([]assign.Size, n)
	half := int64(g.cfg.Capacity) / 2
	if half < 1 {
		half = 1
	}
	for i := range out {
		out[i] = assign.Size(1 + rng.Int63n(half))
	}
	return out
}

func (g *generator) doPlan(ctx context.Context, rng *rand.Rand) error {
	req := plandclient.PlanRequest{
		Problem:  "A2A",
		Capacity: g.cfg.Capacity,
		Sizes:    g.sizes(rng, g.cfg.Inputs),
	}
	return g.onFleet(ctx, func(ctx context.Context, c *plandclient.Client) error {
		res, err := c.Plan(ctx, req)
		if err != nil {
			return err
		}
		if res.FleetCacheHit {
			g.fleetHits.Add(1)
		}
		return nil
	})
}

func (g *generator) doExecute(ctx context.Context, rng *rand.Rand) error {
	n := g.cfg.Inputs
	if n > 32 {
		n = 32 // execute materializes payloads; keep them modest
	}
	inputs := make([]string, n)
	for i, sz := range g.sizes(rng, n) {
		inputs[i] = strings.Repeat("x", int(sz))
	}
	req := plandclient.ExecuteRequest{
		Problem:  "A2A",
		Capacity: g.cfg.Capacity,
		Inputs:   inputs,
	}
	return g.onFleet(ctx, func(ctx context.Context, c *plandclient.Client) error {
		_, err := c.Execute(ctx, req)
		return err
	})
}

// doChurn cycles one session: create, mutate, read back, delete. The read
// back is the loss detector — after a create was acknowledged, a 404 that
// persists past LostTimeout means a node took acknowledged state down with
// it, which is the one thing a clustered pland must never do.
func (g *generator) doChurn(ctx context.Context, rng *rand.Rand) (lost bool, err error) {
	var sess *plandclient.Session
	err = g.onFleet(ctx, func(ctx context.Context, c *plandclient.Client) error {
		var err error
		sess, err = c.CreateSession(ctx, plandclient.SessionCreateRequest{
			Capacity: g.cfg.Capacity,
			Sizes:    g.sizes(rng, g.cfg.Inputs),
		})
		return err
	})
	if err != nil {
		return false, err
	}
	err = g.onFleet(ctx, func(ctx context.Context, c *plandclient.Client) error {
		_, err := c.UpdateSession(ctx, sess.ID, plandclient.AddDelta(assign.Size(1+rng.Int63n(int64(g.cfg.Capacity)/2+1))))
		return err
	})
	if err != nil && !retryable(err) && !plandclient.IsCode(err, plandclient.CodeNotFound) {
		return false, err
	}
	// Verify the session is still reachable, riding out a handoff window.
	deadline := time.Now().Add(g.cfg.LostTimeout)
	wait := 25 * time.Millisecond
	for {
		err = g.onFleet(ctx, func(ctx context.Context, c *plandclient.Client) error {
			_, err := c.GetSession(ctx, sess.ID)
			return err
		})
		if err == nil {
			break
		}
		if ctx.Err() != nil {
			return false, err
		}
		if !plandclient.IsCode(err, plandclient.CodeNotFound) && !retryable(err) {
			return false, err
		}
		if time.Now().After(deadline) {
			return plandclient.IsCode(err, plandclient.CodeNotFound), err
		}
		time.Sleep(wait)
		if wait < 400*time.Millisecond {
			wait *= 2
		}
	}
	// Best-effort delete; a failure here is an error but not a loss.
	return false, g.onFleet(ctx, func(ctx context.Context, c *plandclient.Client) error {
		_, err := c.DeleteSession(ctx, sess.ID)
		return err
	})
}

// report folds the counters into the wire document and evaluates the gates.
func (g *generator) report(elapsed time.Duration) *loadReport {
	r := &loadReport{
		Targets:        g.cfg.Targets,
		DurationS:      elapsed.Seconds(),
		FleetCacheHits: g.fleetHits.Load(),
		ByOp:           map[string]OpStats{},
		P50MS:          g.hist.Quantile(0.50) * 1000,
		P90MS:          g.hist.Quantile(0.90) * 1000,
		P99MS:          g.hist.Quantile(0.99) * 1000,
		P999MS:         g.hist.Quantile(0.999) * 1000,
		Violations:     []string{},
	}
	names := make([]string, 0, len(g.perOp))
	for name := range g.perOp {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := g.perOp[name]
		st := OpStats{Requests: c.requests.Load(), Errors: c.errors.Load(), Lost: c.lost.Load()}
		if st.Requests == 0 {
			continue
		}
		r.ByOp[name] = st
		r.Requests += st.Requests
		r.Errors += st.Errors
		r.Lost += st.Lost
	}
	if r.Requests > 0 {
		r.ErrorRate = float64(r.Errors) / float64(r.Requests)
	}
	if r.DurationS > 0 {
		r.Throughput = float64(r.Requests) / r.DurationS
	}
	if g.cfg.MaxP99 > 0 && r.P99MS > float64(g.cfg.MaxP99.Milliseconds()) {
		r.Violations = append(r.Violations,
			fmt.Sprintf("p99 %.1fms exceeds gate %dms", r.P99MS, g.cfg.MaxP99.Milliseconds()))
	}
	if g.cfg.MaxErrorRate >= 0 && r.ErrorRate > g.cfg.MaxErrorRate {
		r.Violations = append(r.Violations,
			fmt.Sprintf("error rate %.4f exceeds gate %.4f (%d/%d)", r.ErrorRate, g.cfg.MaxErrorRate, r.Errors, r.Requests))
	}
	if g.cfg.RequireZeroLost && r.Lost > 0 {
		r.Violations = append(r.Violations,
			fmt.Sprintf("%d sessions lost; zero tolerated", r.Lost))
	}
	g.failMu.Lock()
	r.FailedOps = append([]failedOp(nil), g.failed...)
	g.failMu.Unlock()
	return r
}
